"""The on-disk world cache: keys, hits, invalidation, corruption."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.datasets import WorldConfig, build_world
from repro.datasets import cache as cache_module
from repro.datasets.cache import WorldCache, build_or_load_world, cache_key
from repro.datasets.io import write_users_csv
from repro.faults import fault_profile
from tests.analysis.record_model import to_records

TINY = WorldConfig(seed=21, n_dasu_users=30, n_fcc_users=8, days_per_year=1.0)
DIRTY = dataclasses.replace(
    TINY, faults=fault_profile("default"), sanitize=True
)


@pytest.fixture()
def cache(tmp_path) -> WorldCache:
    return WorldCache(tmp_path / "worlds")


class TestCacheKey:
    def test_stable_for_equal_configs(self):
        assert cache_key(TINY) == cache_key(dataclasses.replace(TINY))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 22},
            {"n_dasu_users": 31},
            {"n_fcc_users": 9},
            {"days_per_year": 1.25},
            {"sample_interval_s": 60.0},
            {"ndt_tests_per_period": 11},
            {"address_constraint_rate": 0.2},
            {"price_selection_enabled": False},
            {"quality_suppression_enabled": False},
            {"demand_growth_enabled": False},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert cache_key(dataclasses.replace(TINY, **change)) != cache_key(TINY)

    def test_package_version_change_changes_key(self, monkeypatch):
        before = cache_key(TINY)
        monkeypatch.setattr(cache_module, "__version__", "0.0.0-test")
        assert cache_key(TINY) != before

    def test_cache_format_change_changes_key(self, monkeypatch):
        before = cache_key(TINY)
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 999)
        assert cache_key(TINY) != before


class TestWorldCache:
    def test_miss_on_empty_cache(self, cache):
        assert cache.load(TINY) is None

    def test_store_then_hit(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        assert entry is not None and entry.is_dir()
        cached = cache.load(TINY)
        assert cached is not None
        assert sorted(cached.all_columns.user_ids) == sorted(
            world.all_columns.user_ids
        )
        assert cached.survey.n_plans == world.survey.n_plans
        # Records only: ground truth is never persisted.
        assert cached.ground_truth == {}

    def test_loaded_records_equal_built_records(self, cache):
        # CSV round-trips floats exactly except the %.6g-encoded hourly
        # profile, so compare the analysis-relevant fields (as the io
        # round-trip tests do) rather than whole records.
        world = build_world(TINY)
        cache.store(world)
        cached = cache.load(TINY)
        by_id = {u.user_id: u for u in to_records(cached.all_columns)}
        for user in to_records(world.all_columns):
            loaded = by_id[user.user_id]
            assert loaded.country == user.country
            assert loaded.capacity_down_mbps == user.capacity_down_mbps
            assert loaded.peak_mbps == user.peak_mbps
            assert loaded.peak_no_bt_mbps == user.peak_no_bt_mbps
            assert loaded.latency_ms == user.latency_ms
            assert len(loaded.observations) == len(user.observations)
            assert loaded.network == user.network

    def test_different_config_misses(self, cache):
        cache.store(build_world(TINY))
        other = dataclasses.replace(TINY, seed=22)
        assert cache.load(other) is None

    def test_corrupt_users_npy_is_a_miss(self, cache):
        # Same size as the real shard, so only the parse can catch it.
        world = build_world(TINY)
        entry = cache.store(world)
        size = (entry / "users.npy").stat().st_size
        (entry / "users.npy").write_bytes(b"x" * size)
        assert cache.load(TINY) is None
        assert cache.fetch_into(TINY, entry.parent / "out") is None
        assert not (entry.parent / "out").exists()

    def test_truncated_users_npy_is_a_miss(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        raw = (entry / "users.npy").read_bytes()
        (entry / "users.npy").write_bytes(raw[: len(raw) // 2])
        assert cache.load(TINY) is None

    def test_missing_survey_is_a_miss(self, cache):
        entry = cache.store(build_world(TINY))
        (entry / "survey.csv").unlink()
        assert cache.load(TINY) is None

    def test_invalidate(self, cache):
        cache.store(build_world(TINY))
        assert cache.invalidate(TINY)
        assert cache.load(TINY) is None
        assert not cache.invalidate(TINY)

    def test_trace_worlds_bypass_cache(self, cache):
        config = dataclasses.replace(TINY, trace_user_fraction=0.5)
        world = build_world(config)
        assert cache.store(world) is None
        assert cache.load(config) is None

    def test_fetch_into_copies_raw_files(self, cache, tmp_path):
        entry = cache.store(build_world(TINY))
        out = tmp_path / "fetched"
        assert cache.fetch_into(TINY, out) is not None
        for name in ("users.npy", "survey.csv", "config.json"):
            assert (out / name).read_bytes() == (entry / name).read_bytes()
        # users.csv is rendered, not copied: see
        # TestColumnarShard.test_exported_csv_matches_fresh_build.
        assert (out / "users.csv").exists()

    def test_trace_round_trips_through_cache(self, cache):
        # The build ledger is stored as trace.jsonl next to the datasets
        # and comes back byte-identical on a hit.
        world = build_world(TINY)
        entry = cache.store(world)
        stored = (entry / "trace.jsonl").read_text()
        assert stored == world.ledger.to_jsonl()
        cached = cache.load(TINY)
        assert cached.ledger is not None
        assert cached.ledger.to_jsonl() == stored

    def test_fetch_into_returns_entry_ledger(self, cache, tmp_path):
        # The ledger comes back with the world; ``build --trace`` writes
        # it, so a plain export carries no trace.jsonl (nor does a miss).
        entry = cache.store(build_world(TINY))
        out = tmp_path / "fetched-trace"
        fetched = cache.fetch_into(TINY, out)
        assert fetched.ledger.to_jsonl() == (
            entry / "trace.jsonl"
        ).read_text()
        assert not (out / "trace.jsonl").exists()

    def test_entry_without_trace_still_hits(self, cache):
        # Entries written before the ledger existed (or hand-pruned)
        # must stay loadable; they just carry no ledger.
        entry = cache.store(build_world(TINY))
        (entry / "trace.jsonl").unlink()
        cached = cache.load(TINY)
        assert cached is not None
        assert cached.ledger is None

    def test_corrupt_trace_is_a_miss(self, cache):
        entry = cache.store(build_world(TINY))
        (entry / "trace.jsonl").write_text("not json\n")
        assert cache.load(TINY) is None


class TestBuildOrLoad:
    def test_builds_then_loads(self, cache):
        world, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        again, from_cache = build_or_load_world(TINY, cache=cache)
        assert from_cache
        assert again.all_columns.n_users == world.all_columns.n_users

    def test_use_cache_false_always_builds(self, cache):
        build_or_load_world(TINY, cache=cache)
        world, from_cache = build_or_load_world(
            TINY, cache=cache, use_cache=False
        )
        assert not from_cache
        assert world.ground_truth  # a real build carries ground truth

    def test_corrupt_entry_falls_back_to_clean_build(self, cache):
        build_or_load_world(TINY, cache=cache)
        entry = cache.entry_dir(TINY)
        (entry / "users.npy").write_text("garbage")
        world, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        assert world.all_columns.n_users
        # The rebuild repaired the entry.
        assert cache.load(TINY) is not None


class TestCliCache:
    ARGS = ["--users", "30", "--fcc", "8", "--days", "1.0", "--seed", "21"]

    def _build(self, out, cache_dir, *extra):
        return main(
            ["build", "--out", str(out), "--cache-dir", str(cache_dir)]
            + self.ARGS + list(extra)
        )

    def test_second_build_hits_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        first = capsys.readouterr().out
        assert "cache hit" not in first
        assert self._build(tmp_path / "w2", cache_dir) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "skipping build" in second
        assert (
            (tmp_path / "w1" / "users.csv").read_bytes()
            == (tmp_path / "w2" / "users.csv").read_bytes()
        )

    @pytest.mark.parametrize(
        "extra",
        [(), ("--faults", "default", "--sanitize", "--trace")],
        ids=["plain", "dirty-traced"],
    )
    def test_hit_writes_the_files_a_miss_writes(self, tmp_path, extra):
        # Same names, same bytes: nothing cache-internal leaks out.
        cache_dir = tmp_path / "cache"
        miss, hit = tmp_path / "miss", tmp_path / "hit"
        assert self._build(miss, cache_dir, *extra) == 0
        assert self._build(hit, cache_dir, *extra) == 0
        names = sorted(p.name for p in miss.iterdir())
        assert sorted(p.name for p in hit.iterdir()) == names
        for name in names:
            assert (hit / name).read_bytes() == (miss / name).read_bytes()
        (entry,) = [
            p for p in cache_dir.iterdir() if not p.name.startswith(".")
        ]
        assert not (entry / "users.csv").exists()

    def test_traced_hit_on_entry_without_ledger(self, tmp_path, capsys):
        # Appended entries carry no trace.jsonl: a traced hit writes an
        # empty stream rather than none or a wrong one.
        from repro.obs.ledger import RunLedger

        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        (entry,) = [
            p for p in cache_dir.iterdir() if not p.name.startswith(".")
        ]
        (entry / "trace.jsonl").unlink()
        assert self._build(tmp_path / "w2", cache_dir, "--trace") == 0
        assert "cache hit" in capsys.readouterr().out
        assert (tmp_path / "w2" / "trace.jsonl").read_text() == (
            RunLedger().to_jsonl()
        )
        assert (tmp_path / "w2" / "manifest.json").exists()

    def test_no_cache_forces_rebuild(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        assert self._build(tmp_path / "w2", cache_dir, "--no-cache") == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
        assert "building world" in out

    def test_corrupt_cache_entry_falls_back(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        entries = [
            p for p in cache_dir.iterdir() if not p.name.startswith(".")
        ]
        assert len(entries) == 1
        (entries[0] / "users.npy").write_text("corrupted beyond repair")
        assert self._build(tmp_path / "w2", cache_dir) == 0
        out = capsys.readouterr().out
        assert "building world" in out
        assert (
            (tmp_path / "w1" / "users.csv").read_bytes()
            == (tmp_path / "w2" / "users.csv").read_bytes()
        )

    def test_report_from_cache_skips_build(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._build(tmp_path / "w1", cache_dir) == 0
        capsys.readouterr()
        rc = main(
            ["report", "--cache-dir", str(cache_dir)] + self.ARGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "skipping build" in out
        assert "Reproduction report" in out


class TestStoreRace:
    """Concurrent stores of the same config must both succeed.

    ``os.replace`` onto an existing non-empty directory raises (ENOTEMPTY
    on Linux); the builds are deterministic, so losing the publish race
    is a benign success, not an error.
    """

    def test_lost_race_returns_existing_entry(self, cache):
        world = build_world(TINY)
        first = cache.store(world)
        before = (first / "users.npy").read_bytes()
        # A second store finds the entry path occupied by a valid,
        # equivalent entry: keep it, discard the staging copy.
        second = cache.store(world)
        assert second == first
        assert (first / "users.npy").read_bytes() == before
        assert cache.load(TINY) is not None
        assert not list(cache.root.glob(".staging-*"))

    def test_invalid_occupant_is_replaced(self, cache):
        world = build_world(TINY)
        entry = cache.entry_dir(TINY)
        entry.mkdir(parents=True)
        (entry / "garbage.txt").write_text("not a world")
        stored = cache.store(world)
        assert stored == entry
        assert cache.load(TINY) is not None
        assert not (entry / "garbage.txt").exists()
        assert not list(cache.root.glob(".staging-*"))


class TestCacheKeyCanonicalization:
    """``cache_key`` hashes a canonical JSON payload.

    The old implementation used ``json.dumps(..., default=str)``: any
    unserializable value was silently stringified, so two *different*
    configs could collide (or one config could hash differently across
    platforms whose ``str()`` differs). Numeric scalars now normalize to
    builtin int/float and anything else fails loudly.
    """

    def test_numpy_scalars_hash_like_builtins(self):
        import numpy as np

        assert cache_key(
            dataclasses.replace(TINY, seed=np.int64(TINY.seed))
        ) == cache_key(TINY)
        assert cache_key(
            dataclasses.replace(
                TINY, days_per_year=np.float64(TINY.days_per_year)
            )
        ) == cache_key(TINY)

    def test_non_canonical_value_raises(self):
        from pathlib import Path as _Path

        from repro.exceptions import DatasetError

        bad = dataclasses.replace(TINY, seed=_Path("not-a-seed"))
        with pytest.raises(DatasetError, match="non-JSON-native"):
            cache_key(bad)

    def test_bool_is_not_an_int(self):
        # bool is an Integral subclass; it must stay a JSON bool, not
        # collapse onto 0/1 (which would collide with integer fields).
        assert cache_key(
            dataclasses.replace(TINY, sanitize=False)
        ) != cache_key(dataclasses.replace(TINY, sanitize=True))


class TestColumnarShard:
    """Entries are the ``users.npy`` shard: valid shards load as an
    mmap, anything suspect is a miss, and ``users.csv`` exists only as
    an export rendered from the columns."""

    def test_entry_carries_npy_and_manifest(self, cache):
        world = build_world(TINY)
        entry = cache.store(world)
        meta = json.loads((entry / "users.npy.json").read_text())
        assert meta["users_npy_bytes"] == (entry / "users.npy").stat().st_size
        assert meta["rows"] == world.all_columns.n_rows
        assert "users_csv_bytes" not in meta
        assert not (entry / "users.csv").exists()

    def test_foreign_npy_is_a_miss_then_rebuilt(self, cache):
        import numpy as np

        world = build_world(TINY)
        entry = cache.store(world)
        # A well-formed array of the wrong schema, with a manifest that
        # matches its size: only the dtype check can reject it.
        np.save(entry / "users.npy", np.zeros(world.all_columns.n_rows))
        meta = json.loads((entry / "users.npy.json").read_text())
        meta["users_npy_bytes"] = (entry / "users.npy").stat().st_size
        (entry / "users.npy.json").write_text(json.dumps(meta))
        assert cache.load(TINY) is None
        rebuilt, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        assert cache.load(TINY) is not None
        assert sorted(rebuilt.all_columns.user_ids) == sorted(
            world.all_columns.user_ids
        )

    def test_stale_manifest_is_a_miss(self, cache):
        entry = cache.store(build_world(TINY))
        good = json.loads((entry / "users.npy.json").read_text())
        for key, value in (
            ("rows", good["rows"] + 1),
            ("users_npy_bytes", good["users_npy_bytes"] + 1),
            ("columns_format", good["columns_format"] + 1),
        ):
            (entry / "users.npy.json").write_text(
                json.dumps({**good, key: value})
            )
            assert cache.load(TINY) is None, key
        (entry / "users.npy.json").write_text("[]")
        assert cache.load(TINY) is None
        _, from_cache = build_or_load_world(TINY, cache=cache)
        assert not from_cache
        assert cache.load(TINY) is not None

    def test_csv_layout_entry_is_replaced_in_place(self, cache):
        # The earlier layout stored users.csv beside the shard, and its
        # manifest tied the shard to the CSV's size instead of its own.
        world = build_world(TINY)
        entry = cache.store(world)
        write_users_csv(world.all_columns, entry / "users.csv")
        (entry / "users.npy.json").write_text(
            json.dumps(
                {
                    "columns_format": 1,
                    "rows": world.all_columns.n_rows,
                    "users_csv_bytes": (entry / "users.csv").stat().st_size,
                }
            )
        )
        assert cache.load(TINY) is None
        assert cache.store(world) == entry
        assert cache.load(TINY) is not None
        assert not (entry / "users.csv").exists()
        assert not list(cache.root.glob(".staging-*"))

    def test_fetch_into_copies_columnar_shard(self, cache, tmp_path):
        entry = cache.store(build_world(TINY))
        out = tmp_path / "out"
        out.mkdir()
        assert cache.fetch_into(TINY, out) is not None
        assert (out / "users.npy").read_bytes() == (
            entry / "users.npy"
        ).read_bytes()
        # The manifest is cache-internal: a fresh build never writes it.
        assert not (out / "users.npy.json").exists()

    @pytest.mark.parametrize("config", [TINY, DIRTY], ids=["plain", "dirty"])
    def test_exported_csv_matches_fresh_build(self, tmp_path, config):
        fresh = build_world(config)
        cache = WorldCache(tmp_path / "worlds")
        cache.store(fresh)
        assert cache.fetch_into(config, tmp_path / "out") is not None
        write_users_csv(fresh.all_columns, tmp_path / "fresh.csv")
        assert (tmp_path / "out" / "users.csv").read_bytes() == (
            tmp_path / "fresh.csv"
        ).read_bytes()
