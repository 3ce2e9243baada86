"""Incremental ingest: ``append_world`` and the ``DeltaLog``.

The contract under test is byte-identity: an appended cache entry must
be indistinguishable from a cold ``build_world`` of the extended
configuration in every persisted dataset file, for any ``jobs`` value —
``trace.jsonl`` excepted (appended entries carry none by design).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.datasets import (
    AppendDelta,
    DeltaLog,
    WorldCache,
    WorldConfig,
    append_world,
    build_or_load_world,
    cache_key,
)
from repro.datasets import append as append_mod
from repro.exceptions import DatasetError

BASE = WorldConfig(
    seed=11, n_dasu_users=80, n_fcc_users=12, days_per_year=1.0, sanitize=True
)
DELTA = AppendDelta(n_dasu_users=24, n_fcc_users=4)

#: Every dataset file a cache entry persists (trace.jsonl is excluded
#: from the byte-identity contract).
ENTRY_FILES = (
    "users.npy",
    "users.npy.json",
    "survey.csv",
    "config.json",
    "sanitization.json",
)


def entry_bytes(cache: WorldCache, config: WorldConfig) -> dict[str, bytes]:
    entry = cache.entry_dir(config)
    return {
        name: (entry / name).read_bytes()
        for name in ENTRY_FILES
        if (entry / name).exists()
    }


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """The extended world built cold, as the reference bytes."""
    cache = WorldCache(tmp_path_factory.mktemp("cold-cache"))
    build_or_load_world(DELTA.apply(BASE), cache=cache, ground_truth=False)
    return entry_bytes(cache, DELTA.apply(BASE))


def test_append_entry_byte_identical_to_cold_build(tmp_path, cold):
    cache = WorldCache(tmp_path / "cache")
    result = append_world(BASE, DELTA, cache=cache)
    assert not result.from_cache and not result.rebuilt
    assert result.config == DELTA.apply(BASE)
    got = entry_bytes(cache, result.config)
    assert set(got) == set(cold)
    for name in cold:
        assert got[name] == cold[name], f"{name} differs from cold build"


def test_append_jobs_invariant(tmp_path, cold):
    cache = WorldCache(tmp_path / "cache")
    append_world(BASE, DELTA, jobs=2, cache=cache)
    assert entry_bytes(cache, DELTA.apply(BASE)) == cold


def test_stacked_appends_equal_one_cold_build(tmp_path, cold):
    """Two appends land on the same bytes as one cold build of the sum."""
    cache = WorldCache(tmp_path / "cache")
    first = AppendDelta(n_dasu_users=24)
    second = AppendDelta(n_fcc_users=4)
    mid = append_world(BASE, first, cache=cache)
    result = append_world(mid.config, second, cache=cache)
    assert result.config == DELTA.apply(BASE)
    assert entry_bytes(cache, result.config) == cold


def test_empty_delta_returns_base(tmp_path):
    cache = WorldCache(tmp_path / "cache")
    result = append_world(BASE, AppendDelta(), cache=cache)
    assert result.config == BASE
    assert result.world.config == BASE


def test_append_hits_existing_extended_entry(tmp_path):
    cache = WorldCache(tmp_path / "cache")
    append_world(BASE, DELTA, cache=cache)
    again = append_world(BASE, DELTA, cache=cache)
    assert again.from_cache


def test_alabama_fallback_rebuilds(tmp_path, cold, monkeypatch):
    """A non-superset allocation falls back to a full, correct build."""
    monkeypatch.setattr(
        append_mod, "_delta_chunks", lambda *a, **k: None
    )
    cache = WorldCache(tmp_path / "cache")
    result = append_world(BASE, DELTA, cache=cache)
    assert result.rebuilt
    assert entry_bytes(cache, result.config) == cold


def test_trace_bearing_config_rejected(tmp_path):
    traced = dataclasses.replace(BASE, trace_user_fraction=0.5)
    with pytest.raises(DatasetError, match="trace"):
        append_world(traced, DELTA, cache=WorldCache(tmp_path / "cache"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_dasu_users": -1},
        {"n_fcc_users": -2},
        {"n_dasu_users": 1.5},
        {"n_dasu_users": 2.7},
        {"n_dasu_users": True},
        {"n_dasu_users": "16"},
        {"n_dasu_users": None},
        {"n_dasu_user": 16},
        [["n_dasu_users", 16]],
        16,
    ],
)
def test_delta_validation(kwargs):
    """Outside input is validated as given, never coerced to an int: a
    float, bool or string count, an unknown key or a non-object payload
    raises."""
    with pytest.raises(DatasetError):
        AppendDelta.from_payload(kwargs)


def test_delta_payload_roundtrip():
    assert AppendDelta.from_payload(DELTA.payload()) == DELTA


class TestDeltaLog:
    def test_record_replay_tip(self, tmp_path):
        cache = WorldCache(tmp_path / "cache")
        log = DeltaLog(BASE, cache=cache)
        assert log.replay() == []
        assert log.tip_config() == BASE
        first = AppendDelta(n_dasu_users=24)
        second = AppendDelta(n_fcc_users=4)
        log.record(BASE, first)
        log.record(first.apply(BASE), second)
        assert log.replay() == [first, second]
        assert log.tip_config() == second.apply(first.apply(BASE))

    def test_rerecord_is_idempotent(self, tmp_path):
        log = DeltaLog(BASE, cache=WorldCache(tmp_path / "cache"))
        path_a = log.record(BASE, DELTA)
        path_b = log.record(BASE, DELTA)
        assert path_a == path_b
        assert log.replay() == [DELTA]

    def test_fork_resolves_deterministically(self, tmp_path):
        """Concurrent appends onto one parent: smallest record key wins."""
        log = DeltaLog(BASE, cache=WorldCache(tmp_path / "cache"))
        a = AppendDelta(n_dasu_users=8)
        b = AppendDelta(n_dasu_users=16)
        log.record(BASE, a)
        log.record(BASE, b)
        winner_key = min(
            log.record_key(log.base_key, log.base_key, d) for d in (a, b)
        )
        winner = a if log.record_key(
            log.base_key, log.base_key, a
        ) == winner_key else b
        assert log.replay() == [winner]
        # A fresh log over the same directory replays identically.
        fresh = DeltaLog(BASE, cache=log.cache)
        assert fresh.replay() == [winner]

    def test_corrupt_and_foreign_records_skipped(self, tmp_path):
        log = DeltaLog(BASE, cache=WorldCache(tmp_path / "cache"))
        log.record(BASE, DELTA)
        (log.root / "zzzz-corrupt.json").write_text("{not json")
        (log.root / "zzzz-foreign.json").write_text(
            json.dumps({"append_format": 999, "base_key": log.base_key})
        )
        (log.root / "zzzz-list.json").write_text(json.dumps([1, 2]))
        parent_key = cache_key(DELTA.apply(BASE))
        for name, delta in (
            ("zzzz-string", {"n_dasu_users": "x"}),
            ("zzzz-float", {"n_dasu_users": 2.7}),
            ("zzzz-typo", {"n_dasu_user": 16}),
            ("zzzz-array", [16]),
        ):
            (log.root / f"{name}.json").write_text(
                json.dumps(
                    {
                        "append_format": append_mod.APPEND_FORMAT_VERSION,
                        "base_key": log.base_key,
                        "parent_key": parent_key,
                        "extended_key": "0" * 64,
                        "delta": delta,
                    }
                )
            )
        assert log.replay() == [DELTA]

    @pytest.mark.parametrize("damage", ["keyless", "wrong-key"])
    def test_damaged_extended_key_neither_stops_nor_misroutes(
        self, tmp_path, damage
    ):
        """Replay derives each extended key from the delta it applies: a
        copy of a valid record whose ``extended_key`` is missing or wrong
        changes neither the chain nor what a service serves."""
        from repro.service import ReportService

        cache = WorldCache(tmp_path / "cache")
        log = DeltaLog(BASE, cache=cache)
        second = AppendDelta(n_fcc_users=4)
        append_world(BASE, DELTA, cache=cache, log=log)
        append_world(DELTA.apply(BASE), second, cache=cache, log=log)
        state = tmp_path / "state"
        before = ReportService(BASE, state_dir=state, cache=cache).refresh()
        record = json.loads(
            (
                log.root
                / f"{log.record_key(log.base_key, log.base_key, DELTA)}.json"
            ).read_text()
        )
        if damage == "keyless":
            del record["extended_key"]
        else:
            record["extended_key"] = "0" * 64
        # "-" sorts before every hex record name, so at the fork between
        # the two copies replay meets the damaged one first.
        (log.root / f"-{damage}.json").write_text(json.dumps(record))
        assert log.replay() == [DELTA, second]
        after = ReportService(BASE, state_dir=state, cache=cache).refresh()
        assert after.config == second.apply(DELTA.apply(BASE))
        assert (after.etag, after.report_text, after.iqb_json) == (
            before.etag, before.report_text, before.iqb_json,
        )

    def test_append_world_records_to_log(self, tmp_path):
        cache = WorldCache(tmp_path / "cache")
        log = DeltaLog(BASE, cache=cache)
        append_world(BASE, DELTA, cache=cache, log=log)
        assert log.tip_config() == DELTA.apply(BASE)
        assert cache_key(log.tip_config()) == cache_key(DELTA.apply(BASE))
