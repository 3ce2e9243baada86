"""Serial/parallel equivalence of the world builder.

The contract: ``build_world(config, jobs=N, chunk_size=C)`` is
bit-identical for every ``N`` and ``C``, because each household owns a
``SeedSequence([seed, stream, country_index, user_index])``-derived
random stream that no scheduling decision can perturb. These tests pin
that contract at the strongest observable level — the bytes of the
persisted datasets.
"""

from __future__ import annotations

import pytest

from repro.datasets import WorldConfig, build_world
from repro.datasets.builder import _plan_chunks, _BuildContext
from repro.datasets.io import write_survey_csv, write_users_csv
from repro.exceptions import DatasetError, ReproError

SMALL = dict(n_dasu_users=40, n_fcc_users=10, days_per_year=1.0)


def _world_bytes(world, tmp_path, tag):
    users = tmp_path / f"{tag}-users.csv"
    survey = tmp_path / f"{tag}-survey.csv"
    write_users_csv(world.all_columns, users)
    write_survey_csv(world.survey, survey)
    return users.read_bytes(), survey.read_bytes()


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("seed", [3, 97])
    def test_jobs_4_byte_identical_to_serial(self, tmp_path, seed):
        config = WorldConfig(seed=seed, **SMALL)
        serial = build_world(config, jobs=1)
        parallel = build_world(config, jobs=4)
        s_users, s_survey = _world_bytes(serial, tmp_path, f"s{seed}")
        p_users, p_survey = _world_bytes(parallel, tmp_path, f"p{seed}")
        assert s_users == p_users
        assert s_survey == p_survey

    def test_chunk_size_does_not_matter(self, tmp_path):
        config = WorldConfig(seed=5, **SMALL)
        reference = build_world(config, jobs=1)
        r_users, _ = _world_bytes(reference, tmp_path, "ref")
        for chunk_size in (3, 17, 500):
            world = build_world(config, jobs=1, chunk_size=chunk_size)
            users, _ = _world_bytes(world, tmp_path, f"c{chunk_size}")
            assert users == r_users, f"chunk_size={chunk_size} diverged"

    def test_parallel_chunked_matches_serial(self, tmp_path):
        config = WorldConfig(seed=5, **SMALL)
        reference = build_world(config, jobs=1)
        world = build_world(config, jobs=4, chunk_size=3)
        r_users, _ = _world_bytes(reference, tmp_path, "ref2")
        users, _ = _world_bytes(world, tmp_path, "par2")
        assert users == r_users

    def test_ground_truth_and_traces_identical(self):
        config = WorldConfig(seed=5, trace_user_fraction=0.5, **SMALL)
        serial = build_world(config, jobs=1)
        parallel = build_world(config, jobs=3)
        assert serial.ground_truth == parallel.ground_truth
        assert set(serial.traces) == set(parallel.traces)
        for user_id, serial_traces in serial.traces.items():
            parallel_traces = parallel.traces[user_id]
            assert len(serial_traces) == len(parallel_traces)
            for a, b in zip(serial_traces, parallel_traces):
                assert (a.rates_mbps == b.rates_mbps).all()


class TestBuildLedger:
    """The run ledger is part of the determinism contract: its serialized
    form may not depend on worker count or chunk size."""

    def test_ledger_byte_identical_across_jobs(self):
        config = WorldConfig(seed=7, sanitize=True, **SMALL)
        serial = build_world(config, jobs=1)
        parallel = build_world(config, jobs=4)
        assert serial.ledger is not None and parallel.ledger is not None
        assert serial.ledger.to_jsonl() == parallel.ledger.to_jsonl()

    def test_counters_invariant_across_chunk_sizes(self):
        # Chunk size reshapes the *plan* (``build.chunks`` and the
        # per-chunk spans follow it), but every substantive counter —
        # households, users, samples, faults — must not move.
        config = WorldConfig(seed=7, **SMALL)
        reference = build_world(config, jobs=1).ledger.counters
        for chunk_size in (3, 17, 500):
            counters = build_world(
                config, jobs=2, chunk_size=chunk_size
            ).ledger.counters
            for name in set(reference) | set(counters):
                if name == "build.chunks":
                    continue
                assert counters.get(name) == reference.get(name), (
                    f"chunk_size={chunk_size}: {name} diverged"
                )

    def test_sanitize_counters_match_report_exactly(self):
        # Acceptance criterion: every sanitization-rule count in the
        # trace equals the persisted SanitizationReport, number for
        # number — the ledger is a bridge, not a second implementation.
        config = WorldConfig(seed=7, sanitize=True, **SMALL)
        world = build_world(config, jobs=3)
        assert world.sanitization is not None
        expected = world.sanitization.ledger_counters()
        assert expected  # the bridge must actually carry counters
        for name, value in expected.items():
            assert world.ledger.counters[name] == value, name

    def test_user_accounting_adds_up(self):
        config = WorldConfig(seed=7, **SMALL)
        world = build_world(config, jobs=2)
        counters = world.ledger.counters
        assert counters["build.users.dasu"] == world.dasu.n_users
        assert counters["build.users.fcc"] == world.fcc.n_users
        assert counters["build.households.simulated"] >= (
            counters["build.users.dasu"] + counters["build.users.fcc"]
        )

    def test_caller_ledger_is_used(self):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger()
        world = build_world(WorldConfig(seed=7, **SMALL), jobs=2, ledger=ledger)
        assert world.ledger is ledger
        assert ledger.counters["build.chunks"] > 0


class TestShardPlanning:
    def test_chunks_cover_every_user_exactly_once(self):
        config = WorldConfig(seed=5, n_dasu_users=100, n_fcc_users=30,
                             days_per_year=1.0)
        context = _BuildContext(config)
        specs = _plan_chunks(config, context.profiles, chunk_size=7)
        dasu_total = sum(s.count for s in specs if s.source == "dasu")
        fcc_total = sum(s.count for s in specs if s.source == "fcc")
        assert dasu_total == config.n_dasu_users
        assert fcc_total == config.n_fcc_users
        seen = set()
        for spec in specs:
            for index in range(spec.start, spec.start + spec.count):
                key = (spec.source, spec.country, index)
                assert key not in seen
                seen.add(key)

    def test_fcc_panel_requires_us_market(self):
        config = WorldConfig(
            seed=5, n_dasu_users=0, n_fcc_users=10, days_per_year=1.0
        )
        context = _BuildContext(config)
        non_us = tuple(p for p in context.profiles if p.name != "US")
        with pytest.raises(DatasetError):
            _plan_chunks(config, non_us, chunk_size=8)


class TestArgumentValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ReproError):
            build_world(WorldConfig(seed=5, **SMALL), jobs=0)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ReproError):
            build_world(WorldConfig(seed=5, **SMALL), jobs=-4)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(DatasetError):
            build_world(WorldConfig(seed=5, **SMALL), chunk_size=0)
