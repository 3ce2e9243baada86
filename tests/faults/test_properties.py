"""Property-based robustness of the sanitization/injection contract.

Hypothesis drives the sample-level rules across arbitrary dirty inputs;
the world-level classes pin the three byte-identity invariants the issue
demands: zero-rate injection is a no-op, sanitizing a clean world is a
no-op, and a faulted build is bit-identical for any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import WorldConfig, build_world
from repro.datasets.io import write_survey_csv, write_users_csv
from repro.datasets.sanitize import repair_wraps, sanitize_samples
from repro.faults import FaultConfig, FaultInjector
from repro.faults.injector import RESET_SENTINEL_MBPS, wrap_quantum_mbps

INTERVAL_S = 30.0
QUANTUM = wrap_quantum_mbps(INTERVAL_S)

# One dirty sample: a sentinel, a clean rate, or a rate carrying 1-3
# uncorrected wraps. Drawn per element so arbitrary mixtures appear.
_sample = st.one_of(
    st.just(RESET_SENTINEL_MBPS),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.integers(min_value=1, max_value=3),
    ).map(lambda t: t[0] + t[1] * QUANTUM),
)


@st.composite
def dirty_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rates = np.asarray(
        draw(st.lists(_sample, min_size=n, max_size=n)), dtype=float
    )
    hours = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=23.99, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    bt = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if draw(st.booleans()):
        up = np.asarray(
            draw(st.lists(_sample, min_size=n, max_size=n)), dtype=float
        )
    else:
        up = None
    # Duplicate a random run to exercise dedup.
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        repeats = np.ones(n, dtype=int)
        repeats[i] = draw(st.integers(min_value=2, max_value=4))
        rates = np.repeat(rates, repeats)
        hours = np.repeat(hours, repeats)
        bt = np.repeat(bt, repeats)
        if up is not None:
            up = np.repeat(up, repeats)
    return rates, bt, hours, up


def _sanitize(arrays):
    return sanitize_samples(*arrays, counter_interval_s=INTERVAL_S)


class TestSampleProperties:
    @given(arrays=dirty_arrays())
    @settings(max_examples=60, deadline=None)
    def test_sanitization_is_idempotent(self, arrays):
        once = _sanitize(arrays)
        twice = _sanitize(once)
        for a, b in zip(once, twice):
            if a is None or b is None:
                assert a is b
            else:
                assert np.array_equal(a, b)

    @given(arrays=dirty_arrays())
    @settings(max_examples=60, deadline=None)
    def test_outputs_never_negative(self, arrays):
        rates, _, _, up = _sanitize(arrays)
        assert np.all(rates >= 0)
        if up is not None:
            assert np.all(up >= 0)

    @given(arrays=dirty_arrays())
    @settings(max_examples=60, deadline=None)
    def test_all_arrays_stay_aligned(self, arrays):
        rates, bt, hours, up = _sanitize(arrays)
        assert rates.size == bt.size == hours.size
        if up is not None:
            assert up.size == rates.size

    @given(
        clean=st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        wraps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrap_repair_recovers_clean_rates_exactly(self, clean, wraps):
        clean_arr = np.asarray(clean, dtype=float)
        k = np.asarray(wraps[: len(clean)] + [0] * (len(clean) - len(wraps)))
        corrupted = clean_arr + k * QUANTUM
        repaired = repair_wraps(corrupted, INTERVAL_S)
        assert np.allclose(repaired, clean_arr, atol=1e-9)
        untouched = k == 0
        assert np.array_equal(repaired[untouched], clean_arr[untouched])


class TestZeroRateInjection:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_noop_config_perturbs_nothing(self, seed, n):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.0, 100.0, n)
        hours = rng.uniform(0.0, 24.0, n) % 24.0
        bt = rng.random(n) < 0.2
        up = rng.uniform(0.0, 5.0, n)
        injector = FaultInjector(FaultConfig(), np.random.default_rng(seed + 1))
        out_r, out_bt, out_h, out_up = injector.perturb_dasu_samples(
            rates, bt, hours, up, interval_s=INTERVAL_S
        )
        assert np.array_equal(out_r, rates)
        assert np.array_equal(out_bt, bt)
        assert np.array_equal(out_h, hours)
        assert np.array_equal(out_up, up)
        g_r, _, g_h, _ = injector.perturb_gateway_samples(rates, bt, hours, up)
        assert np.array_equal(g_r, rates)
        assert np.array_equal(g_h, hours)

    def test_noop_config_is_noop(self):
        assert FaultConfig().is_noop


SMALL = dict(n_dasu_users=40, n_fcc_users=10, days_per_year=1.0)


def _world_bytes(world, tmp_path, tag):
    users = tmp_path / f"{tag}-users.csv"
    survey = tmp_path / f"{tag}-survey.csv"
    write_users_csv(world.all_columns, users)
    write_survey_csv(world.survey, survey)
    return users.read_bytes(), survey.read_bytes()


class TestWorldInvariants:
    """The issue's hard acceptance criteria, at the bytes level."""

    @pytest.mark.parametrize("seed", [3, 97])
    def test_zero_rate_injection_is_byte_identical(self, tmp_path, seed):
        clean = build_world(WorldConfig(seed=seed, **SMALL))
        zeroed = build_world(
            WorldConfig(seed=seed, faults=FaultConfig(), **SMALL)
        )
        assert _world_bytes(clean, tmp_path, "clean") == _world_bytes(
            zeroed, tmp_path, "zero"
        )

    def test_sanitizing_a_clean_world_changes_nothing(self, tmp_path):
        clean = build_world(WorldConfig(seed=3, **SMALL))
        sanitized = build_world(WorldConfig(seed=3, sanitize=True, **SMALL))
        assert _world_bytes(clean, tmp_path, "clean") == _world_bytes(
            sanitized, tmp_path, "san"
        )
        report = sanitized.sanitization
        assert report is not None
        assert report.total_dropped == 0
        assert report.total_repaired == 0
        assert report.users_kept == report.users_in

    @pytest.mark.parametrize("profile", ["default", "heavy"])
    def test_faulted_build_deterministic_across_jobs(self, tmp_path, profile):
        from repro.faults import fault_profile

        config = WorldConfig(
            seed=3, faults=fault_profile(profile), sanitize=True, **SMALL
        )
        serial = build_world(config, jobs=1)
        parallel = build_world(config, jobs=4, chunk_size=7)
        assert _world_bytes(serial, tmp_path, "s") == _world_bytes(
            parallel, tmp_path, "p"
        )
        assert (
            serial.sanitization.to_payload()
            == parallel.sanitization.to_payload()
        )

    def test_faulted_world_actually_differs(self, tmp_path):
        from repro.faults import fault_profile

        clean = build_world(WorldConfig(seed=3, **SMALL))
        faulted = build_world(
            WorldConfig(
                seed=3, faults=fault_profile("default"), sanitize=True, **SMALL
            )
        )
        assert _world_bytes(clean, tmp_path, "c") != _world_bytes(
            faulted, tmp_path, "f"
        )
        assert faulted.sanitization.total_dropped > 0

    def test_fault_free_config_payload_unchanged(self):
        # Cache keys hash this payload: clean configs must not mention
        # the new fields, so warm caches from before the fault subsystem
        # (and its golden snapshots) stay valid.
        from repro.datasets.io import config_payload

        payload = config_payload(WorldConfig(seed=3, **SMALL))
        assert "faults" not in payload
        assert "sanitize" not in payload
        dirty = config_payload(
            WorldConfig(seed=3, faults=FaultConfig(), sanitize=True, **SMALL)
        )
        assert "faults" in dirty
        assert dirty["sanitize"] is True

    def test_faulted_config_gets_distinct_cache_key(self):
        from repro.datasets.cache import cache_key
        from repro.faults import fault_profile

        clean = WorldConfig(seed=3, **SMALL)
        faulted = WorldConfig(
            seed=3, faults=fault_profile("default"), sanitize=True, **SMALL
        )
        assert cache_key(clean) != cache_key(faulted)
