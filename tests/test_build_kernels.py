"""The builder's per-household kernels against their plain references.

Each kernel must return the same bits as the straight-line code in
:mod:`tests.build_kernel_oracle` and leave the random generator in the
same state, so a world built with the kernels is byte-identical to one
built without them (``tests/test_golden_build.py`` pins that end to end).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.demand import DemandProcess
from repro.behavior.profiles import sample_profile
from repro.core.stats import percentile
from repro.datasets.records import hourly_profile
from repro.exceptions import MeasurementError
from repro.market.plans import PlanTechnology
from repro.measurement.dasu import DasuClient, DasuVantage
from repro.measurement.ndt import NdtClient
from repro.network.link import AccessLink
from repro.network.path import NetworkPath
from repro.traffic.generator import IDLE_SHARE, UsageSeries, generate_usage_series
from tests import build_kernel_oracle as oracle


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _same_profile(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return len(got) == 24 and _bits(got) == _bits(want)


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@contextlib.contextmanager
def _quiet():
    """Silence the empty-slice warnings both sides raise at min 0."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


# ---------------------------------------------------------------- percentile

_special = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]
)
_values = st.lists(
    st.one_of(_special, st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1,
    max_size=40,
)
_q = st.one_of(
    st.sampled_from([0.0, -0.0, 100.0, 50.0, 95.0, 0, 100, 25]),
    st.floats(min_value=0.0, max_value=100.0),
)


class TestPercentile:
    @settings(max_examples=400, deadline=None)
    @given(values=_values, q=_q)
    def test_matches_numpy_bits(self, values, q):
        with np.errstate(all="ignore"):
            assert _bits(percentile(values, q)) == _bits(
                oracle.percentile(values, q)
            )

    @pytest.mark.parametrize("q", [0.0, 37.5, 95.0, 100.0])
    def test_single_value(self, q):
        for value in (3.0, -0.0, 0.0, math.inf, math.nan):
            with np.errstate(all="ignore"):
                assert _bits(percentile([value], q)) == _bits(
                    oracle.percentile([value], q)
                )

    def test_ties_and_signed_zeros(self):
        values = [0.0, -0.0, -0.0, 0.0, 1.0, 1.0, -0.0]
        for q in np.linspace(0.0, 100.0, 41).tolist() + [-0.0]:
            assert _bits(percentile(values, q)) == _bits(
                oracle.percentile(values, q)
            )

    def test_returns_python_float(self):
        assert type(percentile(np.arange(10.0), 95.0)) is float

    def test_other_q_types_take_numpy_path(self):
        values = np.random.default_rng(0).normal(size=33)
        q = np.float32(95.0)
        assert percentile(values, q) == float(np.percentile(values, q))


# ------------------------------------------------------------ hourly_profile


class TestHourlyProfile:
    @pytest.mark.parametrize("min_samples", [0, 1, 5])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_masked_means(self, min_samples, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4000))
        rates = rng.gamma(0.5, 3.0, n) * rng.choice([1e-3, 1.0, 1e3])
        hours = rng.uniform(-3.0, 27.0, n)
        if seed % 2:
            hours = np.sort(hours)
        with _quiet():
            got = hourly_profile(rates, hours, min_samples)
            want = oracle.hourly_profile(rates, hours, min_samples)
        assert _same_profile(got, want)

    def test_bucket_edges(self):
        hours = np.array(
            [23.999999999, 24.0, -0.5, -1e-12, 0.0, 12.5, 47.99]
            + [float(h) + 0.25 for h in range(24)]
        )
        rates = np.arange(1.0, hours.size + 1.0)
        for min_samples in (0, 1, 2):
            with _quiet():
                got = hourly_profile(rates, hours, min_samples)
                want = oracle.hourly_profile(rates, hours, min_samples)
            assert _same_profile(got, want)

    @pytest.mark.parametrize("min_samples", [0, 1, 5])
    def test_sparse_coverage_is_none(self, min_samples):
        hours = np.repeat(np.arange(11.0) + 0.5, 6)
        rates = np.ones(hours.size)
        with _quiet():
            assert hourly_profile(rates, hours, min_samples) is None
            assert oracle.hourly_profile(rates, hours, min_samples) is None

    def test_empty_is_none(self):
        assert hourly_profile([], []) is None


# ------------------------------------------------------------ sample_profile


@pytest.mark.parametrize("seed", [0, 1, 2014])
def test_sample_profile_matches_choice(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5000):
        assert sample_profile(fast) is oracle.sample_profile(slow)
    assert fast.random() == slow.random()


# ----------------------------------------------------- generate_usage_series


def _demand(bt: bool, activity: float = 0.6, sigma: float = 1.2) -> DemandProcess:
    return DemandProcess(
        offered_peak_mbps=3.0,
        ceiling_mbps=12.0,
        activity_level=activity,
        burstiness_sigma=sigma,
        rate_median_share=0.4,
        bt_user=bt,
        upload_share=0.08,
        up_ceiling_mbps=1.5,
    )


def _same_series(got: UsageSeries, want: UsageSeries) -> bool:
    return (
        got.interval_s == want.interval_s
        and got.start_hour == want.start_hour
        and _bits(got.rates_mbps) == _bits(want.rates_mbps)
        and _bits(got.up_rates_mbps) == _bits(want.up_rates_mbps)
        and np.array_equal(got.bt_active, want.bt_active)
    )


class TestGenerateUsageSeries:
    @pytest.mark.parametrize("bt", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_session_loop(self, bt, seed):
        demand = _demand(bt, sigma=0.5 + 0.3 * seed)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_usage_series(demand, 1.5, 30.0, fast, start_hour=7.25)
        want = oracle.generate_usage_series(demand, 1.5, 30.0, slow, start_hour=7.25)
        assert _same_series(got, want)
        assert _state(fast) == _state(slow)

    @pytest.mark.parametrize("bt", [False, True])
    def test_window_without_live_sessions(self, bt):
        # An almost-idle household keeps no session on a short window.
        demand = _demand(bt, activity=1e-12)
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        got = generate_usage_series(demand, 0.01, 30.0, fast)
        want = oracle.generate_usage_series(demand, 0.01, 30.0, slow)
        if not bt:
            # Idle flicker only: no session lifted any sample.
            assert got.rates_mbps.max() <= 2 * demand.offered_peak_mbps * IDLE_SHARE
        assert _same_series(got, want)
        assert _state(fast) == _state(slow)

    def test_coarse_grid_skips_sessions_between_samples(self):
        # One-hour samples: short sessions fall between two midpoints.
        demand = _demand(False)
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        got = generate_usage_series(demand, 3.0, 3600.0, fast)
        want = oracle.generate_usage_series(demand, 3.0, 3600.0, slow)
        assert _same_series(got, want)
        assert _state(fast) == _state(slow)


# ------------------------------------------------------------- NDT campaign


def _path(tech: PlanTechnology, rtt: float = 30.0, loss: float = 0.002) -> NetworkPath:
    link = AccessLink(25.0, 3.0, tech, rtt, loss)
    return NetworkPath(link, 40.0, 5.0, 0.0005)


class TestNdtCampaign:
    @pytest.mark.parametrize(
        "tech, rtt",
        [
            (PlanTechnology.CABLE, 30.0),
            (PlanTechnology.SATELLITE, 600.0),
            (PlanTechnology.WIRELESS, 250.0),
        ],
    )
    @pytest.mark.parametrize("cross", [0.0, 4.0, 60.0])
    def test_matches_loop_of_tests(self, tech, rtt, cross):
        path = _path(tech, rtt)
        fast, slow = np.random.default_rng(17), np.random.default_rng(17)
        got = NdtClient(fast).run_tests(
            path, 25, (3.0, 9.0), busy_probability=0.5,
            typical_cross_traffic_mbps=cross,
        )
        want = oracle.ndt_campaign(
            slow, path, 25, (3.0, 9.0), busy_probability=0.5,
            typical_cross_traffic_mbps=cross,
        )
        assert got == want
        assert _state(fast) == _state(slow)

    def test_run_test_matches_reference(self):
        path = _path(PlanTechnology.SATELLITE, 600.0)
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        client = NdtClient(fast)
        for day, cross in [(0.5, 0.0), (1.5, 3.0), (2.5, 40.0)]:
            assert client.run_test(path, day, cross) == oracle.ndt_test(
                slow, path, day, cross
            )
        assert _state(fast) == _state(slow)

    def test_negative_cross_traffic_rejected(self):
        client = NdtClient(np.random.default_rng(0))
        with pytest.raises(MeasurementError, match="cross traffic"):
            client.run_tests(
                _path(PlanTechnology.CABLE), 3, (0.0, 1.0),
                typical_cross_traffic_mbps=-0.5,
            )

    @pytest.mark.parametrize("p", [-0.01, 1.01, math.nan])
    def test_busy_probability_outside_unit_interval_rejected(self, p):
        client = NdtClient(np.random.default_rng(0))
        with pytest.raises(MeasurementError, match="busy probability"):
            client.run_tests(
                _path(PlanTechnology.CABLE), 3, (0.0, 1.0),
                busy_probability=p, typical_cross_traffic_mbps=2.0,
            )

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_busy_probability_bounds_accepted(self, p):
        fast, slow = np.random.default_rng(8), np.random.default_rng(8)
        path = _path(PlanTechnology.DSL)
        got = NdtClient(fast).run_tests(
            path, 6, (0.0, 1.0), busy_probability=p,
            typical_cross_traffic_mbps=2.0,
        )
        want = oracle.ndt_campaign(
            slow, path, 6, (0.0, 1.0), busy_probability=p,
            typical_cross_traffic_mbps=2.0,
        )
        assert got == want

    def test_rejection_draws_nothing(self):
        rng = np.random.default_rng(4)
        before = _state(rng)
        with pytest.raises(MeasurementError):
            NdtClient(rng).run_tests(
                _path(PlanTechnology.CABLE), 3, (0.0, 1.0),
                busy_probability=2.0,
            )
        assert _state(rng) == before


# ---------------------------------------------------------------- Dasu hours


@dataclasses.dataclass(frozen=True)
class _AllHoursSeries(UsageSeries):
    """A series that computes every sample's hour, then indexes it."""

    def hours_at(self, slots: np.ndarray) -> np.ndarray:
        return oracle.series_hours(self)[slots]


class TestDasuHours:
    @pytest.mark.parametrize("start_hour", [0.0, 5.37, 23.99])
    def test_hours_at_matches_full_grid(self, start_hour):
        series = generate_usage_series(
            _demand(False), 2.0, 30.0, np.random.default_rng(1),
            start_hour=start_hour,
        )
        slots = np.sort(
            np.random.default_rng(2).choice(series.n_samples, 700, replace=False)
        )
        assert _bits(series.hours_at(slots)) == _bits(
            oracle.series_hours(series)[slots]
        )
        assert _bits(series.hours()) == _bits(oracle.series_hours(series))

    @pytest.mark.parametrize("vantage", list(DasuVantage))
    @pytest.mark.parametrize("bt", [False, True])
    def test_collect_matches_full_grid_hours(self, vantage, bt):
        series = generate_usage_series(
            _demand(bt), 3.0, 30.0, np.random.default_rng(6), start_hour=19.5
        )
        reference = _AllHoursSeries(**dataclasses.asdict(series))
        got = DasuClient(vantage, np.random.default_rng(7)).collect(series)
        want = DasuClient(vantage, np.random.default_rng(7)).collect(reference)
        assert got.n_samples > 0
        assert _bits(got.hours) == _bits(want.hours)
        assert _bits(got.rates_mbps) == _bits(want.rates_mbps)
        assert np.array_equal(got.bt_active, want.bt_active)
