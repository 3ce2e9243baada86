"""Property-based tests on the core invariants (hypothesis)."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.binning import capacity_class, capacity_class_bounds
from repro.core.experiments import NaturalExperiment
from repro.core.matching import match_pairs
from repro.core.metrics import demand_summary
from repro.core.regression import fit_price_capacity
from repro.core.stats import (
    binomial_sf,
    binomial_test_greater,
    ecdf,
    mean_confidence_interval,
    pearson_r,
)
from repro.measurement.upnp import deltas_from_readings
from repro.units import UINT32_WRAP, bytes_for_rate, rate_mbps
from tests.core.scalar_reference import caliper_compatible, sign_test

# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


@given(
    mbps=st.floats(min_value=0.001, max_value=10_000.0),
    interval=st.floats(min_value=1.0, max_value=3600.0),
)
def test_rate_round_trip(mbps, interval):
    """bytes_for_rate and rate_mbps invert each other (up to the one
    byte lost to integer truncation, i.e. 8e-6/interval Mbps)."""
    n_bytes = bytes_for_rate(mbps, interval)
    recovered = rate_mbps(n_bytes, interval)
    assert abs(recovered - mbps) <= 8.0e-6 / interval + 1e-9 * mbps


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


@given(capacity=st.floats(min_value=1e-3, max_value=2_000.0))
def test_capacity_class_contains_its_value(capacity):
    """Every capacity falls inside the bounds of its own class."""
    k = capacity_class(capacity)
    bounds = capacity_class_bounds(k)
    if capacity > bounds.high or capacity <= bounds.low:
        # Only the sub-base convention is allowed to break containment.
        assert capacity <= 0.1
        assert k == 1


@given(capacity=st.floats(min_value=0.11, max_value=1_000.0))
def test_capacity_class_monotone(capacity):
    """Doubling the capacity advances the class by exactly one."""
    assert capacity_class(capacity * 2.0) == capacity_class(capacity) + 1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=1, max_value=2_000),
    data=st.data(),
)
def test_binomial_sf_matches_scipy(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    p = data.draw(st.floats(min_value=0.01, max_value=0.99))
    ours = binomial_sf(k, n, p)
    theirs = scipy.stats.binom.sf(k - 1, n, p)
    # Deep tails (p-values below ~1e-250) differ between scipy's betainc
    # route and our summed-PMF route at a few parts in 1e7.
    assert ours == pytest.approx(theirs, rel=1e-6, abs=1e-250)


@given(
    n=st.integers(min_value=1, max_value=500),
    data=st.data(),
)
def test_binomial_test_p_value_in_unit_interval(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    result = binomial_test_greater(k, n)
    assert 0.0 <= result.p_value <= 1.0


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50
    )
)
def test_confidence_interval_brackets_mean(values):
    ci = mean_confidence_interval(values)
    assert ci.low <= ci.center <= ci.high
    assert ci.center == pytest.approx(float(np.mean(values)), abs=1e-6)


@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=100
    )
)
def test_ecdf_properties(values):
    xs, ps = ecdf(values)
    assert np.all(np.diff(xs) > 0)  # strictly increasing support
    assert np.all(np.diff(ps) > 0)  # strictly increasing cumulative mass
    assert ps[-1] == pytest.approx(1.0)
    assert ps[0] > 0.0


@given(
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=3,
        max_size=50,
    )
)
def test_pearson_bounded(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    r = pearson_r(x, y)
    if not math.isnan(r):
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Demand metrics
# ---------------------------------------------------------------------------


@given(
    rates=st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200
    )
)
def test_demand_summary_bounds(rates):
    summary = demand_summary(rates)
    # Tolerance of a few ulps: numpy's pairwise summation can land the
    # mean a hair outside [min, max] for pathological float inputs.
    lo, hi = min(rates) * (1 - 1e-12) - 1e-12, max(rates) * (1 + 1e-12) + 1e-12
    assert lo <= summary.mean_mbps <= hi
    assert lo <= summary.peak_mbps <= hi
    assert summary.n_samples == len(rates)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@given(
    a=st.floats(min_value=0.0, max_value=1e6),
    b=st.floats(min_value=0.0, max_value=1e6),
)
def test_caliper_symmetric(a, b):
    assert caliper_compatible(a, b) == caliper_compatible(b, a)


@given(
    control=st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=0, max_size=30
    ),
    treatment=st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=0, max_size=30
    ),
)
@settings(deadline=None)
def test_matching_invariants(control, treatment):
    c_units = [{"v": v} for v in control]
    t_units = [{"v": v} for v in treatment]
    summary = match_pairs(c_units, t_units, [lambda u: u["v"]])
    # 1:1 without replacement.
    assert summary.n_matched <= min(len(control), len(treatment))
    seen_c = summary.control.tolist()
    seen_t = summary.treatment.tolist()
    assert len(seen_c) == len(set(seen_c)) == summary.n_matched
    assert len(seen_t) == len(set(seen_t)) == summary.n_matched
    # Every pair respects the caliper.
    for c, t in zip(seen_c, seen_t):
        assert caliper_compatible(c_units[c]["v"], t_units[t]["v"])


# ---------------------------------------------------------------------------
# Natural experiments
# ---------------------------------------------------------------------------


#: Outcome values: plain floats, signed zeros, infinities and NaN.
outcome_value = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1.0)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(
    outcomes=st.lists(
        st.one_of(
            st.tuples(outcome_value, outcome_value),
            # An exact tie (NaN "ties" with nothing, itself included).
            outcome_value.map(lambda v: (v, v)),
        ),
        min_size=0,
        max_size=200,
    )
)
def test_experiment_accounting(outcomes):
    experiment = NaturalExperiment("prop")
    result = experiment.evaluate(
        np.array([c for c, _ in outcomes], dtype=float),
        np.array([t for _, t in outcomes], dtype=float),
    )
    # The array sign test is the per-pair loop, count for count and
    # p-value bit for bit, with every count a Python int.
    reference = sign_test(experiment, outcomes)
    assert result == reference
    assert result.p_value.hex() == reference.p_value.hex()
    for count in (result.n_pairs, result.n_holds, result.n_ties):
        assert type(count) is int
    assert result.n_pairs + result.n_ties == len(outcomes)
    assert 0 <= result.n_holds <= result.n_pairs
    assert 0.0 <= result.p_value <= 1.0
    # The verdict is the conjunction of its two components.
    assert result.rejects_null == (
        result.statistically_significant and result.practically_important
    )


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


@given(
    slope=st.floats(min_value=-50.0, max_value=50.0),
    intercept=st.floats(min_value=-100.0, max_value=100.0),
    caps=st.lists(
        st.floats(min_value=0.1, max_value=500.0), min_size=2, max_size=30
    ),
)
def test_regression_recovers_exact_line(slope, intercept, caps):
    # A capacity spread of a few ULPs (e.g. [0.1, nextafter(0.1)]) makes
    # the normal equations ill-conditioned far beyond the tolerances
    # below; exact-line recovery is only a fair ask on a real spread.
    assume(max(caps) - min(caps) >= 1e-2)
    prices = [intercept + slope * c for c in caps]
    fit = fit_price_capacity(caps, prices)
    assert fit.slope_usd_per_mbps == pytest.approx(slope, rel=1e-6, abs=1e-6)
    assert fit.intercept_usd == pytest.approx(intercept, rel=1e-6, abs=1e-4)


# ---------------------------------------------------------------------------
# UPnP counter correction
# ---------------------------------------------------------------------------


@given(
    start=st.integers(min_value=0, max_value=UINT32_WRAP - 1),
    deltas=st.lists(
        st.integers(min_value=0, max_value=UINT32_WRAP // 2 - 1),
        min_size=1,
        max_size=50,
    ),
)
def test_upnp_wrap_correction_recovers_deltas(start, deltas):
    """Without resets, every (sub-half-range) delta is recovered exactly."""
    readings = [start]
    value = start
    for delta in deltas:
        value = (value + delta) % UINT32_WRAP
        readings.append(value)
    recovered = deltas_from_readings(np.array(readings))
    assert list(recovered) == deltas
