"""Shared analysis building blocks."""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.common import (
    CONFOUNDER_COLUMNS,
    binned_demand_curve,
    curve_correlation,
    demand_outcome,
    eligibility_mask,
    matched_experiment,
)
from repro.core.matching import match_pairs_arrays
from repro.exceptions import AnalysisError, MatchingError
from repro.obs.ledger import scoped
from tests.analysis.record_model import from_records
from tests.datasets.test_records import make_observation, make_record


def columns(records):
    return from_records(list(records))


def _with_peak(peak_no_bt_mbps: float):
    """A default observation whose no-BT peak demand is ``peak_no_bt_mbps``."""
    observation = make_observation()
    return dataclasses.replace(
        observation,
        period=dataclasses.replace(
            observation.period, peak_no_bt_mbps=peak_no_bt_mbps
        ),
    )


class TestDemandOutcome:
    def test_peak_no_bt(self, dasu_users):
        outcome = demand_outcome("peak", include_bt=False)
        np.testing.assert_array_equal(
            outcome(dasu_users), dasu_users.current("peak_no_bt_mbps")
        )

    def test_mean_with_bt(self, dasu_users):
        outcome = demand_outcome("mean", include_bt=True)
        np.testing.assert_array_equal(
            outcome(dasu_users), dasu_users.current("mean_mbps")
        )

    def test_unknown_metric(self):
        with pytest.raises(AnalysisError):
            demand_outcome("median", include_bt=False)


class TestStandardConfounders:
    def test_known_names_resolve(self, dasu_users):
        mask = eligibility_mask(dasu_users, ["capacity", "latency", "loss"])
        assert mask.shape == (dasu_users.n_users,)

    def test_unknown_name_rejected(self, dasu_users):
        with pytest.raises(AnalysisError, match="unknown confounder"):
            eligibility_mask(dasu_users, ["weather"])
        with pytest.raises(AnalysisError, match="unknown confounder"):
            matched_experiment(
                "weather",
                dasu_users,
                dasu_users,
                confounders=("capacity", "weather"),
                outcome=demand_outcome("peak", include_bt=False),
            )

    def test_loss_floored(self, dasu_users):
        assert (CONFOUNDER_COLUMNS["loss"](dasu_users) > 0).all()


class TestZeroValuedMarketConfounders:
    """A 0.0 price (free/bundled plan) or 0.0 upgrade cost is a real
    market condition, not a missing value; only an absent value (NaN in
    the columns) marks missing."""

    def test_zero_price_is_not_missing(self):
        users = columns([make_record(price_of_access_usd=0.0)])
        assert CONFOUNDER_COLUMNS["price_of_access"](users)[0] == 0.0

    def test_zero_upgrade_cost_is_not_missing(self):
        users = columns([make_record(upgrade_cost_usd_per_mbps=0.0)])
        assert CONFOUNDER_COLUMNS["upgrade_cost"](users)[0] == 0.0

    def test_none_still_marks_missing(self):
        users = columns(
            [make_record(price_of_access_usd=None, upgrade_cost_usd_per_mbps=None)]
        )
        assert math.isnan(CONFOUNDER_COLUMNS["price_of_access"](users)[0])
        assert math.isnan(CONFOUNDER_COLUMNS["upgrade_cost"](users)[0])

    def test_free_plan_users_survive_matching(self):
        # Two pools of identical free-plan users must pair up instead of
        # being silently dropped as "missing a price".
        control = columns(
            make_record(user_id=f"c{i}", price_of_access_usd=0.0)
            for i in range(4)
        )
        treatment = columns(
            make_record(user_id=f"t{i}", price_of_access_usd=0.0)
            for i in range(4)
        )
        result = matched_experiment(
            "free plans",
            control,
            treatment,
            confounders=("price_of_access",),
            outcome=demand_outcome("peak", include_bt=False),
        )
        assert result.matching.n_control == 4
        assert result.matching.n_treatment == 4
        assert result.matching.n_matched == 4

    def test_zero_cost_upgrades_survive_matching(self):
        control = columns(
            make_record(user_id=f"c{i}", upgrade_cost_usd_per_mbps=0.0)
            for i in range(3)
        )
        treatment = columns(
            make_record(user_id=f"t{i}", upgrade_cost_usd_per_mbps=0.0)
            for i in range(3)
        )
        result = matched_experiment(
            "zero-cost upgrades",
            control,
            treatment,
            confounders=("upgrade_cost",),
            outcome=demand_outcome("mean", include_bt=False),
        )
        assert result.matching.n_matched == 3

    def test_missing_market_value_excluded_before_matching(self):
        # A missing market covariate is NaN in the columns and must be
        # filtered by the eligibility pass — the matcher itself refuses
        # NaN, so reaching it would raise, not mis-pair. The same holds
        # for the non-finite measurements and outcomes only an
        # un-sanitized dataset carries: an infinite latency, a NaN peak.
        control = columns([
            make_record(user_id="c0", price_of_access_usd=None),
            *(
                make_record(user_id=f"c{i}", price_of_access_usd=10.0)
                for i in (1, 2, 3)
            ),
            make_record(
                user_id="c4",
                price_of_access_usd=10.0,
                observations=[make_observation(latency=math.inf)],
            ),
            make_record(
                user_id="c5",
                price_of_access_usd=10.0,
                observations=[_with_peak(math.nan)],
            ),
        ])
        treatment = columns(
            make_record(user_id=f"t{i}", price_of_access_usd=10.0)
            for i in range(4)
        )
        mask = eligibility_mask(
            control,
            ("price_of_access", "latency"),
            demand_outcome("peak", include_bt=False)(control),
        )
        np.testing.assert_array_equal(mask, [False, True, True, True, False, False])
        result = matched_experiment(
            "missing price",
            control,
            treatment,
            confounders=("price_of_access", "latency"),
            outcome=demand_outcome("peak", include_bt=False),
        )
        assert result.matching.n_control == 3
        assert result.matching.n_matched == 3

    def test_nan_reaching_match_pairs_raises(self):
        # The backstop behind the filter above: NaN confounders are a
        # caller bug and must fail loudly inside the matcher.
        control = columns([make_record(user_id="c0", price_of_access_usd=None)])
        treatment = columns([make_record(user_id="t0", price_of_access_usd=10.0)])
        with pytest.raises(MatchingError):
            match_pairs_arrays(
                [CONFOUNDER_COLUMNS["price_of_access"](control)],
                [CONFOUNDER_COLUMNS["price_of_access"](treatment)],
            )

    def test_ledger_counters_recorded(self):
        control = columns(
            make_record(
                user_id=f"c{i}",
                price_of_access_usd=(None if i == 0 else 10.0),
            )
            for i in range(4)
        )
        treatment = columns(
            make_record(user_id=f"t{i}", price_of_access_usd=10.0)
            for i in range(4)
        )
        with scoped() as ledger:
            matched_experiment(
                "accounted",
                control,
                treatment,
                confounders=("price_of_access",),
                outcome=demand_outcome("peak", include_bt=False),
            )
        assert ledger.counters["experiments.run"] == 1
        assert ledger.counters["experiments.users_excluded"] == 1
        # Identical records tie on the outcome, so pairs + ties covers
        # every matched pair regardless of how the sign test splits them.
        assert (
            ledger.counters.get("experiments.pairs", 0)
            + ledger.counters.get("experiments.ties", 0)
            == 3
        )
        assert ledger.counters["matching.runs"] == 1
        assert ledger.counters["matching.pool.control"] == 3
        assert ledger.counters["matching.pool.treatment"] == 4
        assert ledger.counters["matching.pairs"] == 3
        verdicts = (
            ledger.counters.get("experiments.verdicts.rejects_null", 0)
            + ledger.counters.get("experiments.verdicts.null_retained", 0)
        )
        assert verdicts == 1


class TestBinnedDemandCurve:
    def test_points_ordered_by_capacity(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "peak", include_bt=False)
        lows = [p.bin.low for p in curve.points]
        assert lows == sorted(lows)

    def test_bin_members_counted(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "mean", include_bt=True)
        assert sum(p.n_users for p in curve.points) <= dasu_users.n_users
        assert all(p.n_users >= 5 for p in curve.points)

    def test_demand_grows_with_capacity(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "peak", include_bt=False)
        first, last = curve.points[0], curve.points[-1]
        assert last.average > first.average

    def test_correlation_strong(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "peak", include_bt=False)
        assert curve.correlation > 0.8

    def test_ci_contains_average(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "mean", include_bt=False)
        for point in curve.points:
            assert point.ci.low <= point.average <= point.ci.high

    def test_point_for_lookup(self, dasu_users):
        curve = binned_demand_curve(dasu_users, "peak", include_bt=False)
        point = curve.points[2]
        assert curve.point_for(point.center_mbps) == point

    def test_min_users_respected(self, dasu_users):
        loose = binned_demand_curve(dasu_users, "peak", include_bt=False)
        strict = binned_demand_curve(
            dasu_users, "peak", include_bt=False, min_users=50
        )
        assert all(p.n_users >= 50 for p in strict.points)
        # The cut drops exactly the small bins and leaves the rest as is.
        assert strict.points == tuple(p for p in loose.points if p.n_users >= 50)
        assert len(strict.points) < len(loose.points)

    def test_non_finite_demand_left_out(self):
        # Only an un-sanitized dataset carries a NaN or infinite demand;
        # such users drop out of their bin instead of poisoning its mean.
        users = columns(
            make_record(
                user_id=f"u{i}",
                observations=[_with_peak(peak)],
            )
            for i, peak in enumerate([1.0, 2.0, math.nan, math.inf, 3.0])
        )
        (point,) = binned_demand_curve(
            users, "peak", include_bt=False, min_users=1
        ).points
        assert point.n_users == 3
        assert point.average == 2.0


class TestCurveCorrelation:
    def test_too_few_points_is_nan(self):
        assert math.isnan(curve_correlation([]))


def _split_at_8_mbps(users):
    fast = users.capacity_down_mbps > 8.0
    return users.select_users(~fast), users.select_users(fast)


class TestMatchedExperiment:
    def test_basic_run(self, dasu_users):
        low, high = _split_at_8_mbps(dasu_users)
        result = matched_experiment(
            "test",
            low,
            high,
            confounders=("latency", "loss"),
            outcome=demand_outcome("peak", include_bt=False),
        )
        assert result.result.n_pairs > 10
        assert 0.0 <= result.result.fraction_holds <= 1.0

    def test_pairs_respect_caliper(self, dasu_users):
        low, high = _split_at_8_mbps(dasu_users)
        result = matched_experiment(
            "test",
            low,
            high,
            confounders=("latency",),
            outcome=demand_outcome("peak", include_bt=False),
        )
        assert result.matching.pairs
        # Every user has a finite latency, so pairs index the pools.
        for pair in result.matching.pairs:
            ratio = low.latency_ms[pair.control] / high.latency_ms[pair.treatment]
            assert 1 / 1.2501 <= ratio <= 1.2501

    def test_missing_confounders_excluded(self, dasu_users):
        # Users without an upgrade-cost estimate must be dropped, not crash.
        first_half = np.arange(dasu_users.n_users) < dasu_users.n_users // 2
        result = matched_experiment(
            "test",
            dasu_users.select_users(first_half),
            dasu_users.select_users(~first_half),
            confounders=("upgrade_cost",),
            outcome=demand_outcome("mean", include_bt=False),
        )
        eligible = result.matching.n_control + result.matching.n_treatment
        with_cost = int(dasu_users.current("has_upgrade_cost").sum())
        assert eligible == with_cost < dasu_users.n_users
