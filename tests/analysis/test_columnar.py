"""The columnar analysis blocks == a per-record reference, exactly.

``binned_demand_curve``, eligibility filtering, and the matched natural
experiments run on whole columns; the admission criterion is *exact*
agreement with the straight-line record loops of
``tests/analysis/record_oracle.py`` — same points, same pairs (by
user), same distances, same verdicts — not statistical closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.common import (
    CONFOUNDER_COLUMNS,
    binned_demand_curve,
    demand_outcome,
    eligibility_mask,
    matched_experiment,
)
from repro.core.binning import capacity_class_spec, explicit_bins
from repro.exceptions import AnalysisError
from tests.analysis import record_oracle as oracle
from tests.analysis.record_model import from_records, to_records

CONFOUNDERS_ALWAYS = ("capacity", "latency", "loss")
CONFOUNDERS_MARKET = (
    "capacity", "latency", "loss", "price_of_access", "upgrade_cost"
)


@pytest.fixture(scope="module")
def pools(small_world):
    """One record/columnar pool pair split on a real covariate."""
    users = to_records(small_world.dasu.columns)
    control = [u for u in users if not u.bt_user]
    treatment = [u for u in users if u.bt_user]
    return (
        control,
        treatment,
        from_records(control),
        from_records(treatment),
    )


class TestOutcomeArrays:
    @pytest.mark.parametrize("metric", ["peak", "mean"])
    @pytest.mark.parametrize("include_bt", [False, True])
    def test_matches_scalar_outcome(self, pools, metric, include_bt):
        control, _, control_cols, _ = pools
        scalar = oracle.demand_outcome(metric, include_bt)
        np.testing.assert_array_equal(
            demand_outcome(metric, include_bt)(control_cols),
            [scalar(u) for u in control],
        )

    def test_unknown_metric_raises(self):
        with pytest.raises(AnalysisError):
            demand_outcome("median", False)


class TestEligibilityMask:
    def test_matches_object_filter(self, pools):
        control, _, control_cols, _ = pools
        mask = eligibility_mask(control_cols, CONFOUNDERS_MARKET)
        expected = [oracle.eligible(u, CONFOUNDERS_MARKET) for u in control]
        np.testing.assert_array_equal(mask, expected)
        # The market covariates are genuinely missing for some users,
        # otherwise this test exercises nothing.
        assert mask.sum() < len(control)

    def test_outcome_values_participate(self, pools):
        _, _, control_cols, _ = pools
        outcome = np.zeros(control_cols.n_users)
        outcome[0] = np.nan
        mask = eligibility_mask(
            control_cols, CONFOUNDERS_ALWAYS, outcome_values=outcome
        )
        assert not mask[0]

    def test_unknown_confounder_raises(self, pools):
        _, _, control_cols, _ = pools
        with pytest.raises(AnalysisError, match="unknown confounder"):
            eligibility_mask(control_cols, ("capacity", "astrology"))


class TestBinnedDemandCurve:
    @pytest.mark.parametrize(
        "spec",
        [capacity_class_spec(), explicit_bins([(0.0, 4.0), (4.0, 64.0)])],
        ids=["capacity-classes", "coarse"],
    )
    @pytest.mark.parametrize("metric", ["peak", "mean"])
    def test_identical_points(self, small_world, spec, metric):
        users = to_records(small_world.dasu.columns)
        columns = small_world.dasu.columns
        from_records = oracle.binned_demand_curve(users, metric=metric, spec=spec)
        from_columns = binned_demand_curve(columns, metric=metric, spec=spec)
        assert from_records.points == from_columns.points

    def test_min_users_threshold_agrees(self, small_world):
        a = oracle.binned_demand_curve(
            to_records(small_world.dasu.columns), min_users=40
        )
        b = binned_demand_curve(small_world.dasu.columns, min_users=40)
        assert a.points == b.points


class TestMatchedExperiments:
    @pytest.mark.parametrize(
        "confounders",
        [CONFOUNDERS_ALWAYS, CONFOUNDERS_MARKET],
        ids=["always-present", "with-market-covariates"],
    )
    def test_identical_result_pairs_and_counters(self, pools, confounders):
        control, treatment, control_cols, treatment_cols = pools
        outcome_scalar = oracle.demand_outcome("peak", include_bt=False)
        outcome_array = demand_outcome("peak", include_bt=False)
        by_object = oracle.matched_experiment(
            "bt-vs-not", control, treatment, confounders, outcome_scalar
        )
        by_column = matched_experiment(
            "bt-vs-not",
            control_cols,
            treatment_cols,
            confounders,
            outcome_array,
        )
        assert by_object.result == by_column.result
        assert by_object.matching.n_matched == by_column.matching.n_matched
        assert by_object.matching.n_control == by_column.matching.n_control
        assert (
            by_object.matching.n_treatment == by_column.matching.n_treatment
        )
        # Same users paired, in the same order, at the same distances.
        control_idx = np.flatnonzero(
            eligibility_mask(
                control_cols, confounders, outcome_array(control_cols)
            )
        )
        treatment_idx = np.flatnonzero(
            eligibility_mask(
                treatment_cols, confounders, outcome_array(treatment_cols)
            )
        )
        control_ids = control_cols.user_ids
        treatment_ids = treatment_cols.user_ids
        assert by_object.pairs == [
            (control_ids[control_idx[c]], treatment_ids[treatment_idx[t]], d)
            for c, t, d in zip(
                by_column.matching.control.tolist(),
                by_column.matching.treatment.tolist(),
                by_column.matching.distance.tolist(),
            )
        ]

    def test_experiment_produces_pairs(self, pools):
        # Guard against the equivalence above passing vacuously.
        control, treatment, control_cols, treatment_cols = pools
        result = matched_experiment(
            "bt-vs-not",
            control_cols,
            treatment_cols,
            CONFOUNDERS_ALWAYS,
            demand_outcome("peak", include_bt=False),
        )
        assert result.result.n_pairs > 0


# ---------------------------------------------------------------------------
# Fault injection: the analysis agrees with the oracle on a damaged-then-cleaned
# world too, where missing covariates and NaN profiles occur in bulk.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def faulted_pools(faulted_world_default):
    """Record/columnar pool pair from the faulted + sanitized world."""
    users = to_records(faulted_world_default.dasu.columns)
    control = [u for u in users if not u.bt_user]
    treatment = [u for u in users if u.bt_user]
    return (
        control,
        treatment,
        from_records(control),
        from_records(treatment),
    )


class TestFaultedWorldEquivalence:
    def test_match_pairs_arrays_matches_object_path(self, faulted_pools):
        """Core matcher: identical pairs, by user, on faulted pools."""
        from repro.core.matching import match_pairs, match_pairs_arrays

        control, treatment, control_cols, treatment_cols = faulted_pools
        names = CONFOUNDERS_MARKET
        cmask = eligibility_mask(control_cols, names)
        tmask = eligibility_mask(treatment_cols, names)
        # Fault injection must make eligibility a real filter here.
        assert cmask.sum() < len(control)
        eligible_control = [u for u, ok in zip(control, cmask) if ok]
        eligible_treatment = [u for u, ok in zip(treatment, tmask) if ok]
        by_object = match_pairs(
            eligible_control,
            eligible_treatment,
            [oracle.CONFOUNDER_EXTRACTORS[c] for c in names],
        )
        by_arrays = match_pairs_arrays(
            [
                CONFOUNDER_COLUMNS[c](control_cols.select_users(cmask))
                for c in names
            ],
            [
                CONFOUNDER_COLUMNS[c](treatment_cols.select_users(tmask))
                for c in names
            ],
        )
        assert by_arrays.n_matched == by_object.n_matched > 0
        assert by_arrays.n_control == by_object.n_control
        assert by_arrays.n_treatment == by_object.n_treatment
        # Both index the same eligible pools: equal arrays, distances
        # bit for bit.
        assert by_object.control.tolist() == by_arrays.control.tolist()
        assert by_object.treatment.tolist() == by_arrays.treatment.tolist()
        assert by_object.distance.tobytes() == by_arrays.distance.tobytes()

    @pytest.mark.parametrize(
        "confounders",
        [CONFOUNDERS_ALWAYS, CONFOUNDERS_MARKET],
        ids=["always-present", "with-market-covariates"],
    )
    def test_matched_experiment_identical(self, faulted_pools, confounders):
        control, treatment, control_cols, treatment_cols = faulted_pools
        by_object = oracle.matched_experiment(
            "bt-vs-not",
            control,
            treatment,
            confounders,
            oracle.demand_outcome("peak", include_bt=False),
        )
        by_column = matched_experiment(
            "bt-vs-not",
            control_cols,
            treatment_cols,
            confounders,
            demand_outcome("peak", include_bt=False),
        )
        assert by_object.result == by_column.result
        assert by_object.matching.n_matched == by_column.matching.n_matched
        assert by_object.result.n_pairs > 0

    def test_binned_demand_curve_identical(self, faulted_world_default):
        a = oracle.binned_demand_curve(
            to_records(faulted_world_default.dasu.columns), metric="peak"
        )
        b = binned_demand_curve(faulted_world_default.dasu.columns, metric="peak")
        assert a.points == b.points
