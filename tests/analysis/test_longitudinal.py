"""Sec. 4: longitudinal trends (Fig. 6)."""

import pytest

from repro.analysis import longitudinal
from repro.exceptions import AnalysisError


@pytest.fixture(scope="module")
def fig6(dasu_users):
    return longitudinal.figure6(dasu_users)


class TestYearObservations:
    def test_partition_by_year(self, dasu_users):
        totals = 0
        for year in (2011, 2012, 2013):
            totals += len(longitudinal.year_observations(dasu_users, year))
        assert totals == dasu_users.n_rows

    def test_each_year_populated(self, dasu_users):
        for year in (2011, 2012, 2013):
            assert len(longitudinal.year_observations(dasu_users, year)) > 50


class TestFigure6:
    def test_three_year_curves(self, fig6):
        assert [yc.year for yc in fig6.year_curves] == [2011, 2012, 2013]
        for yc in fig6.year_curves:
            assert yc.curve.points

    def test_demand_per_class_stationary(self, fig6):
        # The paper's headline: no significant change at any given speed
        # tier. Allow at most one borderline class (the paper itself
        # notes a slight increase at the very fast end).
        assert len(fig6.classes_rejecting_null()) <= max(
            2, len(fig6.per_class_experiments) // 3
        )
        assert fig6.cross_year_experiment.fraction_holds < 0.56

    def test_per_class_experiments_cover_classes(self, fig6):
        assert len(fig6.per_class_experiments) >= 3

    def test_class_drift_bounded(self, fig6):
        # Class averages should stay within ~2x across the window
        # (log-ratio < ~0.7), far from the 4x global traffic growth.
        assert fig6.max_class_drift() < 0.8

    def test_experiment_has_pairs(self, fig6):
        assert fig6.cross_year_experiment.n_pairs > 50

    def test_too_few_years_rejected(self, dasu_users):
        with pytest.raises(AnalysisError):
            longitudinal.figure6(dasu_users, years=(2011,))

    def test_mean_variant_runs(self, dasu_users):
        result = longitudinal.figure6(dasu_users, metric="mean", include_bt=True)
        assert result.year_curves[0].curve.metric == "mean"
