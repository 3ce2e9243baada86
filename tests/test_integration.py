"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro.analysis import (
    capacity,
    characterization,
    longitudinal,
    price,
    quality,
    upgrade_cost,
)
from repro.datasets import WorldConfig, build_world
from repro.datasets.io import read_users_csv, write_users_csv
from tests.analysis.record_model import to_records


class TestEveryAnalysisRuns:
    """Every paper table/figure entry point runs on one world."""

    def test_full_pipeline(self, small_world):
        dasu = small_world.dasu.columns
        fcc = small_world.fcc.columns
        survey = small_world.survey

        assert characterization.figure1(dasu).n_users == dasu.n_users
        assert capacity.figure2(dasu).min_correlation > 0.5
        assert capacity.figure3(dasu, fcc).fcc_peak.points
        assert capacity.table1(dasu).n_observations > 0
        assert capacity.figure4(dasu).mean_ratio_at_median > 0
        assert capacity.figure5(dasu).cells
        assert capacity.table2(dasu, "dasu").rows
        assert longitudinal.figure6(dasu).year_curves
        assert price.table3(dasu).group_sizes[0] > 0
        assert len(price.table4(dasu, survey).rows) == 4
        assert len(price.figure7(dasu).countries) == 4
        assert price.figure8(dasu, min_users=10).groups
        assert price.figure9(dasu, min_users=10).groups
        assert upgrade_cost.figure10(survey).n_countries > 10
        assert len(upgrade_cost.table5(survey).rows) == 9
        assert upgrade_cost.table6(dasu).group_sizes[1] > 0
        assert quality.table7(dasu).rows
        assert quality.figure11(dasu).india_median_ndt_ms > 0
        assert quality.table8(dasu).rows
        assert quality.figure12(dasu).india_median_loss_pct > 0


class TestAnalysisNeverTouchesGroundTruth:
    def test_analyses_work_from_persisted_records_alone(
        self, small_world, tmp_path
    ):
        """Round-tripping through CSV (which cannot carry ground truth)
        reproduces the analysis results exactly — proof the pipeline uses
        measurements only."""
        subset = small_world.dasu.columns.take(np.arange(400))
        path = tmp_path / "users.csv"
        write_users_csv(subset, path)
        loaded = read_users_csv(path)

        direct = capacity.table1(subset)
        from_disk = capacity.table1(loaded)
        assert direct.average.n_pairs == from_disk.average.n_pairs
        assert direct.average.n_holds == from_disk.average.n_holds
        assert direct.peak.p_value == pytest.approx(from_disk.peak.p_value)


class TestDeterminism:
    def test_analysis_results_reproducible(self):
        config = WorldConfig(
            seed=31, n_dasu_users=250, n_fcc_users=0, days_per_year=1.0
        )
        a = build_world(config)
        b = build_world(config)
        fa = characterization.figure1(a.dasu.columns)
        fb = characterization.figure1(b.dasu.columns)
        assert fa.median_capacity_mbps == fb.median_capacity_mbps
        assert fa.median_latency_ms == fb.median_latency_ms
        ta = capacity.table1(a.dasu.columns)
        tb = capacity.table1(b.dasu.columns)
        assert ta.peak.n_holds == tb.peak.n_holds


class TestCrossDatasetConsistency:
    def test_user_capacities_consistent_with_market(self, small_world):
        """Measured capacities respect each country's plan ceilings
        (modulo technology limits and small measurement overshoot)."""
        for user in to_records(small_world.dasu.columns)[:500]:
            market = small_world.survey.market(user.country)
            assert user.capacity_down_mbps <= market.max_capacity_mbps * 1.2

    def test_covariates_match_survey(self, small_world):
        prices = small_world.survey.price_of_access()
        for user in to_records(small_world.dasu.columns)[:500]:
            assert user.price_of_access_usd == pytest.approx(
                prices[user.country]
            )

    def test_switchers_upgrade_within_market(self, small_world):
        for user in to_records(small_world.dasu.columns):
            if not user.switched_service:
                continue
            market = small_world.survey.market(user.country)
            for obs in user.observations:
                assert (
                    obs.period.capacity_mbps
                    <= market.max_capacity_mbps * 1.2
                )


class TestHeadlineFindings:
    """The paper's summary claims, end to end, on the shared world."""

    def test_capacity_drives_demand_but_saturates(self, small_world):
        fig2 = capacity.figure2(small_world.dasu.columns)
        assert fig2.min_correlation > 0.8
        assert fig2.diminishing_returns()

    def test_users_rarely_fully_utilize(self, small_world):
        utils = np.array(
            [u.peak_utilization for u in to_records(small_world.dasu.columns)]
        )
        # Sec. 3.1: average p95 utilization between 10 and 48%.
        assert 0.08 <= float(np.mean(utils)) <= 0.55

    def test_upgrades_raise_demand(self, small_world):
        t1 = capacity.table1(small_world.dasu.columns)
        assert t1.peak.fraction_holds > 0.52

    def test_quality_suppresses_demand(self, small_world):
        # With only ~25 India-US pairs at this world size, the share is
        # noisy (sd ~0.10); the paper-scale benchmark asserts > 0.5 with
        # ~120 pairs.
        f11 = quality.figure11(small_world.dasu.columns)
        assert f11.india_lower_demand_share >= 0.40
