"""Sec. 7: connection quality (Tables 7-8, Figs. 11-12)."""

import numpy as np
import pytest

from repro.analysis import quality


class TestTable7:
    def test_group_sizes_cover_bins(self, dasu_users):
        result = quality.table7(dasu_users)
        assert len(result.group_sizes) == 5
        assert result.group_sizes[-1] > 5  # the (512, 2048] control

    def test_rows_reference_control(self, dasu_users):
        result = quality.table7(dasu_users)
        for row in result.rows:
            assert row.control_bin.low == 512.0
            assert row.treatment_bin.high <= 512.0

    def test_lower_latency_users_demand_more(self, dasu_users):
        result = quality.table7(dasu_users)
        fractions = [
            r.experiment.result.fraction_holds
            for r in result.rows
            if r.experiment.result.n_pairs >= 10
        ]
        if fractions:
            assert np.mean(fractions) > 0.5

    def test_paper_values_attached(self, dasu_users):
        result = quality.table7(dasu_users)
        for row in result.rows:
            assert 50.0 < row.paper_percent < 70.0


class TestFigure11:
    @pytest.fixture(scope="class")
    def fig11(self, dasu_users):
        return quality.figure11(dasu_users)

    def test_india_latency_much_higher(self, fig11):
        assert fig11.india_median_ndt_ms > 1.5 * fig11.other_median_ndt_ms

    def test_nearly_all_india_above_100ms(self, fig11):
        # Paper: nearly every Indian user has latency above 100 ms.
        assert fig11.share_india_above_100ms > 0.75

    def test_india_demands_less_than_matched_us(self, fig11):
        # Paper: 62% of matched pairs (p < 0.001). At this world size
        # only ~25 pairs exist (sd ~0.10 even if the true share is 0.62),
        # so this is a loose sanity bound; the paper-scale benchmark
        # asserts the strict > 0.5 with ~120 pairs.
        assert fig11.india_lower_demand_share >= 0.40

    def test_web_and_ndt14_cdfs_present(self, fig11):
        assert fig11.india_web_cdf is not None
        assert fig11.other_web_cdf is not None
        assert fig11.india_ndt14_cdf is not None

    def test_web_latency_tracks_ndt(self, fig11):
        # The Fig. 11 validation: the web-latency distribution is similar
        # to the NDT one for the same population.
        india_ndt = fig11.india_ndt_cdf[0]
        india_web = fig11.india_web_cdf[0]
        assert np.median(india_web) == pytest.approx(
            np.median(india_ndt), rel=0.6
        )


class TestTable8:
    def test_rows_present(self, dasu_users):
        result = quality.table8(dasu_users)
        assert len(result.rows) >= 2

    def test_lower_loss_users_demand_more(self, dasu_users):
        result = quality.table8(dasu_users)
        fractions = [
            r.experiment.result.fraction_holds
            for r in result.rows
            if r.experiment.result.n_pairs >= 10
        ]
        assert fractions
        assert np.mean(fractions) > 0.5

    def test_group_sizes(self, dasu_users):
        result = quality.table8(dasu_users)
        assert len(result.group_sizes) == 4
        assert sum(result.group_sizes) > dasu_users.n_users * 0.5


class TestFigure12:
    def test_india_loss_higher(self, dasu_users):
        result = quality.figure12(dasu_users)
        assert result.india_median_loss_pct > 3 * result.other_median_loss_pct

    def test_cdfs_valid(self, dasu_users):
        result = quality.figure12(dasu_users)
        for xs, ps in (result.india_loss_pct_cdf, result.other_loss_pct_cdf):
            assert ps[-1] == pytest.approx(1.0)
