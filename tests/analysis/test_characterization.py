"""Fig. 1 characterization."""

import numpy as np
import pytest

from repro.analysis.characterization import figure1
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError


@pytest.fixture(scope="module")
def result(dasu_users):
    return figure1(dasu_users)


class TestFigure1:
    def test_cdfs_are_valid(self, result):
        for series in (result.capacity_cdf, result.latency_cdf, result.loss_percent_cdf):
            assert np.all(np.diff(series.values) > 0)
            assert np.all(np.diff(series.cumulative) >= 0)
            assert series.cumulative[-1] == pytest.approx(1.0)

    def test_median_capacity_in_paper_ballpark(self, result):
        # Paper: 7.4 Mbps. Shape target: single-digit megabits.
        assert 2.0 <= result.median_capacity_mbps <= 20.0

    def test_share_below_1mbps(self, result):
        # Paper: ~10%.
        assert 0.03 <= result.share_below_1mbps <= 0.3

    def test_latency_tail(self, result):
        # Paper: top 5% above 500 ms (satellite/wireless).
        assert 0.01 <= result.share_latency_above_500ms <= 0.12

    def test_loss_tail(self, result):
        # Paper: ~14% above 1% loss.
        assert 0.05 <= result.share_loss_above_1pct <= 0.3

    def test_most_users_have_low_loss(self, result):
        assert result.share_loss_below_0_1pct >= 0.4

    def test_summary_rows_structure(self, result):
        rows = result.summary_rows()
        assert len(rows) == 9
        for label, paper, measured in rows:
            assert isinstance(label, str)
            assert np.isfinite(measured)

    def test_empty_users_rejected(self):
        with pytest.raises(AnalysisError):
            figure1(UserColumns.empty())
