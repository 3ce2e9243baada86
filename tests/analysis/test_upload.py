"""Upload-direction analyses."""

import numpy as np
import pytest

from repro.analysis.upload import seeding_experiment, upload_asymmetry
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError
from tests.analysis.record_model import to_records


class TestUploadMeasurements:
    def test_most_users_carry_uploads(self, small_world):
        users = to_records(small_world.dasu.columns)
        with_up = [u for u in users if u.mean_up_mbps is not None]
        assert len(with_up) > len(users) * 0.9

    def test_uploads_below_downloads_generally(self, small_world):
        ratios = [
            u.mean_up_mbps / u.mean_mbps
            for u in to_records(small_world.dasu.columns)
            if u.mean_up_mbps is not None and u.mean_mbps > 0
        ]
        assert np.median(ratios) < 0.5

    def test_upload_peak_bounded_by_upstream_provisioning(self, small_world):
        for user in to_records(small_world.dasu.columns)[:300]:
            if user.peak_up_mbps is not None:
                # Uplinks are provisioned far below downlinks.
                assert user.peak_up_mbps <= user.capacity_down_mbps


class TestUploadAsymmetry:
    def test_summary(self, dasu_users):
        result = upload_asymmetry(dasu_users)
        assert result.n_users > 100
        assert 0.0 < result.median_ratio < 1.0
        assert result.p90_ratio >= result.median_ratio

    def test_bt_users_less_asymmetric(self, dasu_users):
        result = upload_asymmetry(dasu_users)
        assert result.median_ratio_bt is not None
        assert result.median_ratio_non_bt is not None
        assert result.median_ratio_bt > result.median_ratio_non_bt

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            upload_asymmetry(UserColumns.empty())


class TestSeedingExperiment:
    def test_bt_households_upload_more(self, dasu_users):
        result = seeding_experiment(dasu_users)
        assert result.result.n_pairs > 20
        assert result.result.fraction_holds > 0.6

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            seeding_experiment(UserColumns.empty())
