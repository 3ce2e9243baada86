"""Extension analyses: usage caps and diurnal profiles."""

import numpy as np
import pytest

from repro.analysis.caps import caps_experiment
from repro.analysis.diurnal import DiurnalProfile, population_diurnal_profile
from repro.behavior.demand import cap_awareness_multiplier
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError, DatasetError
from tests.analysis.record_model import to_records


class TestCapAwareness:
    def test_no_cap_no_effect(self):
        assert cap_awareness_multiplier(5.0, None) == 1.0

    def test_loose_cap_no_effect(self):
        # 1 Mbps latent peak projects ~33 GB/month: a 300 GB cap is moot.
        assert cap_awareness_multiplier(1.0, 300.0) == 1.0

    def test_tight_cap_rations(self):
        multiplier = cap_awareness_multiplier(10.0, 50.0)
        assert multiplier < 1.0

    def test_floor_respected(self):
        assert cap_awareness_multiplier(100.0, 5.0) == pytest.approx(0.35)

    def test_monotone_in_cap(self):
        tight = cap_awareness_multiplier(10.0, 40.0)
        loose = cap_awareness_multiplier(10.0, 200.0)
        assert tight <= loose

    def test_invalid_inputs(self):
        with pytest.raises(DatasetError):
            cap_awareness_multiplier(0.0, 50.0)
        with pytest.raises(DatasetError):
            cap_awareness_multiplier(1.0, 0.0)


class TestCapsExperiment:
    def test_runs_on_world(self, dasu_users):
        result = caps_experiment(dasu_users)
        assert result.n_uncapped > 100
        assert result.n_tight_capped > 10
        assert result.experiment.result.n_pairs > 5

    def test_capped_users_express_less_of_their_need(self, small_world):
        """Ground-truth validation of the rationing mechanism: tightly
        capped households realize a smaller share of their latent need.
        (The matched-experiment version runs at paper scale in the
        benchmarks, where the pair volume supports it.)"""
        truth = small_world.ground_truth

        def expressed_share(user) -> float:
            return user.mean_mbps / truth[user.user_id].need_mbps

        # Caps only bind for households with real demand.
        heavy = [
            u
            for u in to_records(small_world.dasu.columns)
            if truth[u.user_id].need_mbps > 2.0
        ]
        capped = [
            expressed_share(u)
            for u in heavy
            if u.plan_data_cap_gb is not None and u.plan_data_cap_gb < 100
        ]
        uncapped = [
            expressed_share(u) for u in heavy if u.plan_data_cap_gb is None
        ]
        assert len(capped) > 20 and len(uncapped) > 100
        assert np.median(capped) < np.median(uncapped)

    def test_empty_population_rejected(self):
        with pytest.raises(AnalysisError):
            caps_experiment(UserColumns.empty())


class TestDiurnalProfile:
    def test_population_profile_shape(self, dasu_users):
        profile = population_diurnal_profile(dasu_users)
        assert profile.n_periods > 100
        # Residential traffic peaks in the evening, troughs overnight.
        assert 18 <= profile.peak_hour <= 23
        assert 0 <= profile.trough_hour <= 8
        assert profile.peak_to_trough_ratio > 1.5

    def test_dasu_coverage_is_evening_biased(self, small_world):
        dasu = population_diurnal_profile(small_world.dasu.columns)
        fcc = population_diurnal_profile(small_world.fcc.columns)
        assert dasu.coverage_bias() > fcc.coverage_bias()
        assert fcc.coverage_bias() == pytest.approx(1.0, abs=0.05)

    def test_unnormalized_profile_runs(self, dasu_users):
        profile = population_diurnal_profile(dasu_users, normalize=False)
        assert profile.n_periods > 0

    def test_invalid_vector_rejected(self):
        with pytest.raises(AnalysisError):
            DiurnalProfile(
                mean_mbps_by_hour=(1.0,) * 23,
                coverage_by_hour=(1,) * 24,
                n_periods=1,
            )

    def test_empty_population_rejected(self):
        with pytest.raises(AnalysisError):
            population_diurnal_profile(UserColumns.empty())


class TestHourlyProfileStorage:
    def test_profiles_present_on_records(self, small_world):
        users = to_records(small_world.dasu.columns)
        with_profiles = [
            u
            for u in users
            if u.current.hourly_mean_mbps is not None
        ]
        assert len(with_profiles) > len(users) * 0.3

    def test_profiles_survive_csv(self, small_world, tmp_path):
        from repro.datasets.io import read_users_csv, write_users_csv

        subset = small_world.dasu.columns.take(np.arange(100))
        write_users_csv(subset, tmp_path / "users.csv")
        loaded = to_records(read_users_csv(tmp_path / "users.csv"))
        original = sorted(to_records(subset), key=lambda u: u.user_id)
        for a, b in zip(loaded, original):
            pa = a.current.hourly_mean_mbps
            pb = b.current.hourly_mean_mbps
            assert (pa is None) == (pb is None)
            if pa is not None:
                assert np.allclose(
                    np.nan_to_num(np.array(pa), nan=-1.0),
                    np.nan_to_num(np.array(pb), nan=-1.0),
                    rtol=1e-4,
                )
