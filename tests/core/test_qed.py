"""Quasi-experimental design."""

import numpy as np
import pytest

from repro.core.qed import QuasiExperiment, stratum_key
from repro.exceptions import ExperimentError


def by_v(u):
    return u["v"]


def by_w(u):
    return u["w"]


class TestStratumKey:
    def test_same_band_same_key(self):
        a = stratum_key({"v": 10.0}, [by_v])
        b = stratum_key({"v": 11.0}, [by_v])
        assert a == b

    def test_decade_apart_differs(self):
        a = stratum_key({"v": 1.0}, [by_v])
        b = stratum_key({"v": 100.0}, [by_v])
        assert a != b

    def test_resolution(self):
        # With 10 bins per decade, 10 and 13 separate (a ~26% gap
        # crosses a bin edge at that resolution).
        a = stratum_key({"v": 10.0}, [by_v], bins_per_decade=10)
        b = stratum_key({"v": 13.0}, [by_v], bins_per_decade=10)
        assert a != b

    def test_multiple_confounders(self):
        key = stratum_key({"v": 10.0, "w": 0.5}, [by_v, by_w])
        assert len(key) == 2

    def test_invalid_values_rejected(self):
        with pytest.raises(ExperimentError):
            stratum_key({"v": -1.0}, [by_v])

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ExperimentError):
            stratum_key({"v": 1.0}, [by_v], bins_per_decade=0)


class TestQuasiExperiment:
    def test_detects_clear_effect(self):
        rng = np.random.default_rng(0)
        # The covariate effect (0.01 per unit of v) is small next to the
        # +1.0 treatment effect, so within-stratum pairs are decisive.
        control = [
            {"v": float(v), "y": float(v) * 0.01}
            for v in rng.uniform(1, 50, 300)
        ]
        treatment = [
            {"v": float(v), "y": float(v) * 0.01 + 1.0}
            for v in rng.uniform(1, 50, 300)
        ]
        qed = QuasiExperiment("effect", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"])
        assert result.n_pairs > 50
        assert result.net_outcome_score > 0.9
        assert result.significant

    def test_null_effect_near_zero_score(self):
        rng = np.random.default_rng(1)
        make = lambda: [
            {"v": float(v), "y": float(rng.normal())}
            for v in rng.uniform(1, 50, 400)
        ]
        qed = QuasiExperiment("null", [by_v])
        result = qed.run(make(), make(), outcome=lambda u: u["y"])
        assert abs(result.net_outcome_score) < 0.2
        assert not result.significant

    def test_pairs_only_within_shared_strata(self):
        control = [{"v": 1.0, "y": 0.0}] * 5
        treatment = [{"v": 1000.0, "y": 1.0}] * 5
        qed = QuasiExperiment("disjoint", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"])
        assert result.n_pairs == 0

    def test_surplus_units_unmatched(self):
        control = [{"v": 1.0, "y": 0.0}] * 2
        treatment = [{"v": 1.0, "y": 1.0}] * 10
        qed = QuasiExperiment("surplus", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"])
        assert result.n_pairs == 2

    def test_ties_counted_separately(self):
        control = [{"v": 1.0, "y": 1.0}] * 3
        treatment = [{"v": 1.0, "y": 1.0}] * 3
        qed = QuasiExperiment("ties", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"])
        assert result.n_ties == 3
        assert result.n_pairs == 0

    def test_score_definition(self):
        control = [{"v": 1.0, "y": 0.0}, {"v": 1.0, "y": 2.0}]
        treatment = [{"v": 1.0, "y": 1.0}, {"v": 1.0, "y": 1.0}]
        qed = QuasiExperiment("score", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"])
        assert result.n_pairs == 2
        assert result.net_outcome_score == 0.0

    def test_no_confounders_rejected(self):
        with pytest.raises(ExperimentError):
            QuasiExperiment("bad", [])

    def test_rng_shuffling_changes_pairing_not_validity(self):
        rng = np.random.default_rng(2)
        control = [{"v": 1.0, "y": float(i)} for i in range(20)]
        treatment = [{"v": 1.0, "y": float(i) + 0.5} for i in range(20)]
        qed = QuasiExperiment("shuffle", [by_v])
        result = qed.run(control, treatment, outcome=lambda u: u["y"], rng=rng)
        assert result.n_pairs + result.n_ties == 20

    def test_agrees_with_natural_experiment_on_real_data(self, small_world):
        """QED and caliper matching find the same capacity effect."""
        users = small_world.dasu.users
        low = [u for u in users if 0.8 < u.capacity_down_mbps <= 3.2]
        high = [u for u in users if 3.2 < u.capacity_down_mbps <= 12.8]
        qed = QuasiExperiment(
            "capacity",
            [lambda u: u.latency_ms, lambda u: max(u.loss_fraction, 1e-4)],
            bins_per_decade=2,
        )
        result = qed.run(
            low, high, outcome=lambda u: u.peak_no_bt_mbps,
            rng=np.random.default_rng(3),
        )
        assert result.n_pairs > 30
        assert result.net_outcome_score > 0.0
