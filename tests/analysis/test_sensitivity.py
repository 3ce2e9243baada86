"""Seed-sweep harness."""

import pytest

from repro.analysis.capacity import table1
from repro.analysis.sensitivity import (
    SeedSweepResult,
    SweepPoint,
    proportion_sweep,
    seed_sweep,
)
from repro.datasets import WorldConfig
from repro.exceptions import AnalysisError

TINY = WorldConfig(seed=0, n_dasu_users=200, n_fcc_users=0, days_per_year=1.0)


class TestSweepPoint:
    def test_wilson_for_proportions(self):
        point = SweepPoint(seed=1, value=0.7, n_trials=100)
        ci = point.wilson()
        assert ci is not None
        assert ci.low < 0.7 < ci.high

    def test_no_wilson_without_trials(self):
        assert SweepPoint(seed=1, value=0.7).wilson() is None


class TestSeedSweep:
    def test_statistic_per_seed(self):
        result = seed_sweep(
            TINY, seeds=(1, 2, 3), statistic=lambda w: float(len(w.dasu.users))
        )
        assert len(result.points) == 3
        assert all(p.value > 100 for p in result.points)
        assert result.spread >= 0.0

    def test_mean_and_threshold(self):
        result = SeedSweepResult(
            points=(
                SweepPoint(1, 0.6),
                SweepPoint(2, 0.7),
            )
        )
        assert result.mean == pytest.approx(0.65)
        assert result.all_above(0.55)
        assert not result.all_above(0.65)

    def test_rows_render(self):
        result = SeedSweepResult(
            points=(SweepPoint(1, 0.6, n_trials=50),)
        )
        rows = result.rows()
        assert "seed 1" in rows[0]
        assert "CI" in rows[0]

    def test_empty_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            seed_sweep(TINY, seeds=(), statistic=lambda w: 0.0)

    def test_empty_result_rejected(self):
        with pytest.raises(AnalysisError):
            SeedSweepResult(points=())


class TestProportionSweep:
    def test_table1_effect_across_seeds(self):
        def stat(world):
            result = table1(world.dasu.columns)
            return result.peak.fraction_holds, result.peak.n_pairs

        result = proportion_sweep(TINY, seeds=(5, 6), statistic=stat)
        assert len(result.points) == 2
        for point in result.points:
            assert point.n_trials is not None and point.n_trials > 0
            assert point.wilson() is not None
