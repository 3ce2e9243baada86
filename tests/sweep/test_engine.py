"""The sweep engine (:mod:`repro.sweep.engine`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.datasets import WorldConfig, build_world
from repro.exceptions import SweepError
from repro.obs import RunLedger
from repro.sweep import (
    SWEEP_EXPERIMENTS,
    ScenarioGrid,
    run_sweep,
    sweep_worlds,
)

from tests.analysis.record_model import to_records

from .conftest import SMALL_SWEEP_BASE, SMALL_SWEEP_SEEDS, small_sweep_grid


class TestRunSweep:
    def test_cells_in_scenario_major_order(self, small_sweep):
        assert [(c.scenario, c.seed) for c in small_sweep.cells] == [
            ("baseline", 5), ("baseline", 6),
            ("growth-off", 5), ("growth-off", 6),
        ]
        assert small_sweep.seeds == SMALL_SWEEP_SEEDS
        assert small_sweep.experiments == SWEEP_EXPERIMENTS
        assert small_sweep.scenario_names == ("baseline", "growth-off")

    def test_verdict_rows_well_formed(self, small_sweep):
        for cell in small_sweep.cells:
            assert cell.verdicts, cell.scenario
            for verdict in cell.verdicts:
                assert verdict.experiment in SWEEP_EXPERIMENTS
                assert 0.0 <= verdict.fraction_holds <= 1.0
                assert verdict.n_pairs > 0
                assert 0.0 <= verdict.p_value <= 1.0
                if verdict.rejects_null:
                    assert verdict.significant

    def test_headline_statistics_present(self, small_sweep):
        for cell in small_sweep.cells:
            names = [name for name, _ in cell.headline]
            assert names == [
                "median_capacity_mbps",
                "median_peak_mbps",
                "mean_peak_utilization",
                "mean_iqb_score",
            ]
            assert cell.headline_value("median_capacity_mbps") > 0
            assert 0.0 <= cell.headline_value("mean_iqb_score") <= 1.0
            assert cell.headline_value("no_such_statistic") is None

    def test_rerun_is_equal_and_fully_cached(self, small_sweep):
        ledger = RunLedger()
        rerun = run_sweep(
            SMALL_SWEEP_BASE,
            small_sweep_grid(),
            SMALL_SWEEP_SEEDS,
            jobs=1,
            ledger=ledger,
        )
        # n_cache_hits is excluded from equality by design.
        assert rerun == small_sweep
        assert rerun.n_cache_hits == len(rerun.cells)
        # The merged ledger accounts for every cell and verdict row.
        assert ledger.counters["sweep.cells"] == len(rerun.cells)
        for key in SWEEP_EXPERIMENTS:
            rows = sum(
                1
                for cell in rerun.cells
                for v in cell.verdicts
                if v.experiment == key
            )
            skips = sum(1 for cell in rerun.cells if key in cell.skipped)
            assert ledger.counters.get(f"sweep.verdicts.{key}.rows", 0) == rows
            assert ledger.counters.get(f"sweep.skipped.{key}", 0) == skips

    def test_too_small_world_skips_experiment_instead_of_failing(self, tmp_path):
        base = dataclasses.replace(SMALL_SWEEP_BASE, n_dasu_users=30)
        ledger = RunLedger()
        result = run_sweep(
            base,
            ScenarioGrid.baseline(),
            (5,),
            experiments=("table1", "table7"),
            cache_root=tmp_path,
            ledger=ledger,
        )
        (cell,) = result.cells
        assert cell.skipped == ("table7",)
        assert {v.experiment for v in cell.verdicts} == {"table1"}
        assert ledger.counters["sweep.skipped.table7"] == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SweepError, match="unknown sweep experiment"):
            run_sweep(
                SMALL_SWEEP_BASE,
                ScenarioGrid.baseline(),
                (5,),
                experiments=("table9",),
            )

    @pytest.mark.parametrize(
        "experiments, bad",
        [(("table1", "table1"), "table1"), (("table1", "iqb", "iqb"), "iqb")],
    )
    def test_repeated_experiment_rejected(self, tmp_path, experiments, bad):
        with pytest.raises(SweepError, match=f"'{bad}' is listed twice"):
            run_sweep(
                SMALL_SWEEP_BASE,
                ScenarioGrid.baseline(),
                (5,),
                experiments=experiments,
                cache_root=tmp_path / "cache",
            )
        assert not (tmp_path / "cache").exists()

    def test_no_experiments_rejected(self):
        with pytest.raises(SweepError, match="at least one experiment"):
            run_sweep(
                SMALL_SWEEP_BASE, ScenarioGrid.baseline(), (5,), experiments=()
            )

    def test_no_seeds_anywhere_rejected(self):
        with pytest.raises(SweepError, match="at least one seed"):
            run_sweep(SMALL_SWEEP_BASE, ScenarioGrid.baseline())

    def test_grid_seeds_used_when_caller_passes_none(self, small_sweep):
        grid = ScenarioGrid(
            scenarios=small_sweep_grid().scenarios,
            name="small",
            seeds=SMALL_SWEEP_SEEDS,
        )
        result = run_sweep(SMALL_SWEEP_BASE, grid, jobs=1)
        assert result.seeds == SMALL_SWEEP_SEEDS
        assert result.cells == small_sweep.cells

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(SweepError, match="distinct"):
            run_sweep(SMALL_SWEEP_BASE, ScenarioGrid.baseline(), (5, 5))

    def test_accessors(self, small_sweep):
        baseline_cells = small_sweep.cells_for("baseline")
        assert [c.seed for c in baseline_cells] == list(SMALL_SWEEP_SEEDS)
        fractions = small_sweep.fractions_for("table1", "Average usage")
        assert len(fractions) == len(small_sweep.cells)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert small_sweep.fractions_for("table1", "no such row") == ()


class TestSweepWorlds:
    @staticmethod
    def _fingerprint(dataset):
        # Cache-loaded worlds carry the same records as a fresh build
        # but in persisted order, and the hourly profile is %.6g-encoded
        # in the CSV (see tests/test_cache.py) — so compare the
        # analysis-relevant fields, order-insensitively.
        users = to_records(dataset.columns)
        return sorted(
            (
                u.user_id,
                u.country,
                u.capacity_down_mbps,
                u.peak_mbps,
                u.peak_no_bt_mbps,
                u.latency_ms,
                u.loss_fraction,
                len(u.observations),
            )
            for u in users
        )

    def test_worlds_match_direct_builds(self, tmp_path):
        worlds = sweep_worlds(
            SMALL_SWEEP_BASE, SMALL_SWEEP_SEEDS, jobs=2, cache_root=tmp_path
        )
        assert [w.config.seed for w in worlds] == list(SMALL_SWEEP_SEEDS)
        for seed, world in zip(SMALL_SWEEP_SEEDS, worlds):
            direct = build_world(
                dataclasses.replace(SMALL_SWEEP_BASE, seed=seed)
            )
            assert self._fingerprint(world.dasu) == self._fingerprint(
                direct.dasu
            )
            assert self._fingerprint(world.fcc) == self._fingerprint(
                direct.fcc
            )

    def test_cached_reload_is_identical(self, tmp_path):
        first = sweep_worlds(
            SMALL_SWEEP_BASE, SMALL_SWEEP_SEEDS, cache_root=tmp_path
        )
        again = sweep_worlds(
            SMALL_SWEEP_BASE, SMALL_SWEEP_SEEDS, cache_root=tmp_path
        )
        for a, b in zip(first, again):
            assert self._fingerprint(a.dasu) == self._fingerprint(
                b.dasu
            )

    def test_empty_seeds_rejected(self):
        with pytest.raises(SweepError, match="at least one seed"):
            sweep_worlds(SMALL_SWEEP_BASE, ())
