"""The sweep engine: many (scenario, seed) worlds, one report.

:func:`run_sweep` expands a :class:`~repro.sweep.grid.ScenarioGrid`
against a base :class:`~repro.datasets.world.WorldConfig` into cells —
one world per (scenario, replicate seed) — runs each cell as a stage of
the experiment DAG (:func:`repro.dag.sweep_spec`), and evaluates a
chosen set of paper experiments (:mod:`repro.sweep.runners`) in every
cell. It is the package's one way to evaluate the paper's experiments
across seeds.

Three properties carry over from the rest of the pipeline:

* **determinism** — cells are self-seeded and results return in cell
  order, so a sweep's report (and its ``--trace`` ledger) is
  byte-identical for any worker count;
* **cache sharing** — every cell goes through
  :func:`~repro.datasets.cache.build_or_load_world` against one shared
  on-disk world cache, so cells that share a configuration (and entire
  repeated sweeps) reuse persisted worlds instead of rebuilding;
* **hit/miss equivalence** — a cell's results, and its contribution to
  the merged run ledger, are identical whether its world was built
  fresh or loaded from the cache (the cache stores each build's trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..datasets.cache import WorldCache, build_or_load_world
from ..datasets.world import World, WorldConfig
from ..exceptions import AnalysisError, SweepError
from ..obs.ledger import RunLedger, count, current, span
from .grid import ScenarioGrid
from .runners import SWEEP_EXPERIMENTS, VerdictRow, run_experiment

__all__ = ["CellResult", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class CellResult:
    """Everything one (scenario, seed) cell contributes to the report."""

    scenario: str
    seed: int
    n_dasu_users: int
    n_fcc_users: int
    #: Deterministic per-cell summary statistics, in fixed name order.
    headline: tuple[tuple[str, float], ...]
    verdicts: tuple[VerdictRow, ...]
    #: Experiments this cell's world could not support at all.
    skipped: tuple[str, ...]

    @property
    def n_holds(self) -> int:
        return sum(1 for v in self.verdicts if v.rejects_null)

    def headline_value(self, name: str) -> float | None:
        for key, value in self.headline:
            if key == name:
                return value
        return None

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_dasu_users": self.n_dasu_users,
            "n_fcc_users": self.n_fcc_users,
            "headline": {k: round(v, 12) for k, v in self.headline},
            "verdicts": [v.to_payload() for v in self.verdicts],
            "skipped": list(self.skipped),
        }


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: the grid, its cells, and cache accounting."""

    grid: ScenarioGrid
    base_config: WorldConfig
    seeds: tuple[int, ...]
    experiments: tuple[str, ...]
    cells: tuple[CellResult, ...]
    #: How many cells loaded their world from the cache. Scheduling- and
    #: cache-state-dependent, so excluded from comparisons, payloads,
    #: and the report — a warm rerun must stay byte-identical.
    n_cache_hits: int = field(default=0, compare=False)

    @property
    def scenario_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.grid.scenarios)

    def cells_for(self, scenario: str) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.scenario == scenario)

    def fractions_for(self, experiment: str, row: str) -> tuple[float, ...]:
        """Every cell's '% H holds' for one experiment row, cell order."""
        return tuple(
            v.fraction_holds
            for cell in self.cells
            for v in cell.verdicts
            if v.experiment == experiment and v.row == row
        )


@dataclass(frozen=True)
class _CellTask:
    """Self-contained description of one cell, picklable for workers."""

    scenario: str
    seed: int
    config: WorldConfig
    experiments: tuple[str, ...]
    cache_root: str | None
    use_cache: bool
    #: The scenario's IQB configuration (preset name, payload, or None).
    iqb_config: object = None


def _headline(
    world: World, iqb_config: object = None
) -> tuple[tuple[str, float], ...]:
    """Fixed-order summary statistics of a cell's Dasu panel.

    The reductions are applied to sorted values: a cache-loaded world
    carries the same users as a fresh build but in a different order,
    and float summation is order-sensitive at the ULP level — sorting
    first keeps hit and miss cells exactly equal.
    """
    from ..analysis.iqb import resolve_iqb_config, score_columns

    users = world.dasu.columns
    if users.n_users == 0:
        return ()
    capacity = np.sort(users.capacity_down_mbps)
    peak = np.sort(users.demand("peak", False))
    utilization = np.sort(users.peak_utilization)
    composite = np.sort(
        score_columns(users, resolve_iqb_config(iqb_config)).composite
    )
    return (
        ("median_capacity_mbps", float(np.median(capacity))),
        ("median_peak_mbps", float(np.median(peak))),
        ("mean_peak_utilization", float(utilization.mean())),
        ("mean_iqb_score", float(composite.mean())),
    )


def _run_cell(task: _CellTask) -> tuple[CellResult, bool]:
    world, from_cache = build_or_load_world(
        task.config,
        jobs=1,
        cache=WorldCache(task.cache_root),
        use_cache=task.use_cache,
        ground_truth=False,
    )
    # Fold the build trace into the ambient ledger: a cache entry stores
    # its build's trace, so hit and miss cells record the same bytes.
    ambient = current()
    if ambient is not None and world.ledger is not None:
        ambient.merge(world.ledger)
    verdicts: list[VerdictRow] = []
    skipped: list[str] = []
    with span(f"sweep/cell/{task.scenario}/seed={task.seed}"):
        for key in task.experiments:
            try:
                rows = run_experiment(
                    key, world.dasu.columns, iqb_config=task.iqb_config
                )
            except AnalysisError:
                skipped.append(key)
                count(f"sweep.skipped.{key}")
                continue
            verdicts.extend(rows)
            count(f"sweep.verdicts.{key}.rows", len(rows))
            count(
                f"sweep.verdicts.{key}.holds",
                sum(1 for v in rows if v.rejects_null),
            )
    count("sweep.cells")
    result = CellResult(
        scenario=task.scenario,
        seed=task.seed,
        n_dasu_users=world.dasu.n_users,
        n_fcc_users=world.fcc.n_users,
        headline=_headline(world, task.iqb_config),
        verdicts=tuple(verdicts),
        skipped=tuple(skipped),
    )
    return result, from_cache


def _resolve_seeds(
    grid: ScenarioGrid, seeds: Sequence[int] | None
) -> tuple[int, ...]:
    chosen = tuple(int(s) for s in seeds) if seeds is not None else grid.seeds
    if not chosen:
        raise SweepError(
            "a sweep needs at least one seed (pass seeds= or declare "
            "them in the grid)"
        )
    if len(set(chosen)) != len(chosen):
        raise SweepError(f"sweep seeds must be distinct, got {chosen}")
    return chosen


def run_sweep(
    base_config: WorldConfig,
    grid: ScenarioGrid,
    seeds: Sequence[int] | None = None,
    *,
    experiments: Sequence[str] = SWEEP_EXPERIMENTS,
    jobs: int | None = 1,
    cache_root: str | Path | None = None,
    use_cache: bool = True,
    ledger: RunLedger | None = None,
) -> SweepResult:
    """Evaluate ``experiments`` over every (scenario, seed) cell.

    Cells run as DAG stages on a :class:`~repro.dag.ProcessPoolBackend`
    with ``jobs`` workers; results (and the merged ``ledger``, if one is
    passed) are byte-identical for any worker count. Worlds are shared
    through the on-disk cache under ``cache_root`` (default resolution
    as in :func:`~repro.datasets.cache.default_cache_root`), so
    repeating a sweep — or overlapping cells inside one — reuses
    persisted worlds.
    """
    experiments = tuple(experiments)
    if not experiments:
        raise SweepError("a sweep needs at least one experiment")
    chosen_seeds = _resolve_seeds(grid, seeds)
    root = None if cache_root is None else str(cache_root)
    # The fan-out rides the experiment-DAG scheduler: one sweep-cell
    # stage per (scenario, seed), declared in scenario-major order so
    # execution and ledger-merge order match the pre-DAG engine exactly.
    # The pool backend shards through run_sharded as before, so results
    # and the merged ledger stay byte-identical for any worker count.
    # Lazy import: repro.dag's pipeline kinds call back into this module.
    # sweep_spec checks the experiment keys before anything is built.
    from ..dag import ProcessPoolBackend, RunContext, run_dag, sweep_spec

    spec = sweep_spec(
        base_config, grid, chosen_seeds, experiments, with_report=False
    )
    run = run_dag(
        spec,
        backend=ProcessPoolBackend(jobs=jobs),
        ledger=ledger,
        context=RunContext(jobs=1, cache_root=root, use_cache=use_cache),
    )
    outcomes = [run.artifacts[stage.name] for stage in spec.stages]
    results = tuple(outcome.result for outcome in outcomes)
    hits = sum(1 for outcome in outcomes if outcome.from_cache)
    return SweepResult(
        grid=grid,
        base_config=base_config,
        seeds=chosen_seeds,
        experiments=experiments,
        cells=results,
        n_cache_hits=hits,
    )
