"""Scenario sweeps: the paper's verdicts across many worlds.

A single synthetic world is one draw from the generative model; any
claim worth reporting should hold across draws *and* across plausible
market configurations. This package turns that into a first-class
workload: a declarative :class:`~repro.sweep.grid.ScenarioGrid`
(parameter overrides × fault severities) is crossed with replicate
seeds, every (scenario, seed) cell is built through the shared on-disk
world cache and fanned out over worker processes, and the chosen paper
experiments are evaluated per cell. The deliverable is a deterministic
cross-scenario **verdict-stability report** — for each experiment row,
the share of cells where the paper's verdict holds, with Wilson
intervals and per-cell headline statistics.

Exposed through the CLI as ``repro sweep``.
"""

from .engine import CellResult, SweepResult, run_sweep
from .grid import Scenario, ScenarioGrid
from .report import (
    StabilityRow,
    format_sweep_report,
    stability_matrix,
    sweep_files,
    sweep_payload,
)
from .runners import SWEEP_EXPERIMENTS, VerdictRow, run_experiment

__all__ = [
    "CellResult",
    "SWEEP_EXPERIMENTS",
    "Scenario",
    "ScenarioGrid",
    "StabilityRow",
    "SweepResult",
    "VerdictRow",
    "format_sweep_report",
    "run_experiment",
    "run_sweep",
    "stability_matrix",
    "sweep_files",
    "sweep_payload",
]
