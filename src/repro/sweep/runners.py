"""The experiments a sweep can evaluate in every cell.

A view of :mod:`repro.analysis.registry`: every registry experiment
with verdict rows is sweep-runnable, under its group name and in
registry order, so a sweep's report always lists experiments in the
paper's table order. A runner takes a built world's Dasu user columns
(and the scenario's IQB config) and returns the experiment's rows as
:class:`VerdictRow` records — the verdict (significant *and*
practically important, the paper's bar) plus the raw "% H holds"
behind it.

Rows with zero matched pairs are dropped: they carry no verdict
evidence and would only add ``NaN`` noise to the stability matrix.
Runners raise :class:`~repro.exceptions.AnalysisError` when a world is
too small for an experiment at all; the engine records such cells as
having skipped that experiment rather than failing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis.registry import SWEEP, Experiment
from ..core.experiments import ExperimentResult
from ..datasets.columns import UserColumns
from ..exceptions import SweepError

__all__ = [
    "SWEEP_EXPERIMENTS",
    "VerdictRow",
    "check_experiments",
    "run_experiment",
]


@dataclass(frozen=True)
class VerdictRow:
    """One experiment row's verdict in one sweep cell."""

    experiment: str
    row: str
    fraction_holds: float
    n_pairs: int
    p_value: float
    significant: bool
    rejects_null: bool

    @classmethod
    def of(cls, experiment: str, row: str, result: ExperimentResult) -> "VerdictRow":
        return cls(
            experiment=experiment,
            row=row,
            fraction_holds=float(result.fraction_holds),
            n_pairs=int(result.n_pairs),
            p_value=float(result.p_value),
            significant=bool(result.statistically_significant),
            rejects_null=bool(result.rejects_null),
        )

    def to_payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "row": self.row,
            "fraction_holds": round(self.fraction_holds, 12),
            "n_pairs": self.n_pairs,
            "p_value": round(self.p_value, 12),
            "significant": self.significant,
            "rejects_null": self.rejects_null,
        }


def _runner(
    name: str, experiments: Sequence[Experiment]
) -> Callable[..., list[VerdictRow]]:
    def run(users: UserColumns, iqb_config=None) -> list[VerdictRow]:
        rows: list[VerdictRow] = []
        for experiment in experiments:
            result = experiment.run(dasu=users, iqb_config=iqb_config)
            rows.extend(
                VerdictRow.of(name, label, r)
                for label, _, r in experiment.verdicts(result)
                if r.n_pairs > 0
            )
        return rows

    return run


_RUNNERS: dict[str, Callable[..., list[VerdictRow]]] = {
    name: _runner(name, experiments) for name, experiments in SWEEP.items()
}

#: Every sweep-runnable experiment, in the paper's table order.
SWEEP_EXPERIMENTS: tuple[str, ...] = tuple(_RUNNERS)


def check_experiments(keys: Sequence[str]) -> tuple[str, ...]:
    """``keys`` as a tuple, once each is known to name a distinct
    sweep experiment; raises :class:`~repro.exceptions.SweepError`
    naming the first unknown or repeated key."""
    keys = tuple(keys)
    for i, key in enumerate(keys):
        if key not in _RUNNERS:
            known = ", ".join(SWEEP_EXPERIMENTS)
            raise SweepError(
                f"unknown sweep experiment {key!r} (expected one of: {known})"
            )
        if key in keys[:i]:
            raise SweepError(f"sweep experiment {key!r} is listed twice")
    return keys


def run_experiment(
    key: str, users: UserColumns, iqb_config=None
) -> list[VerdictRow]:
    """Run one sweep experiment (a key :func:`check_experiments`
    passed) over a cell's Dasu users; ``iqb_config`` (a preset name,
    config payload, or ``None``) only reaches experiments that read it.
    """
    return _RUNNERS[key](users, iqb_config)
