"""The cross-scenario verdict-stability report.

A sweep's deliverable is not any single cell but the *stability* of the
paper's verdicts across cells: for each experiment row, the share of
cells in which the verdict (statistically significant **and**
practically important) holds, with a Wilson interval over the cell
count, plus the spread of the underlying "% H holds" statistic. The
report is rendered with fixed-precision formatting in deterministic
order, so its bytes depend only on the sweep's inputs — never on
worker count, cache state, or scheduling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.stats import ConfidenceInterval, wilson_interval
from .engine import SweepResult

__all__ = [
    "StabilityRow",
    "format_sweep_report",
    "stability_matrix",
    "sweep_files",
    "sweep_payload",
]


@dataclass(frozen=True)
class StabilityRow:
    """One experiment row's verdict stability across all sweep cells."""

    experiment: str
    row: str
    #: Cells in which the row was evaluated (worlds too small to produce
    #: the row at all are not counted against it).
    n_cells: int
    #: Cells whose verdict held (significant and practically important).
    n_holds: int
    #: Spread of the raw "% H holds" statistic across those cells.
    mean_fraction_holds: float
    min_fraction_holds: float
    max_fraction_holds: float

    @property
    def stability(self) -> float:
        return self.n_holds / self.n_cells

    @property
    def spread(self) -> float:
        return self.max_fraction_holds - self.min_fraction_holds

    def wilson(self) -> ConfidenceInterval:
        """95% Wilson interval on the verdict-holds share."""
        return wilson_interval(self.n_holds, self.n_cells)

    def to_payload(self) -> dict:
        ci = self.wilson()
        return {
            "experiment": self.experiment,
            "row": self.row,
            "n_cells": self.n_cells,
            "n_holds": self.n_holds,
            "stability": round(self.stability, 12),
            "stability_ci_low": round(ci.low, 12),
            "stability_ci_high": round(ci.high, 12),
            "mean_fraction_holds": round(self.mean_fraction_holds, 12),
            "min_fraction_holds": round(self.min_fraction_holds, 12),
            "max_fraction_holds": round(self.max_fraction_holds, 12),
        }


def stability_matrix(sweep: SweepResult) -> tuple[StabilityRow, ...]:
    """Aggregate every cell's verdicts into per-row stability records.

    Ordering is deterministic: experiments in the sweep's registry
    order, rows in order of first appearance across cells (cell order
    is itself scenario-major and fixed).
    """
    order: dict[tuple[str, str], int] = {}
    holds: dict[tuple[str, str], int] = {}
    fractions: dict[tuple[str, str], list[float]] = {}
    for cell in sweep.cells:
        for verdict in cell.verdicts:
            key = (verdict.experiment, verdict.row)
            if key not in order:
                order[key] = len(order)
                holds[key] = 0
                fractions[key] = []
            holds[key] += int(verdict.rejects_null)
            fractions[key].append(verdict.fraction_holds)
    experiment_rank = {name: i for i, name in enumerate(sweep.experiments)}
    keys = sorted(
        order, key=lambda k: (experiment_rank.get(k[0], len(experiment_rank)), order[k])
    )
    rows = []
    for key in keys:
        values = fractions[key]
        rows.append(
            StabilityRow(
                experiment=key[0],
                row=key[1],
                n_cells=len(values),
                n_holds=holds[key],
                mean_fraction_holds=sum(values) / len(values),
                min_fraction_holds=min(values),
                max_fraction_holds=max(values),
            )
        )
    return tuple(rows)


def _skip_summary(sweep: SweepResult) -> list[str]:
    skipped: dict[str, int] = {}
    for cell in sweep.cells:
        for key in cell.skipped:
            skipped[key] = skipped.get(key, 0) + 1
    return [
        f"  {key}: skipped in {n} of {len(sweep.cells)} cells"
        for key, n in sorted(skipped.items())
    ]


def format_sweep_report(sweep: SweepResult) -> str:
    """Render the full deterministic sweep report as text."""
    lines: list[str] = []
    out = lines.append
    out(f"scenario sweep: {sweep.grid.name}")
    out(
        f"scenarios ({len(sweep.grid.scenarios)}): "
        + ", ".join(sweep.scenario_names)
    )
    out(f"seeds ({len(sweep.seeds)}): " + ", ".join(str(s) for s in sweep.seeds))
    out(
        f"cells: {len(sweep.cells)}   experiments: "
        + ", ".join(sweep.experiments)
    )
    out("")
    out("verdict stability")
    out("  (share of cells where the verdict — significant and practically")
    out("   important — holds; CI is a 95% Wilson interval over cells)")
    out("")
    header = (
        f"  {'experiment row':<52} {'holds':>7}  {'share':>6}"
        f"  {'95% CI':>16}  {'%H mean':>8}  {'%H range':>14}"
    )
    out(header)
    for row in stability_matrix(sweep):
        ci = row.wilson()
        label = f"{row.experiment}/{row.row}"
        out(
            f"  {label:<52} {row.n_holds:>3}/{row.n_cells:<3}"
            f"  {row.stability:>6.3f}"
            f"  [{ci.low:.3f}, {ci.high:.3f}]"
            f"  {100 * row.mean_fraction_holds:>8.2f}"
            f"  {100 * row.min_fraction_holds:>6.2f}.."
            f"{100 * row.max_fraction_holds:<6.2f}"
        )
    out("")
    out("per-cell headlines")
    out(
        f"  {'scenario':<28} {'seed':>8} {'users':>7} {'med cap':>9}"
        f" {'med peak':>9} {'mean util':>10} {'mean iqb':>9} {'verdicts':>9}"
    )
    for cell in sweep.cells:
        cap = cell.headline_value("median_capacity_mbps")
        peak = cell.headline_value("median_peak_mbps")
        util = cell.headline_value("mean_peak_utilization")
        iqb = cell.headline_value("mean_iqb_score")
        out(
            f"  {cell.scenario:<28} {cell.seed:>8}"
            f" {cell.n_dasu_users:>7}"
            f" {'-' if cap is None else format(cap, '9.3f')}"
            f" {'-' if peak is None else format(peak, '9.3f')}"
            f" {'-' if util is None else format(util, '10.3f')}"
            f" {'-' if iqb is None else format(iqb, '9.3f')}"
            f" {cell.n_holds:>4}/{len(cell.verdicts):<4}"
        )
    skips = _skip_summary(sweep)
    if skips:
        out("")
        out("skipped experiments")
        lines.extend(skips)
    return "\n".join(line.rstrip() for line in lines)


def sweep_payload(sweep: SweepResult) -> dict:
    """JSON-ready payload of the whole sweep (``sweep.json``).

    Deterministic for any worker count and cache state: cache-hit
    accounting is deliberately excluded.
    """
    return {
        "grid": sweep.grid.to_payload(),
        "seeds": list(sweep.seeds),
        "experiments": list(sweep.experiments),
        "stability": [row.to_payload() for row in stability_matrix(sweep)],
        "cells": [cell.to_payload() for cell in sweep.cells],
    }


def sweep_files(sweep: SweepResult) -> dict[str, str]:
    """The sweep's output files by name: ``report.txt`` and ``sweep.json``.

    The one rendering of both files, shared by ``repro sweep --out``, the
    DAG's ``sweep-report`` stage and the served ``/sweep.json`` and
    ``/sweep-report.txt``.
    """
    return {
        "report.txt": format_sweep_report(sweep) + "\n",
        "sweep.json": json.dumps(sweep_payload(sweep), indent=2, sort_keys=True)
        + "\n",
    }
