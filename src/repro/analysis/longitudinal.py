"""Sec. 4 — longitudinal trends in usage (Fig. 6).

Per-year demand-vs-capacity curves, plus the natural experiment the
paper describes: comparing matched users of the same capacity class
across years should show *no* significant demand change — traffic growth
comes from subscribers moving up tiers, not from using existing tiers
harder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.binning import BinSpec, capacity_class_spec
from ..core.experiments import ExperimentResult, NaturalExperiment
from ..core.matching import LOSS_MATCH_FLOOR, match_pairs_arrays
from ..core.stats import mean_confidence_interval
from ..datasets.columns import UserColumns
from ..datasets.records import _DAYS_PER_YEAR, EPOCH_YEAR
from ..exceptions import AnalysisError
from .common import BinnedCurve, BinnedCurvePoint

__all__ = ["Figure6Result", "YearCurve", "figure6", "year_observations"]


def year_observations(users: UserColumns, year: int) -> np.ndarray:
    """Row index of each user's observation in one calendar year — the
    user's first period starting that year (a period's year is
    ``EPOCH_YEAR`` plus the whole 365-day years before its start day) —
    users in order; users not seen that year are absent."""
    years = EPOCH_YEAR + (users.rows["start_day"] // _DAYS_PER_YEAR).astype(
        np.int64
    )
    rows = np.flatnonzero(years == year)
    owner = np.repeat(np.arange(users.n_users), users.user_counts)[rows]
    _, first = np.unique(owner, return_index=True)
    return rows[first]


def _period_demand(metric: str, include_bt: bool) -> str:
    """The period column holding a demand statistic."""
    if metric not in ("mean", "peak"):
        raise AnalysisError(f"unknown metric {metric!r}")
    return f"{metric}_mbps" if include_bt else f"{metric}_no_bt_mbps"


@dataclass(frozen=True)
class YearCurve:
    """One year's demand-vs-capacity curve."""

    year: int
    curve: BinnedCurve


@dataclass(frozen=True)
class Figure6Result:
    """Per-year curves for one panel plus the cross-year experiments.

    ``cross_year_experiment`` pools all matched cross-year pairs;
    ``per_class_experiments`` runs the paper's actual test — "any
    significant change in demand at any given speed tier" — one sign test
    per capacity class with enough pairs.
    """

    metric: str
    include_bt: bool
    year_curves: tuple[YearCurve, ...]
    cross_year_experiment: ExperimentResult
    per_class_experiments: tuple[tuple[object, ExperimentResult], ...] = ()

    def classes_rejecting_null(self) -> list[object]:
        """Capacity classes whose demand changed significantly."""
        return [
            bin_
            for bin_, result in self.per_class_experiments
            if result.rejects_null
        ]

    def max_class_drift(self) -> float:
        """Largest |log-ratio| of class demand between first and last year.

        A value near zero means demand per class stayed constant — the
        paper's headline longitudinal finding.
        """
        first = self.year_curves[0].curve
        last = self.year_curves[-1].curve
        drifts = []
        for point in first.points:
            other = last.point_for(point.center_mbps)
            if other is not None and point.average > 0 and other.average > 0:
                drifts.append(abs(math.log(other.average / point.average)))
        if not drifts:
            raise AnalysisError("no shared classes between first and last year")
        return max(drifts)


def _year_curve(
    users: UserColumns,
    rows: np.ndarray,
    demand: str,
    metric: str,
    include_bt: bool,
    spec: BinSpec,
    min_users: int,
) -> BinnedCurve:
    classes = spec.index_of_array(users.rows["capacity_mbps"][rows])
    values = users.rows[demand][rows]
    points = []
    for i, bin_ in enumerate(spec):
        members = values[classes == i]
        if members.size < min_users:
            continue
        points.append(
            BinnedCurvePoint(
                bin=bin_,
                n_users=int(members.size),
                # Python's float sum, as the curve has always averaged.
                average=float(sum(members.tolist()) / members.size),
                ci=mean_confidence_interval(members),
            )
        )
    return BinnedCurve(metric=metric, include_bt=include_bt, points=tuple(points))


def figure6(
    users: UserColumns,
    metric: str = "peak",
    include_bt: bool = False,
    years: Sequence[int] = (2011, 2012, 2013),
    min_users: int = 5,
    caliper: float = 0.25,
) -> Figure6Result:
    """Fig. 6: demand vs capacity per year, plus the no-change experiment.

    The cross-year experiment matches first-year observations with
    last-year observations on capacity, latency and loss, and tests
    whether later-year demand is higher. Each pool holds one observation
    per user seen that year, and a user seen in both years is in both
    pools, so a pair can be one user's own first- and last-year
    observations: the matcher does not tell them apart from pairs of
    two different users. The paper found no significant change; the
    result's ``rejects_null`` should be False.
    """
    if len(years) < 2:
        raise AnalysisError("a longitudinal analysis needs at least two years")
    spec = capacity_class_spec()
    demand = _period_demand(metric, include_bt)
    per_year = {year: year_observations(users, year) for year in years}
    curves = tuple(
        YearCurve(
            year=year,
            curve=_year_curve(
                users, per_year[year], demand, metric, include_bt, spec,
                min_users,
            ),
        )
        for year in years
    )

    first, last = years[0], years[-1]
    rows = users.rows

    def confounders(year: int) -> list[np.ndarray]:
        period_rows = per_year[year]
        return [
            rows["capacity_mbps"][period_rows],
            rows["latency_ms"][period_rows],
            np.maximum(rows["loss_fraction"][period_rows], LOSS_MATCH_FLOOR),
        ]

    matching = match_pairs_arrays(
        confounders(first), confounders(last), caliper=caliper
    )
    # Each pair as (control row, treatment row).
    control_rows = per_year[first][matching.control]
    treatment_rows = per_year[last][matching.treatment]
    control_demand = rows[demand][control_rows]
    treatment_demand = rows[demand][treatment_rows]

    pooled = NaturalExperiment(
        name=f"{first} vs {last} demand at fixed capacity",
        hypothesis="demand at a fixed capacity class grows over time",
    ).evaluate(control_demand, treatment_demand)

    # The paper's per-tier version: one experiment per capacity class.
    per_class: list[tuple[object, ExperimentResult]] = []
    pair_classes = spec.index_of_array(rows["capacity_mbps"][control_rows])
    for i, bin_ in enumerate(spec):
        in_class = pair_classes == i
        if np.count_nonzero(in_class) < min_users:
            continue
        result = NaturalExperiment(
            name=f"{first} vs {last} in {bin_.label()}",
            hypothesis="demand in this class grows over time",
        ).evaluate(control_demand[in_class], treatment_demand[in_class])
        per_class.append((bin_, result))

    return Figure6Result(
        metric=metric,
        include_bt=include_bt,
        year_curves=curves,
        cross_year_experiment=pooled,
        per_class_experiments=tuple(per_class),
    )
