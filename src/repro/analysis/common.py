"""Shared analysis building blocks.

Implements the two recurring constructs of the paper's evaluation over
columnar user panels (:class:`~repro.datasets.columns.UserColumns`):

* the **binned demand curve** — users grouped by capacity class, per-bin
  average demand with a 95% CI (the data behind Figs. 2, 3 and 6);
* the **matched natural experiment** — nearest-neighbor matching of
  control and treatment users on confounders, followed by the sign test
  (the machinery behind Tables 2, 3, 6, 7 and 8).

Callers select pools with per-user masks (:meth:`UserColumns.current`,
:meth:`BinSpec.index_of_array`, :meth:`UserColumns.select_users`);
confounders, outcomes and eligibility are whole-column reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.binning import Bin, BinSpec, capacity_class_spec
from ..core.experiments import ExperimentResult, NaturalExperiment
from ..core.matching import (
    DEFAULT_CALIPER,
    LOSS_MATCH_FLOOR,
    MatchingSummary,
    match_pairs_arrays,
)
from ..core.stats import ConfidenceInterval, mean_confidence_interval, pearson_r
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..obs import ledger as obs

__all__ = [
    "BinnedCurve",
    "BinnedCurvePoint",
    "CONFOUNDER_COLUMNS",
    "binned_demand_curve",
    "curve_correlation",
    "demand_outcome",
    "eligibility_mask",
    "matched_experiment",
]

#: Minimum users in a capacity bin for it to appear in a curve.
_MIN_BIN_USERS = 5


def demand_outcome(
    metric: str, include_bt: bool
) -> Callable[[UserColumns], np.ndarray]:
    """Outcome of a demand statistic of the current period: one value
    per user of a pool."""
    if metric not in ("mean", "peak"):
        raise AnalysisError(f"unknown demand metric {metric!r}")

    def outcome(users: UserColumns) -> np.ndarray:
        return users.demand(metric=metric, include_bt=include_bt)

    return outcome


#: Matching confounders by name: one array per pool. A missing market
#: covariate is NaN in the columns and so fails :func:`eligibility_mask`;
#: a 0.0 price (free or bundled plan) or upgrade cost (flat-priced
#: tiers) is a legitimate market condition and stays in the pool.
CONFOUNDER_COLUMNS: dict[str, Callable[[UserColumns], np.ndarray]] = {
    "capacity": lambda c: c.capacity_down_mbps,
    "latency": lambda c: c.latency_ms,
    # The loss floor is owned by repro.core.matching (single source of
    # truth, pinned relative to its ZERO_FLOOR — see LOSS_MATCH_FLOOR).
    "loss": lambda c: np.maximum(c.loss_fraction, LOSS_MATCH_FLOOR),
    "price_of_access": lambda c: c.price_of_access_usd,
    "upgrade_cost": lambda c: c.upgrade_cost_usd_per_mbps,
}


@dataclass(frozen=True)
class MatchedExperimentResult:
    """An experiment result plus the matching diagnostics behind it."""

    result: ExperimentResult
    matching: MatchingSummary

    @property
    def n_pairs(self) -> int:
        return self.result.n_pairs


def eligibility_mask(
    users: UserColumns,
    confounders: Sequence[str],
    outcome_values: np.ndarray | None = None,
) -> np.ndarray:
    """Per-user matching eligibility: every confounder (and the
    outcome, when given) must be finite.

    Missing market covariates are NaN; datasets that skipped the
    sanitization stage can additionally carry non-finite measurement
    values. Either way the user cannot be placed in the matching space,
    so eligibility requires finiteness, not just non-NaN — identical on
    clean data, where every value is finite.
    """
    mask = np.ones(users.n_users, dtype=bool)
    for name in confounders:
        if name not in CONFOUNDER_COLUMNS:
            raise AnalysisError(f"unknown confounder {name!r}")
        mask &= np.isfinite(CONFOUNDER_COLUMNS[name](users))
    if outcome_values is not None:
        mask &= np.isfinite(np.asarray(outcome_values, dtype=float))
    return mask


def matched_experiment(
    name: str,
    control: UserColumns,
    treatment: UserColumns,
    confounders: Sequence[str],
    outcome: Callable[[UserColumns], np.ndarray],
    caliper: float = DEFAULT_CALIPER,
    hypothesis: str = "treatment increases demand",
) -> MatchedExperimentResult:
    """Run one matched natural experiment between two user pools.

    ``outcome`` maps a pool to one float per user (see
    :func:`demand_outcome`). Users missing any confounder (e.g. no
    market upgrade-cost estimate) are excluded before matching, as the
    paper excludes users it cannot place in a market; so are users
    whose outcome is non-finite (only possible for un-sanitized dirty
    datasets). Pairs index the pools in user order, so a pool's order
    decides matching ties.
    """
    control_outcome = np.asarray(outcome(control), dtype=float)
    treatment_outcome = np.asarray(outcome(treatment), dtype=float)
    control_idx = np.flatnonzero(
        eligibility_mask(control, confounders, control_outcome)
    )
    treatment_idx = np.flatnonzero(
        eligibility_mask(treatment, confounders, treatment_outcome)
    )
    columns = [CONFOUNDER_COLUMNS[name_] for name_ in confounders]
    matching = match_pairs_arrays(
        [col(control)[control_idx] for col in columns],
        [col(treatment)[treatment_idx] for col in columns],
        caliper=caliper,
    )
    experiment = NaturalExperiment(name=name, hypothesis=hypothesis)
    result = experiment.evaluate(
        control_outcome[control_idx[matching.control]],
        treatment_outcome[treatment_idx[matching.treatment]],
    )
    # Run-ledger accounting (no-op outside a traced run): eligibility
    # attrition, matched pairs, and the paper's overall verdict tally.
    obs.count("experiments.run")
    obs.count(
        "experiments.users_excluded",
        (control.n_users - int(control_idx.size))
        + (treatment.n_users - int(treatment_idx.size)),
    )
    obs.count("experiments.pairs", result.n_pairs)
    obs.count("experiments.ties", result.n_ties)
    obs.count(
        "experiments.verdicts.rejects_null"
        if result.rejects_null
        else "experiments.verdicts.null_retained"
    )
    return MatchedExperimentResult(result=result, matching=matching)


@dataclass(frozen=True)
class BinnedCurvePoint:
    """One capacity class of a demand curve."""

    bin: Bin
    n_users: int
    average: float
    ci: ConfidenceInterval

    @property
    def center_mbps(self) -> float:
        """Geometric center of the class, in Mbps."""
        return math.sqrt(self.bin.low * self.bin.high)


@dataclass(frozen=True)
class BinnedCurve:
    """A demand-vs-capacity curve (one panel of Figs. 2, 3 or 6)."""

    metric: str
    include_bt: bool
    points: tuple[BinnedCurvePoint, ...]

    @property
    def correlation(self) -> float:
        """log-log Pearson correlation of class capacity vs demand."""
        return curve_correlation(self.points)

    def point_for(self, capacity_mbps: float) -> BinnedCurvePoint | None:
        for point in self.points:
            if capacity_mbps in point.bin:
                return point
        return None


def binned_demand_curve(
    users: UserColumns,
    metric: str = "mean",
    include_bt: bool = True,
    spec: BinSpec | None = None,
    min_users: int = _MIN_BIN_USERS,
) -> BinnedCurve:
    """Group users into capacity classes and average their demand.

    Members enter each bin in user order. Non-finite demand can only
    come from un-sanitized dirty data; on clean datasets the finiteness
    filter keeps every member.
    """
    if spec is None:
        spec = capacity_class_spec()
    values = demand_outcome(metric, include_bt)(users)
    bin_index = spec.index_of_array(users.capacity_down_mbps)
    finite = np.isfinite(values)
    points = []
    for i, bin_ in enumerate(spec):
        members = values[(bin_index == i) & finite]
        if members.size < min_users:
            continue
        points.append(
            BinnedCurvePoint(
                bin=bin_,
                n_users=int(members.size),
                average=float(np.mean(members)),
                ci=mean_confidence_interval(members),
            )
        )
    return BinnedCurve(metric=metric, include_bt=include_bt, points=tuple(points))


def curve_correlation(points: Sequence[BinnedCurvePoint]) -> float:
    """Pearson r between log capacity and log average demand over bins.

    The paper reports the correlation between a group's link capacity and
    its usage; both axes of its figures are logarithmic, so we correlate
    in log-log space. Bins with non-positive averages cannot be logged
    and are excluded.
    """
    xs = [math.log10(p.center_mbps) for p in points if p.average > 0]
    ys = [math.log10(p.average) for p in points if p.average > 0]
    if len(xs) < 2:
        return math.nan
    return pearson_r(xs, ys)
