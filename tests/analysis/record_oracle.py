"""Per-record reference implementations of the columnar analysis blocks.

Straight-line loops over :class:`~repro.datasets.records.UserRecord`
objects — one user, one Python float at a time — that the analysis
path (whole columns of :class:`~repro.datasets.columns.UserColumns`)
is held to exactly: same curve points, same pairs, same verdicts, same
IQB scores. Test support only; nothing in ``src/`` calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.common import BinnedCurve, BinnedCurvePoint
from repro.analysis.iqb import IqbConfig, resolve_iqb_config
from repro.core.binning import BinSpec, capacity_class_spec
from repro.core.experiments import ExperimentResult, NaturalExperiment, PairedOutcome
from repro.core.matching import LOSS_MATCH_FLOOR, MatchingSummary, match_pairs
from repro.core.stats import mean_confidence_interval
from tests.analysis.record_model import UserRecord


def demand_outcome(metric: str, include_bt: bool) -> Callable[[UserRecord], float]:
    """One user's current-period demand statistic."""
    return lambda user: user.demand(metric=metric, include_bt=include_bt)


def _market_value(value: float | None) -> float:
    # Only None means missing: a 0.0 price or upgrade cost is real.
    return math.nan if value is None else float(value)


CONFOUNDER_EXTRACTORS: dict[str, Callable[[UserRecord], float]] = {
    "capacity": lambda u: u.capacity_down_mbps,
    "latency": lambda u: u.latency_ms,
    "loss": lambda u: max(u.loss_fraction, LOSS_MATCH_FLOOR),
    "price_of_access": lambda u: _market_value(u.price_of_access_usd),
    "upgrade_cost": lambda u: _market_value(u.upgrade_cost_usd_per_mbps),
}


def eligible(user: UserRecord, confounders: Sequence[str], outcome=None) -> bool:
    """Every confounder (and the outcome, when given) is finite."""
    values = [CONFOUNDER_EXTRACTORS[name](user) for name in confounders]
    if outcome is not None:
        values.append(outcome(user))
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class RecordExperiment:
    result: ExperimentResult
    #: Pairs carry the eligible records themselves.
    matching: MatchingSummary


def matched_experiment(
    name: str,
    control: Sequence[UserRecord],
    treatment: Sequence[UserRecord],
    confounders: Sequence[str],
    outcome: Callable[[UserRecord], float],
) -> RecordExperiment:
    """Filter, match and sign-test one record at a time."""
    eligible_control = [u for u in control if eligible(u, confounders, outcome)]
    eligible_treatment = [
        u for u in treatment if eligible(u, confounders, outcome)
    ]
    matching = match_pairs(
        eligible_control,
        eligible_treatment,
        [CONFOUNDER_EXTRACTORS[name_] for name_ in confounders],
    )
    result = NaturalExperiment(
        name=name, hypothesis="treatment increases demand"
    ).evaluate(
        PairedOutcome(outcome(pair.control), outcome(pair.treatment))
        for pair in matching.pairs
    )
    return RecordExperiment(result=result, matching=matching)


def binned_demand_curve(
    users: Sequence[UserRecord],
    metric: str = "mean",
    include_bt: bool = True,
    spec: BinSpec | None = None,
    min_users: int = 5,
) -> BinnedCurve:
    """Bin each record by capacity, then average its bin's demand."""
    spec = capacity_class_spec() if spec is None else spec
    outcome = demand_outcome(metric, include_bt)
    grouped = spec.group((u.capacity_down_mbps, u) for u in users)
    points = []
    for bin_ in spec:
        values = [
            outcome(u)
            for u in grouped.get(bin_, [])
            if math.isfinite(outcome(u))
        ]
        if len(values) < min_users:
            continue
        points.append(
            BinnedCurvePoint(
                bin=bin_,
                n_users=len(values),
                average=float(np.mean(values)),
                ci=mean_confidence_interval(values),
            )
        )
    return BinnedCurve(metric=metric, include_bt=include_bt, points=tuple(points))


# ---------------------------------------------------------------------------
# IQB: the scalar scoring reference.
# ---------------------------------------------------------------------------


def _metric_values(user: UserRecord) -> dict[str, float]:
    return {
        "download_mbps": user.capacity_down_mbps,
        "upload_mbps": user.current.capacity_up_mbps,
        "latency_ms": user.latency_ms,
        "loss_fraction": user.loss_fraction,
    }


def _requirement_score(requirement, value: float) -> float:
    # The vectorized path's divisions and clips, in the same order.
    if not math.isfinite(value):
        return 0.0
    if requirement.kind == "min":
        return min(1.0, max(0.0, value / requirement.threshold))
    if value <= requirement.threshold:
        return 1.0
    return requirement.threshold / value


@dataclass(frozen=True)
class RecordScore:
    """One household's scores via the scalar reference path."""

    use_case_scores: dict[str, float]
    composite: float
    ready: bool


def score_record(user: UserRecord, config: IqbConfig | None = None) -> RecordScore:
    """Score one household, one requirement at a time."""
    config = resolve_iqb_config(config)
    metrics = _metric_values(user)
    use_case_scores: dict[str, float] = {}
    ready = True
    composite_num = 0.0
    composite_den = 0.0
    for use_case in config.use_cases:
        numerator = 0.0
        denominator = 0.0
        for requirement in use_case.requirements:
            if requirement.weight <= 0:
                continue
            value = metrics[requirement.metric]
            numerator = numerator + requirement.weight * (
                _requirement_score(requirement, value)
            )
            denominator += requirement.weight
            if use_case.weight > 0:
                met = math.isfinite(value) and (
                    value >= requirement.threshold
                    if requirement.kind == "min"
                    else value <= requirement.threshold
                )
                ready = ready and met
        score = numerator / denominator
        use_case_scores[use_case.name] = score
        if use_case.weight > 0:
            composite_num = composite_num + use_case.weight * score
            composite_den += use_case.weight
    return RecordScore(
        use_case_scores=use_case_scores,
        composite=composite_num / composite_den,
        ready=ready,
    )
