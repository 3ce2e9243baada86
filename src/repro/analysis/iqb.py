"""Use-case quality scoring: the internet quality barometer (IQB).

The paper's Sec. 7 experiments show that latency and loss shape demand
beyond raw capacity; M-Lab's Internet Quality Barometer generalizes the
idea into *use-case* scoring — grade every connection against the
network requirements of concrete applications (web browsing, video
streaming, audio streaming), roll the per-requirement satisfaction up
through declared weights, and aggregate per market.

This module is that analysis family for the reproduction's worlds:

* :class:`IqbConfig` — a declarative config (use cases × requirements
  with weights and min/max thresholds), JSON-loadable with parse-time
  validation that names the offending use case and requirement;
* :func:`score_columns` — vectorized scoring over the columnar data
  plane (the property suite holds it exactly equal to a straight-line
  scalar reference);
* :func:`market_barometer` — per-market mean scores and fully-ready
  shares with Wilson intervals;
* :func:`iqb_experiment` — a matched natural experiment extending
  Tables 7/8: does a higher composite score predict demand beyond
  capacity class and market price?
* :func:`iqb_barometer` — all of it as one result, rendered by
  :func:`format_iqb_report` and :func:`iqb_payload` (``iqb.json``).

Scoring formula
---------------

Each requirement is satisfied on a [0, 1] scale:

* higher-is-better metrics (``download_mbps``, ``upload_mbps``) with a
  ``min`` threshold ``t`` score ``clip(value / t, 0, 1)``;
* lower-is-better metrics (``latency_ms``, ``loss_fraction``) with a
  ``max`` threshold ``t`` score ``1.0`` when ``value <= t`` and
  ``t / value`` otherwise;
* non-finite measured values (possible only for un-sanitized dirty
  datasets) score 0 — never NaN.

A use case's score is the weighted mean of its positive-weight
requirements; the composite is the weighted mean of the positive-weight
use cases. Both means are exact 1.0 when every threshold is met, and
zero-weight entries are ignored entirely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..core.binning import capacity_class_spec
from ..core.stats import ConfidenceInterval, wilson_interval
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..obs import ledger as obs
from .common import MatchedExperimentResult, demand_outcome, matched_experiment

__all__ = [
    "DEFAULT_IQB_CONFIG",
    "HouseholdScores",
    "IQB_PRESETS",
    "IqbBarometer",
    "IqbConfig",
    "IqbExperimentResult",
    "IqbRequirement",
    "IqbUseCase",
    "MarketScore",
    "format_iqb_report",
    "iqb_barometer",
    "iqb_experiment",
    "iqb_payload",
    "market_barometer",
    "resolve_iqb_config",
    "score_columns",
]

#: Metrics a requirement may grade, mapped to threshold orientation:
#: ``min`` thresholds for higher-is-better metrics, ``max`` for
#: lower-is-better ones.
METRIC_KINDS: dict[str, str] = {
    "download_mbps": "min",
    "upload_mbps": "min",
    "latency_ms": "max",
    "loss_fraction": "max",
}

#: Minimum households for a market to appear in the barometer table.
_MIN_MARKET_USERS = 5

#: Minimum scoreable households for the IQB-vs-demand experiment.
_MIN_EXPERIMENT_USERS = 30

#: Minimum households a capacity class needs before its composite-score
#: terciles are meaningful enough to contribute to the experiment arms.
_MIN_CLASS_USERS = 9

#: Confounders of the IQB-vs-demand experiment: matching on capacity
#: class and access price asks whether quality predicts demand *beyond*
#: what the user's capacity tier and market already explain.
_IQB_CONFOUNDERS = ("capacity", "price_of_access")


def _require_number(
    value: object, what: str, where: str
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnalysisError(f"{where}: {what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class IqbRequirement:
    """One graded network requirement of a use case."""

    metric: str
    weight: float
    threshold: float

    def validate(self, use_case: str) -> None:
        where = f"use case {use_case!r}, requirement {self.metric!r}"
        if self.metric not in METRIC_KINDS:
            known = ", ".join(METRIC_KINDS)
            raise AnalysisError(
                f"use case {use_case!r}: unknown requirement metric "
                f"{self.metric!r} (expected one of: {known})"
            )
        if not math.isfinite(self.weight) or self.weight < 0:
            raise AnalysisError(
                f"{where}: weight must be finite and >= 0, "
                f"got {self.weight!r}"
            )
        if not math.isfinite(self.threshold) or self.threshold <= 0:
            raise AnalysisError(
                f"{where}: threshold must be finite and > 0, "
                f"got {self.threshold!r}"
            )

    @property
    def kind(self) -> str:
        """``min`` (higher is better) or ``max`` (lower is better)."""
        return METRIC_KINDS[self.metric]

    def to_payload(self) -> dict:
        return {"weight": self.weight, self.kind: self.threshold}


@dataclass(frozen=True)
class IqbUseCase:
    """A named use case: weighted requirements plus its own weight."""

    name: str
    weight: float
    requirements: tuple[IqbRequirement, ...]

    def validate(self) -> None:
        if not self.name:
            raise AnalysisError("use cases need a non-empty name")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise AnalysisError(
                f"use case {self.name!r}: weight must be finite and >= 0, "
                f"got {self.weight!r}"
            )
        if not self.requirements:
            raise AnalysisError(
                f"use case {self.name!r} declares no requirements"
            )
        seen: set[str] = set()
        for requirement in self.requirements:
            requirement.validate(self.name)
            if requirement.metric in seen:
                raise AnalysisError(
                    f"use case {self.name!r}: duplicate requirement "
                    f"{requirement.metric!r}"
                )
            seen.add(requirement.metric)
        if not any(r.weight > 0 for r in self.requirements):
            raise AnalysisError(
                f"use case {self.name!r} has no positive-weight "
                "requirement — every score would be undefined"
            )

    def to_payload(self) -> dict:
        return {
            "weight": self.weight,
            "requirements": {
                r.metric: r.to_payload() for r in self.requirements
            },
        }


@dataclass(frozen=True)
class IqbConfig:
    """A complete barometer configuration (the ``iqb.json`` schema)."""

    name: str
    use_cases: tuple[IqbUseCase, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise AnalysisError("an IQB config needs a non-empty name")
        if not self.use_cases:
            raise AnalysisError(
                f"IQB config {self.name!r} declares no use cases"
            )
        seen: set[str] = set()
        for use_case in self.use_cases:
            use_case.validate()
            if use_case.name in seen:
                raise AnalysisError(
                    f"IQB config {self.name!r}: duplicate use case "
                    f"{use_case.name!r}"
                )
            seen.add(use_case.name)
        if not any(u.weight > 0 for u in self.use_cases):
            raise AnalysisError(
                f"IQB config {self.name!r} has no positive-weight use "
                "case — the composite would be undefined"
            )

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "use_cases": {u.name: u.to_payload() for u in self.use_cases},
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "IqbConfig":
        """Parse and validate a config payload.

        Every structural or numeric problem raises
        :class:`~repro.exceptions.AnalysisError` naming the use case and
        requirement — a bad threshold can never silently turn into NaN
        scores downstream.
        """
        if not isinstance(payload, Mapping):
            raise AnalysisError(
                f"an IQB config must be a JSON object, got {payload!r}"
            )
        unknown = set(payload) - {"name", "use_cases"}
        if unknown:
            raise AnalysisError(
                "IQB config has unknown keys: "
                + ", ".join(sorted(unknown))
            )
        name = str(payload.get("name", "custom"))
        raw_cases = payload.get("use_cases")
        if not isinstance(raw_cases, Mapping) or not raw_cases:
            raise AnalysisError(
                f"IQB config {name!r} needs a non-empty 'use_cases' object"
            )
        use_cases = []
        for case_name, raw_case in raw_cases.items():
            if not isinstance(raw_case, Mapping):
                raise AnalysisError(
                    f"use case {case_name!r} must be an object, "
                    f"got {raw_case!r}"
                )
            unknown = set(raw_case) - {"weight", "requirements"}
            if unknown:
                raise AnalysisError(
                    f"use case {case_name!r} has unknown keys: "
                    + ", ".join(sorted(unknown))
                )
            raw_reqs = raw_case.get("requirements")
            if not isinstance(raw_reqs, Mapping) or not raw_reqs:
                raise AnalysisError(
                    f"use case {case_name!r} needs a non-empty "
                    "'requirements' object"
                )
            requirements = []
            for metric, raw_req in raw_reqs.items():
                where = f"use case {case_name!r}, requirement {metric!r}"
                if not isinstance(raw_req, Mapping):
                    raise AnalysisError(
                        f"{where}: must be an object, got {raw_req!r}"
                    )
                kind = METRIC_KINDS.get(str(metric))
                if kind is None:
                    known = ", ".join(METRIC_KINDS)
                    raise AnalysisError(
                        f"use case {case_name!r}: unknown requirement "
                        f"metric {metric!r} (expected one of: {known})"
                    )
                unknown = set(raw_req) - {"weight", kind}
                if unknown:
                    wrong_kind = "max" if kind == "min" else "min"
                    if wrong_kind in unknown:
                        raise AnalysisError(
                            f"{where}: a {'higher' if kind == 'min' else 'lower'}"
                            f"-is-better metric takes a {kind!r} "
                            f"threshold, not {wrong_kind!r}"
                        )
                    raise AnalysisError(
                        f"{where}: unknown keys: "
                        + ", ".join(sorted(unknown))
                    )
                if kind not in raw_req:
                    raise AnalysisError(
                        f"{where}: missing the {kind!r} threshold"
                    )
                requirements.append(
                    IqbRequirement(
                        metric=str(metric),
                        weight=_require_number(
                            raw_req.get("weight", 1), "weight", where
                        ),
                        threshold=_require_number(
                            raw_req[kind], f"the {kind!r} threshold", where
                        ),
                    )
                )
            use_cases.append(
                IqbUseCase(
                    name=str(case_name),
                    weight=_require_number(
                        raw_case.get("weight", 1),
                        "weight",
                        f"use case {case_name!r}",
                    ),
                    requirements=tuple(requirements),
                )
            )
        return cls(name=name, use_cases=tuple(use_cases))

    @classmethod
    def from_json(cls, path: str | Path) -> "IqbConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise AnalysisError(
                f"cannot read IQB config {path}: {exc}"
            ) from None
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_payload(payload)


#: The default configuration, mirroring M-Lab's IQB exemplar: web
#: browsing, video streaming, and audio streaming graded on throughput,
#: latency, and loss (latency/loss thresholds as maxima — the exemplar's
#: "threshold min" on lower-is-better metrics reads as a ceiling here).
DEFAULT_IQB_CONFIG = IqbConfig(
    name="default",
    use_cases=(
        IqbUseCase(
            name="web browsing",
            weight=1.0,
            requirements=(
                IqbRequirement("download_mbps", 3.0, 10.0),
                IqbRequirement("upload_mbps", 2.0, 10.0),
                IqbRequirement("latency_ms", 4.0, 100.0),
                IqbRequirement("loss_fraction", 4.0, 0.01),
            ),
        ),
        IqbUseCase(
            name="video streaming",
            weight=1.0,
            requirements=(
                IqbRequirement("download_mbps", 4.0, 25.0),
                IqbRequirement("upload_mbps", 2.0, 10.0),
                IqbRequirement("latency_ms", 4.0, 100.0),
                IqbRequirement("loss_fraction", 4.0, 0.01),
            ),
        ),
        IqbUseCase(
            name="audio streaming",
            weight=1.0,
            requirements=(
                IqbRequirement("download_mbps", 4.0, 10.0),
                IqbRequirement("upload_mbps", 1.0, 10.0),
                IqbRequirement("latency_ms", 2.0, 150.0),
                IqbRequirement("loss_fraction", 2.0, 0.02),
            ),
        ),
    ),
)

#: Named presets a sweep axis or CLI flag can reference without a file.
IQB_PRESETS: dict[str, IqbConfig] = {
    "default": DEFAULT_IQB_CONFIG,
    # Streaming-only mix: how markets grade when web browsing is out of
    # the picture and video carries the composite.
    "streaming": IqbConfig(
        name="streaming",
        use_cases=(
            IqbUseCase(
                name="video streaming",
                weight=3.0,
                requirements=(
                    IqbRequirement("download_mbps", 4.0, 25.0),
                    IqbRequirement("latency_ms", 4.0, 100.0),
                    IqbRequirement("loss_fraction", 4.0, 0.01),
                ),
            ),
            IqbUseCase(
                name="audio streaming",
                weight=1.0,
                requirements=(
                    IqbRequirement("download_mbps", 4.0, 10.0),
                    IqbRequirement("loss_fraction", 2.0, 0.02),
                ),
            ),
        ),
    ),
}


def resolve_iqb_config(
    config: "IqbConfig | Mapping | str | None",
) -> IqbConfig:
    """Resolve a config object, payload, preset name, or ``None``.

    ``None`` means :data:`DEFAULT_IQB_CONFIG`; a string names an entry
    of :data:`IQB_PRESETS`; a mapping is parsed (and validated) as a
    config payload.
    """
    if config is None:
        return DEFAULT_IQB_CONFIG
    if isinstance(config, IqbConfig):
        return config
    if isinstance(config, str):
        try:
            return IQB_PRESETS[config]
        except KeyError:
            known = ", ".join(sorted(IQB_PRESETS))
            raise AnalysisError(
                f"unknown IQB preset {config!r} (expected one of: {known})"
            ) from None
    return IqbConfig.from_payload(config)


# ---------------------------------------------------------------------------
# Scoring.
# ---------------------------------------------------------------------------


def _metric_columns(users: UserColumns) -> dict[str, np.ndarray]:
    return {
        "download_mbps": users.capacity_down_mbps,
        "upload_mbps": users.current("capacity_up_mbps"),
        "latency_ms": users.latency_ms,
        "loss_fraction": users.loss_fraction,
    }


def _requirement_score_array(
    requirement: IqbRequirement, values: np.ndarray
) -> np.ndarray:
    finite = np.isfinite(values)
    if requirement.kind == "min":
        with np.errstate(invalid="ignore"):
            score = np.clip(values / requirement.threshold, 0.0, 1.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            score = np.where(
                values <= requirement.threshold,
                1.0,
                requirement.threshold / values,
            )
    return np.where(finite, score, 0.0)


def _requirement_met_array(
    requirement: IqbRequirement, values: np.ndarray
) -> np.ndarray:
    finite = np.isfinite(values)
    if requirement.kind == "min":
        return finite & (values >= requirement.threshold)
    return finite & (values <= requirement.threshold)


@dataclass(frozen=True)
class HouseholdScores:
    """Vectorized per-household scores for one config and dataset."""

    config: IqbConfig
    #: Per-use-case score arrays, one value per user, config order.
    use_case_scores: dict[str, np.ndarray]
    #: Weighted composite across positive-weight use cases.
    composite: np.ndarray
    #: Whether every positive-weight requirement of every positive-weight
    #: use case is met outright (threshold comparisons, not score == 1).
    ready: np.ndarray


def score_columns(
    users: UserColumns, config: IqbConfig | None = None
) -> HouseholdScores:
    """Score every household of a columnar dataset (vectorized)."""
    config = resolve_iqb_config(config)
    metrics = _metric_columns(users)
    n = users.n_users
    use_case_scores: dict[str, np.ndarray] = {}
    ready = np.ones(n, dtype=bool)
    composite_num = np.zeros(n, dtype=float)
    composite_den = 0.0
    for use_case in config.use_cases:
        numerator = np.zeros(n, dtype=float)
        denominator = 0.0
        for requirement in use_case.requirements:
            if requirement.weight <= 0:
                continue
            values = metrics[requirement.metric]
            numerator = numerator + requirement.weight * (
                _requirement_score_array(requirement, values)
            )
            denominator += requirement.weight
            if use_case.weight > 0:
                ready &= _requirement_met_array(requirement, values)
        score = numerator / denominator
        use_case_scores[use_case.name] = score
        if use_case.weight > 0:
            composite_num = composite_num + use_case.weight * score
            composite_den += use_case.weight
    composite = composite_num / composite_den
    obs.count("iqb.scored", n)
    obs.count("iqb.ready", int(np.count_nonzero(ready)))
    return HouseholdScores(
        config=config,
        use_case_scores=use_case_scores,
        composite=composite,
        ready=ready,
    )


# ---------------------------------------------------------------------------
# Market aggregation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketScore:
    """One market's (country's) aggregated barometer scores, or a whole
    panel's (:class:`IqbBarometer`)."""

    market: str
    n_users: int
    mean_composite: float
    n_ready: int
    #: Wilson interval on the fully-ready share.
    ready_ci: ConfidenceInterval
    #: Per-use-case mean scores, config order.
    use_case_means: tuple[tuple[str, float], ...]

    @classmethod
    def aggregate(cls, label: str, scores: HouseholdScores, rows=...):
        """``scores`` over the ``rows`` mask (default: every household),
        reduced over sorted values."""
        composite = scores.composite[rows]
        n_ready = int(np.count_nonzero(scores.ready[rows]))
        return cls(
            market=label,
            n_users=composite.size,
            mean_composite=float(np.sort(composite).mean()),
            n_ready=n_ready,
            ready_ci=wilson_interval(n_ready, composite.size),
            use_case_means=tuple(
                (name, float(np.sort(values[rows]).mean()))
                for name, values in scores.use_case_scores.items()
            ),
        )

    @property
    def ready_share(self) -> float:
        return self.n_ready / self.n_users

    def to_payload(self) -> dict:
        return {
            "market": self.market,
            "n_users": self.n_users,
            "mean_composite": round(self.mean_composite, 12),
            "n_ready": self.n_ready,
            "ready_share": round(self.ready_share, 12),
            "ready_ci_low": round(self.ready_ci.low, 12),
            "ready_ci_high": round(self.ready_ci.high, 12),
            "use_case_means": {
                name: round(value, 12)
                for name, value in self.use_case_means
            },
        }


def market_barometer(
    users: UserColumns,
    config: IqbConfig | None = None,
    *,
    min_users: int = _MIN_MARKET_USERS,
) -> tuple[MarketScore, ...]:
    """Aggregate household scores per market (country), name order.

    Markets with fewer than ``min_users`` households are dropped —
    a two-household "market" mean is noise, not a barometer. Reductions
    run over sorted values so cache-loaded and freshly built worlds
    (whose row orders may differ) aggregate to identical floats.
    """
    config = resolve_iqb_config(config)
    scores = score_columns(users, config)
    countries = users.current("country")
    markets = []
    for country in np.unique(countries):
        mask = countries == country
        if np.count_nonzero(mask) >= min_users:
            markets.append(
                MarketScore.aggregate(country.decode("utf-8"), scores, mask)
            )
    obs.count("iqb.markets", len(markets))
    return tuple(markets)


# ---------------------------------------------------------------------------
# The IQB-vs-demand natural experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IqbExperimentResult:
    """Top-vs-bottom composite-tercile demand experiment."""

    config_name: str
    experiment: MatchedExperimentResult
    n_control: int
    n_treatment: int
    #: Capacity classes whose composite terciles fed the arms.
    n_classes: int


def iqb_experiment(
    users: UserColumns,
    config: IqbConfig | None = None,
    *,
    metric: str = "mean",
    include_bt: bool = False,
) -> IqbExperimentResult:
    """Does a higher barometer score predict demand beyond capacity?

    Households are grouped into the paper's power-of-two capacity
    classes and tercile-split on the composite score *within* each
    class: control pools every class's bottom tercile, treatment the
    top (class by class, users in order within a class). A global
    split would put the arms in different capacity tiers outright (the
    composite is capacity-heavy) and the capacity caliper would then
    discard every candidate pair; the within-class split keeps both
    arms in every tier. Pairs are further matched on capacity and
    access price, so a holding verdict means quality-of-experience —
    not the capacity tier it correlates with — moves demand. Extends
    the paper's Table 7/8 single-metric experiments to the full
    use-case composite.
    """
    config = resolve_iqb_config(config)
    if users.n_users < _MIN_EXPERIMENT_USERS:
        raise AnalysisError(
            f"the IQB experiment needs at least {_MIN_EXPERIMENT_USERS} "
            f"households, got {users.n_users}"
        )
    with obs.span(f"iqb/experiment/{config.name}"):
        composite = score_columns(users, config).composite
        classes = capacity_class_spec().index_of_array(
            users.capacity_down_mbps
        )
        control: list[np.ndarray] = []
        treatment: list[np.ndarray] = []
        for klass in np.unique(classes):
            if klass < 0:
                continue
            members = np.flatnonzero(classes == klass)
            if members.size < _MIN_CLASS_USERS:
                continue
            class_scores = composite[members]
            low = float(np.quantile(class_scores, 1.0 / 3.0))
            high = float(np.quantile(class_scores, 2.0 / 3.0))
            if not low < high:
                continue
            control.append(members[class_scores <= low])
            treatment.append(members[class_scores >= high])
        if not control:
            raise AnalysisError(
                f"IQB config {config.name!r}: no capacity class has "
                f">= {_MIN_CLASS_USERS} households with distinct "
                "composite terciles"
            )
        control_users = users.take(np.concatenate(control))
        treatment_users = users.take(np.concatenate(treatment))
        result = matched_experiment(
            f"iqb[{config.name}] bottom vs top tercile",
            control_users,
            treatment_users,
            confounders=_IQB_CONFOUNDERS,
            outcome=demand_outcome(metric, include_bt),
            hypothesis="higher use-case quality increases demand",
        )
    obs.count("iqb.experiments.run")
    return IqbExperimentResult(
        config_name=config.name,
        experiment=result,
        n_control=control_users.n_users,
        n_treatment=treatment_users.n_users,
        n_classes=len(control),
    )


# ---------------------------------------------------------------------------
# The barometer: one result, rendered as report text and as JSON.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IqbBarometer:
    """The barometer over one dataset pair, floats unrounded: the one
    result :func:`format_iqb_report` and :func:`iqb_payload` render."""

    config: IqbConfig
    #: Panel-wide scores: ``Dasu``, then ``FCC`` when it has households.
    populations: tuple[MarketScore, ...]
    markets: tuple[MarketScore, ...]
    #: The IQB-vs-demand experiment, or why it was skipped.
    experiment: IqbExperimentResult | str


def iqb_barometer(
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    config: IqbConfig | None = None,
) -> IqbBarometer:
    """Population scores, markets and the IQB-vs-demand experiment."""
    config = resolve_iqb_config(config)
    if dasu.n_users == 0:
        raise AnalysisError("the IQB barometer needs Dasu households")
    with obs.span(f"iqb/report/{config.name}"):
        populations = tuple(
            MarketScore.aggregate(label, score_columns(users, config))
            for label, users in (("Dasu", dasu), ("FCC", fcc))
            if users is not None and users.n_users
        )
        markets = market_barometer(dasu, config)
        try:
            experiment = iqb_experiment(dasu, config)
        except AnalysisError as exc:
            experiment = str(exc)
    return IqbBarometer(config, populations, markets, experiment)


def format_iqb_report(barometer: IqbBarometer) -> str:
    """The barometer block: population scores, markets, experiment."""
    lines = [f"Internet quality barometer (config {barometer.config.name!r})"]
    for score in barometer.populations:
        ci = score.ready_ci
        lines.append(
            f"  {score.market}: {score.n_users} households, composite "
            f"{score.mean_composite:.3f}, fully ready "
            f"{100 * score.n_ready / score.n_users:.1f}% "
            f"[{100 * ci.low:.1f}%, {100 * ci.high:.1f}%]"
        )
        for name, value in score.use_case_means:
            lines.append(f"    {name:<18} mean score {value:.3f}")
    shown = barometer.markets[:12]
    lines.append(
        f"  markets (>= {_MIN_MARKET_USERS} households, "
        f"{len(shown)} of {len(barometer.markets)} shown):"
    )
    for market in shown:
        lines.append(
            f"    {market.market:<14} n={market.n_users:<6} "
            f"composite {market.mean_composite:.3f}  ready "
            f"{100 * market.ready_share:5.1f}% "
            f"[{100 * market.ready_ci.low:.1f}%, "
            f"{100 * market.ready_ci.high:.1f}%]"
        )
    experiment = barometer.experiment
    if isinstance(experiment, str):
        lines.append(f"  IQB-vs-demand experiment skipped: {experiment}")
    else:
        result = experiment.experiment.result
        verdict = "holds" if result.rejects_null else "null retained"
        lines.append(
            f"  IQB vs demand (within-class terciles over "
            f"{experiment.n_classes} capacity classes, "
            f"capacity+price matched): H holds "
            f"{100 * result.fraction_holds:.1f}% of "
            f"{result.n_pairs} pairs, p={result.p_value:.3g} "
            f"-> {verdict}"
        )
    return "\n".join(lines)


def iqb_payload(barometer: IqbBarometer) -> dict:
    """JSON-ready barometer payload (``iqb.json``, ``/iqb.json``).

    Deterministic for a fixed dataset: floats are rounded to 12 digits
    and reductions sort first, so warm/cold caches and any ``--jobs``
    value serialize byte-identically.
    """
    payload: dict = {
        "config": barometer.config.to_payload(),
        "markets": [m.to_payload() for m in barometer.markets],
    }
    for score in barometer.populations:  # under "dasu" and "fcc"
        payload[score.market.lower()] = score.to_payload()
        del payload[score.market.lower()]["market"]
    experiment = barometer.experiment
    if isinstance(experiment, str):
        payload["experiment"] = {"skipped": experiment}
    else:
        result = experiment.experiment.result
        payload["experiment"] = {
            "name": result.name,
            "n_control": experiment.n_control,
            "n_treatment": experiment.n_treatment,
            "n_classes": experiment.n_classes,
            "n_pairs": result.n_pairs,
            "fraction_holds": round(result.fraction_holds, 12),
            "p_value": round(result.p_value, 12),
            "significant": bool(result.statistically_significant),
            "rejects_null": bool(result.rejects_null),
        }
    return payload
