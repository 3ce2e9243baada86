"""Sec. 7 — connection quality and demand.

* :func:`table7` — latency experiment: the very-high-latency group
  (512-2048 ms) against each lower-latency group;
* :func:`figure11` — India-vs-rest latency CDFs (NDT '11-'13, NDT '14,
  Web '14) plus the matched India-vs-US demand comparison;
* :func:`table8` — packet-loss experiment;
* :func:`figure12` — India-vs-rest packet-loss CDF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.binning import LATENCY_BINS_MS, LOSS_BINS_FRACTION, Bin, explicit_bins
from ..core.stats import ecdf
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..units import fraction_to_percent
from .common import MatchedExperimentResult, demand_outcome, matched_experiment

__all__ = [
    "Figure11Result",
    "Figure12Result",
    "Table7Result",
    "Table8Result",
    "figure11",
    "figure12",
    "table7",
    "table8",
]


# ---------------------------------------------------------------------------
# Table 7: latency.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityExperimentRow:
    """One control-vs-treatment quality comparison."""

    control_bin: Bin
    treatment_bin: Bin
    paper_percent: float
    experiment: MatchedExperimentResult


@dataclass(frozen=True)
class Table7Result:
    rows: tuple[QualityExperimentRow, ...]
    group_sizes: tuple[int, ...]


#: Confounders for the latency experiment: capacity and loss must match
#: (Sec. 7: "similar in terms of link capacity and location", with loss
#: held similar when testing latency); price covariates pin the market.
_TABLE7_CONFOUNDERS = ("capacity", "loss", "price_of_access")

#: The paper's Table 7 "% H holds" values, by treatment bin (ms).
_TABLE7_PAPER = {
    (0.0, 64.0): 63.5,
    (64.0, 128.0): 63.4,
    (128.0, 256.0): 59.4,
    (256.0, 512.0): 56.3,
}


def table7(
    users: UserColumns,
    metric: str = "peak",
    include_bt: bool = False,
    confounders: Sequence[str] = _TABLE7_CONFOUNDERS,
) -> Table7Result:
    """Does decreasing latency raise peak demand?

    Control is the problematically-high-latency group (512, 2048] ms;
    each lower-latency bin is a treatment. Outcome: 95th-percentile
    usage without BitTorrent (Table 7 of the paper).
    """
    bins = explicit_bins(LATENCY_BINS_MS)
    grouped = bins.index_of_array(users.latency_ms)
    control_bin = bins[len(bins) - 1]
    control = users.select_users(grouped == len(bins) - 1)
    if control.n_users == 0:
        raise AnalysisError("no users in the (512, 2048] ms control group")
    outcome = demand_outcome(metric, include_bt)
    rows = []
    for index in range(len(bins) - 1):
        treatment_bin = bins[index]
        treatment = users.select_users(grouped == index)
        if treatment.n_users == 0:
            continue
        result = matched_experiment(
            f"{control_bin.label('ms')} vs {treatment_bin.label('ms')}",
            control,
            treatment,
            confounders,
            outcome,
            hypothesis="lower latency increases demand",
        )
        if result.result.n_pairs == 0:
            continue
        rows.append(
            QualityExperimentRow(
                control_bin=control_bin,
                treatment_bin=treatment_bin,
                paper_percent=_TABLE7_PAPER[(treatment_bin.low, treatment_bin.high)],
                experiment=result,
            )
        )
    return Table7Result(rows=tuple(rows), group_sizes=_group_sizes(grouped, bins))


def _group_sizes(grouped: np.ndarray, bins) -> tuple[int, ...]:
    """Users per bin, from per-user bin indices."""
    return tuple(int(np.count_nonzero(grouped == i)) for i in range(len(bins)))


# ---------------------------------------------------------------------------
# Figure 11: India's latency, and its demand consequence.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure11Result:
    """Latency CDFs for India vs the rest of the population."""

    india_ndt_cdf: tuple[np.ndarray, np.ndarray]
    other_ndt_cdf: tuple[np.ndarray, np.ndarray]
    india_ndt14_cdf: tuple[np.ndarray, np.ndarray] | None
    other_ndt14_cdf: tuple[np.ndarray, np.ndarray] | None
    india_web_cdf: tuple[np.ndarray, np.ndarray] | None
    other_web_cdf: tuple[np.ndarray, np.ndarray] | None
    india_median_ndt_ms: float
    other_median_ndt_ms: float
    share_india_above_100ms: float
    india_vs_us: MatchedExperimentResult

    @property
    def india_lower_demand_share(self) -> float:
        """Fraction of matched pairs where the Indian user demands less.

        The paper reports 62% (India users impose *lower* demand than
        matched US users, despite the higher access price).
        """
        result = self.india_vs_us.result
        if result.n_pairs == 0:
            return float("nan")
        return 1.0 - result.fraction_holds


def _maybe_ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    if values.size < 5:
        return None
    return ecdf(values)


def _india_split(users: UserColumns, figure: int) -> tuple[np.ndarray, np.ndarray]:
    """(India, rest) user masks; raises unless both are populated."""
    india = users.country_mask("India")
    if india.all() or not india.any():
        raise AnalysisError(
            f"figure {figure} needs Indian and non-Indian users"
        )
    return india, ~india


def _measured(
    users: UserColumns, field: str, flag: str
) -> tuple[np.ndarray, np.ndarray]:
    """An optional follow-up measurement per user, and the mask of users
    where it is present and non-zero (a zero is no measurement)."""
    values = users.current(field)
    return values, users.current(flag) & (values != 0)


def figure11(users: UserColumns) -> Figure11Result:
    """India-vs-rest latency validation and demand comparison (Fig. 11)."""
    india, other = _india_split(users, 11)

    india_ndt = users.latency_ms[india]
    other_ndt = users.latency_ms[other]

    # The 2014 follow-up (NDT re-measurement and web probes) covers the
    # subset of users that were still reachable.
    ndt14, has_ndt14 = _measured(
        users, "ndt_2014_latency_ms", "has_ndt_2014_latency"
    )
    web, has_web = _measured(users, "web_latency_ms", "has_web_latency")

    india_vs_us = matched_experiment(
        "US (control) vs India (treatment) demand",
        users.select_users(users.country_mask("US")),
        users.select_users(india),
        confounders=("capacity",),
        outcome=demand_outcome("peak", include_bt=False),
        hypothesis="Indian users demand more than capacity-matched US users",
    )

    return Figure11Result(
        india_ndt_cdf=ecdf(india_ndt),
        other_ndt_cdf=ecdf(other_ndt),
        india_ndt14_cdf=_maybe_ecdf(ndt14[india & has_ndt14]),
        other_ndt14_cdf=_maybe_ecdf(ndt14[other & has_ndt14]),
        india_web_cdf=_maybe_ecdf(web[india & has_web]),
        other_web_cdf=_maybe_ecdf(web[other & has_web]),
        india_median_ndt_ms=float(np.median(india_ndt)),
        other_median_ndt_ms=float(np.median(other_ndt)),
        share_india_above_100ms=float(np.mean(india_ndt > 100.0)),
        india_vs_us=india_vs_us,
    )


# ---------------------------------------------------------------------------
# Table 8: packet loss.
# ---------------------------------------------------------------------------


#: The paper's Table 8 rows: (control bin, treatment bin, % H holds).
_TABLE8_LAYOUT: tuple[tuple[tuple[float, float], tuple[float, float], float], ...] = (
    ((0.001, 0.01), (0.0, 0.0001), 55.4),
    ((0.001, 0.01), (0.0001, 0.001), 53.4),
    ((0.01, 0.15), (0.0, 0.0001), 58.9),
    ((0.01, 0.15), (0.0001, 0.001), 53.8),
)

#: Confounders for the loss experiment: capacity and latency must match.
_TABLE8_CONFOUNDERS = ("capacity", "latency", "price_of_access")


@dataclass(frozen=True)
class Table8Result:
    rows: tuple[QualityExperimentRow, ...]
    group_sizes: tuple[int, ...]


def table8(
    users: UserColumns,
    metric: str = "mean",
    include_bt: bool = False,
    confounders: Sequence[str] = _TABLE8_CONFOUNDERS,
) -> Table8Result:
    """Does decreasing packet loss raise average demand? (Table 8)."""
    bins = explicit_bins(LOSS_BINS_FRACTION)
    grouped = bins.index_of_array(users.loss_fraction)
    outcome = demand_outcome(metric, include_bt)
    rows = []
    for control_edges, treatment_edges, paper in _TABLE8_LAYOUT:
        control_index = bins.index_of(
            (control_edges[0] + control_edges[1]) / 2.0
        )
        treatment_index = bins.index_of(
            (treatment_edges[0] + treatment_edges[1]) / 2.0
        )
        assert control_index is not None and treatment_index is not None
        control_bin, treatment_bin = bins[control_index], bins[treatment_index]
        control = users.select_users(grouped == control_index)
        treatment = users.select_users(grouped == treatment_index)
        if control.n_users == 0 or treatment.n_users == 0:
            continue
        label = (
            f"({fraction_to_percent(control_bin.low):g}%, "
            f"{fraction_to_percent(control_bin.high):g}%] vs "
            f"({fraction_to_percent(treatment_bin.low):g}%, "
            f"{fraction_to_percent(treatment_bin.high):g}%]"
        )
        result = matched_experiment(
            label,
            control,
            treatment,
            confounders,
            outcome,
            hypothesis="lower loss increases demand",
        )
        if result.result.n_pairs == 0:
            continue
        rows.append(
            QualityExperimentRow(
                control_bin=control_bin,
                treatment_bin=treatment_bin,
                paper_percent=paper,
                experiment=result,
            )
        )
    return Table8Result(rows=tuple(rows), group_sizes=_group_sizes(grouped, bins))


@dataclass(frozen=True)
class Figure12Result:
    """Packet-loss CDFs for India vs the rest of the population."""

    india_loss_pct_cdf: tuple[np.ndarray, np.ndarray]
    other_loss_pct_cdf: tuple[np.ndarray, np.ndarray]
    india_median_loss_pct: float
    other_median_loss_pct: float


def figure12(users: UserColumns) -> Figure12Result:
    """India-vs-rest packet loss (Fig. 12)."""
    india_mask, other_mask = _india_split(users, 12)
    loss_pct = fraction_to_percent(users.loss_fraction)
    india, other = loss_pct[india_mask], loss_pct[other_mask]
    return Figure12Result(
        india_loss_pct_cdf=ecdf(india),
        other_loss_pct_cdf=ecdf(other),
        india_median_loss_pct=float(np.median(india)),
        other_median_loss_pct=float(np.median(other)),
    )
