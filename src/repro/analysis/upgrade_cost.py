"""Sec. 6 — the cost of increasing capacity.

* :func:`figure10` — CDF across countries of the monthly cost of +1 Mbps;
* :func:`table5` — regional shares of countries above $1 / $5 / $10;
* :func:`table6` — matched experiment across cost-of-upgrade classes;
* :func:`correlation_summary` — the Sec. 6 strong/moderate correlation shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ..core.binning import UPGRADE_COST_BINS_USD, explicit_bins
from ..core.stats import ecdf
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..market.economy import TABLE5_REGIONS
from ..market.survey import PlanSurvey
from .common import MatchedExperimentResult, demand_outcome, matched_experiment

__all__ = [
    "Figure10Result",
    "Table5Result",
    "Table6Result",
    "correlation_summary",
    "figure10",
    "table5",
    "table6",
]


# ---------------------------------------------------------------------------
# Figure 10: the cost-of-upgrade distribution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure10Result:
    """CDF of upgrade costs across qualifying markets."""

    costs_by_country: Mapping[str, float]
    cdf: tuple[np.ndarray, np.ndarray]

    @property
    def n_countries(self) -> int:
        return len(self.costs_by_country)

    def cost_for(self, country: str) -> float | None:
        return self.costs_by_country.get(country)

    def quantile_of(self, country: str) -> float | None:
        """Where a country falls in the distribution (fraction below it)."""
        cost = self.cost_for(country)
        if cost is None:
            return None
        costs = np.array(sorted(self.costs_by_country.values()))
        return float(np.searchsorted(costs, cost, side="left") / costs.size)


def figure10(survey: PlanSurvey) -> Figure10Result:
    """CDF of the monthly cost of +1 Mbps over all qualifying markets.

    Only markets whose price~capacity correlation is at least moderate
    (r > 0.4) carry a meaningful slope, per the paper.
    """
    costs = survey.upgrade_costs()
    positive = {c: v for c, v in costs.items() if v > 0}
    if len(positive) < 2:
        raise AnalysisError("too few qualifying markets for a distribution")
    return Figure10Result(
        costs_by_country=positive,
        cdf=ecdf(np.array(list(positive.values()))),
    )


def correlation_summary(survey: PlanSurvey) -> tuple[float, float]:
    """(share of strongly correlated, share of at least moderately
    correlated) markets — the paper reports 66% and 81%."""
    return survey.correlation_shares()


# ---------------------------------------------------------------------------
# Table 5: regional aggregation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table5Row:
    region: str
    n_countries: int
    share_above_1: float
    share_above_5: float
    share_above_10: float


@dataclass(frozen=True)
class Table5Result:
    rows: tuple[Table5Row, ...]

    #: The paper's Table 5 shares per region label (>$1, >$5, >$10).
    PAPER_VALUES: ClassVar[Mapping[str, tuple[float, float, float]]] = {
        "Africa": (1.00, 0.84, 0.74),
        "Asia (all)": (0.67, 0.47, 0.33),
        "Asia (developed)": (0.00, 0.00, 0.00),
        "Asia (developing)": (0.83, 0.58, 0.42),
        "Central America/Caribbean": (1.00, 0.86, 0.14),
        "Europe": (0.10, 0.00, 0.00),
        "Middle East": (0.86, 0.57, 0.43),
        "North America": (0.00, 0.00, 0.00),
        "South America": (0.78, 0.55, 0.33),
    }

    def row_for(self, region: str) -> Table5Row:
        for row in self.rows:
            if row.region == region:
                return row
        raise AnalysisError(f"no Table 5 row for {region!r}")


def table5(survey: PlanSurvey) -> Table5Result:
    """Share of countries per region where +1 Mbps exceeds $1/$5/$10."""
    costs = survey.upgrade_costs()
    per_row: dict[str, list[float]] = {label: [] for label in TABLE5_REGIONS}
    for country, cost in costs.items():
        economy = survey.market(country).economy
        for label in economy.table5_rows():
            per_row[label].append(cost)
    rows = []
    for label in TABLE5_REGIONS:
        values = np.array(per_row[label])
        if values.size == 0:
            rows.append(Table5Row(label, 0, float("nan"), float("nan"), float("nan")))
            continue
        rows.append(
            Table5Row(
                region=label,
                n_countries=int(values.size),
                share_above_1=float(np.mean(values > 1.0)),
                share_above_5=float(np.mean(values > 5.0)),
                share_above_10=float(np.mean(values > 10.0)),
            )
        )
    return Table5Result(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Table 6: the upgrade-cost experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table6Result:
    """Both panels of Table 6 (average demand, with/without BitTorrent)."""

    include_bt: bool
    low_vs_mid: MatchedExperimentResult
    mid_vs_high: MatchedExperimentResult
    group_sizes: tuple[int, int, int]

    def rows(self) -> list[tuple[str, float, MatchedExperimentResult]]:
        paper = (53.8, 58.7) if self.include_bt else (52.2, 56.3)
        return [
            ("($0, $0.50] vs ($0.50, $1.00]", paper[0], self.low_vs_mid),
            ("($0.50, $1.00] vs ($1.00, inf)", paper[1], self.mid_vs_high),
        ]


#: Confounders for the upgrade-cost experiment: everything but the
#: upgrade cost itself.
_TABLE6_CONFOUNDERS = ("capacity", "latency", "loss", "price_of_access")


def table6(
    users: UserColumns,
    include_bt: bool = True,
    metric: str = "mean",
    confounders: Sequence[str] = _TABLE6_CONFOUNDERS,
) -> Table6Result:
    """Does a higher cost of +1 Mbps push demand up at fixed capacity?

    Markets are split at $0.50 and $1.00 per +1 Mbps; cheaper-upgrade
    markets are the control in each comparison. Outcome is average demand
    (the paper's Table 6 uses mean usage, with and without BitTorrent).
    """
    # A missing upgrade cost is NaN, which no class holds.
    groups = explicit_bins(UPGRADE_COST_BINS_USD).index_of_array(
        users.upgrade_cost_usd_per_mbps
    )
    low, mid, high = (users.select_users(groups == i) for i in range(3))
    if mid.n_users == 0:
        raise AnalysisError("no users in the middle upgrade-cost class")
    outcome = demand_outcome(metric, include_bt)
    return Table6Result(
        include_bt=include_bt,
        low_vs_mid=matched_experiment(
            "($0, $0.50] vs ($0.50, $1.00]",
            low,
            mid,
            confounders,
            outcome,
            hypothesis="a higher upgrade cost increases demand",
        ),
        mid_vs_high=matched_experiment(
            "($0.50, $1.00] vs ($1.00, inf)",
            mid,
            high,
            confounders,
            outcome,
            hypothesis="a higher upgrade cost increases demand",
        ),
        group_sizes=(low.n_users, mid.n_users, high.n_users),
    )
