"""Sec. 5 — the price of broadband access.

* :func:`table3` — matched experiment across price-of-access groups;
* :func:`table4` — the four-market case study;
* :func:`figure7` — per-country capacity and peak-utilization CDFs;
* :func:`figure8` — peak-utilization CDFs per (country, tier);
* :func:`figure9` — average peak demand per (country, tier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ..core.binning import (
    CASE_STUDY_TIERS,
    PRICE_OF_ACCESS_BINS_USD,
    Bin,
    explicit_bins,
)
from ..core.stats import ecdf, percentile
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..market.affordability import cost_of_access_as_income_share
from ..market.countries import CASE_STUDY_COUNTRIES
from ..market.survey import PlanSurvey
from .common import MatchedExperimentResult, demand_outcome, matched_experiment

__all__ = [
    "Figure7Result",
    "Figure8Result",
    "Figure9Result",
    "Table3Result",
    "Table4Result",
    "Table4Row",
    "figure7",
    "figure8",
    "figure9",
    "table3",
    "table4",
]

#: Minimum users for a (country, tier) group to be reported, per Sec. 5.
MIN_TIER_USERS = 30


# ---------------------------------------------------------------------------
# Table 3: price-of-access experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table3Result:
    """The two price-group comparisons of Table 3."""

    low_vs_mid: MatchedExperimentResult
    low_vs_high: MatchedExperimentResult
    group_sizes: tuple[int, int, int]

    def rows(self) -> list[tuple[str, float, MatchedExperimentResult]]:
        return [
            ("($0, $25] vs ($25, $60]", 63.4, self.low_vs_mid),
            ("($0, $25] vs ($60, inf)", 72.2, self.low_vs_high),
        ]


#: Confounders for the price experiment: everything except price itself.
_TABLE3_CONFOUNDERS = ("capacity", "latency", "loss")


def table3(
    users: UserColumns,
    metric: str = "peak",
    include_bt: bool = False,
    confounders: Sequence[str] = _TABLE3_CONFOUNDERS,
) -> Table3Result:
    """Do users in more expensive markets demand more at equal capacity?

    Users are grouped by their market's price of broadband access
    (< $25, $25-60, > $60 monthly, USD PPP); cheaper markets are the
    control. Outcome is peak demand without BitTorrent, per the paper.
    """
    # A missing price is NaN, which no bin holds.
    groups = explicit_bins(PRICE_OF_ACCESS_BINS_USD).index_of_array(
        users.price_of_access_usd
    )
    low, mid, high = (users.select_users(groups == i) for i in range(3))
    if low.n_users == 0 or (mid.n_users == 0 and high.n_users == 0):
        raise AnalysisError("price groups are too empty for the experiment")
    outcome = demand_outcome(metric, include_bt)
    return Table3Result(
        low_vs_mid=matched_experiment(
            "($0, $25] vs ($25, $60]",
            low,
            mid,
            confounders,
            outcome,
            hypothesis="higher access price increases demand",
        ),
        low_vs_high=matched_experiment(
            "($0, $25] vs ($60, inf)",
            low,
            high,
            confounders,
            outcome,
            hypothesis="higher access price increases demand",
        ),
        group_sizes=(low.n_users, mid.n_users, high.n_users),
    )


# ---------------------------------------------------------------------------
# Table 4: the four-market case study.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table4Row:
    """One country row of Table 4."""

    country: str
    n_users: int
    median_capacity_mbps: float
    nearest_tier_mbps: float
    price_usd_ppp: float
    gdp_per_capita_usd: float
    cost_share_of_monthly_income: float


@dataclass(frozen=True)
class Table4Result:
    rows: tuple[Table4Row, ...]

    def row_for(self, country: str) -> Table4Row:
        for row in self.rows:
            if row.country == country:
                return row
        raise AnalysisError(f"no Table 4 row for {country!r}")

    #: The paper's values for comparison: (n, median, tier, price, gdp, share).
    PAPER_VALUES: ClassVar[
        Mapping[str, tuple[int, float, float, float, float, float]]
    ] = {
        "Botswana": (67, 0.517, 0.512, 100.0, 14_993.0, 0.080),
        "Saudi Arabia": (120, 4.21, 4.0, 79.0, 29_114.0, 0.033),
        "US": (3759, 17.6, 18.0, 53.0, 49_797.0, 0.013),
        "Japan": (73, 29.0, 26.0, 37.0, 34_532.0, 0.013),
    }


def table4(
    users: UserColumns,
    survey: PlanSurvey,
    countries: Sequence[str] = CASE_STUDY_COUNTRIES,
) -> Table4Result:
    """The "typical price of broadband" case study (Table 4).

    The typical service of a country is the plan nearest (log-scale) to
    the median measured capacity; its PPP price, as a share of monthly
    GDP per capita, is the affordability figure the paper highlights.
    """
    rows = []
    for country in countries:
        capacities = users.capacity_down_mbps[users.country_mask(country)]
        if not capacities.size:
            raise AnalysisError(f"no users for case-study country {country!r}")
        market = survey.market(country)
        median_capacity = percentile(capacities, 50.0)
        plan = market.nearest_plan(median_capacity)
        price = plan.monthly_price_usd_ppp
        rows.append(
            Table4Row(
                country=country,
                n_users=int(capacities.size),
                median_capacity_mbps=median_capacity,
                nearest_tier_mbps=plan.download_mbps,
                price_usd_ppp=price,
                gdp_per_capita_usd=market.economy.gdp_per_capita_ppp_usd,
                cost_share_of_monthly_income=cost_of_access_as_income_share(
                    price, market.economy
                ),
            )
        )
    return Table4Result(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Figures 7-9: capacity, utilization and demand across the four markets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountryCdfs:
    country: str
    n_users: int
    capacity_cdf: tuple[np.ndarray, np.ndarray]
    peak_utilization_cdf: tuple[np.ndarray, np.ndarray]
    median_capacity_mbps: float
    mean_peak_utilization: float


@dataclass(frozen=True)
class Figure7Result:
    countries: tuple[CountryCdfs, ...]

    def country(self, name: str) -> CountryCdfs:
        for entry in self.countries:
            if entry.country == name:
                return entry
        raise AnalysisError(f"no Fig. 7 entry for {name!r}")

    def utilization_order_reverses_capacity_order(self) -> bool:
        """The paper's observation: countries ordered by capacity appear in
        exactly reverse order when ordered by peak utilization."""
        by_capacity = sorted(
            self.countries, key=lambda c: c.median_capacity_mbps
        )
        by_utilization = sorted(
            self.countries, key=lambda c: c.mean_peak_utilization, reverse=True
        )
        return [c.country for c in by_capacity] == [
            c.country for c in by_utilization
        ]


def figure7(
    users: UserColumns,
    countries: Sequence[str] = CASE_STUDY_COUNTRIES,
) -> Figure7Result:
    """Per-country capacity and 95th-percentile utilization CDFs (Fig. 7)."""
    entries = []
    for country in countries:
        mask = users.country_mask(country)
        if not mask.any():
            raise AnalysisError(f"no users for country {country!r}")
        capacities = users.capacity_down_mbps[mask]
        utilizations = users.peak_utilization[mask]
        entries.append(
            CountryCdfs(
                country=country,
                n_users=int(capacities.size),
                capacity_cdf=ecdf(capacities),
                peak_utilization_cdf=ecdf(utilizations),
                median_capacity_mbps=float(np.median(capacities)),
                mean_peak_utilization=float(np.mean(utilizations)),
            )
        )
    return Figure7Result(countries=tuple(entries))


@dataclass(frozen=True)
class TierGroup:
    """One (country, capacity tier) cell of Figs. 8 and 9."""

    country: str
    tier: Bin
    n_users: int
    utilization_cdf: tuple[np.ndarray, np.ndarray]
    mean_peak_utilization: float
    median_peak_utilization: float
    mean_peak_demand_mbps: float


def _tier_groups(
    users: UserColumns,
    countries: Sequence[str],
    min_users: int,
) -> list[TierGroup]:
    tiers = explicit_bins(CASE_STUDY_TIERS)
    by_tier = tiers.index_of_array(users.capacity_down_mbps)
    groups = []
    for country in countries:
        in_country = users.country_mask(country)
        for i, tier in enumerate(tiers):
            members = in_country & (by_tier == i)
            n_members = int(np.count_nonzero(members))
            if n_members < min_users:
                continue
            utilizations = users.peak_utilization[members]
            peaks = users.current("peak_no_bt_mbps")[members]
            groups.append(
                TierGroup(
                    country=country,
                    tier=tier,
                    n_users=n_members,
                    utilization_cdf=ecdf(utilizations),
                    mean_peak_utilization=float(np.mean(utilizations)),
                    median_peak_utilization=float(np.median(utilizations)),
                    mean_peak_demand_mbps=float(np.mean(peaks)),
                )
            )
    return groups


@dataclass(frozen=True)
class Figure8Result:
    groups: tuple[TierGroup, ...]

    def group_for(self, country: str, tier_low: float) -> TierGroup | None:
        for group in self.groups:
            if group.country == country and math.isclose(
                group.tier.low, tier_low, rel_tol=1e-9, abs_tol=1e-9
            ):
                return group
        return None


def figure8(
    users: UserColumns,
    countries: Sequence[str] = CASE_STUDY_COUNTRIES,
    min_users: int = MIN_TIER_USERS,
) -> Figure8Result:
    """Peak-utilization CDFs per country and tier (Fig. 8)."""
    return Figure8Result(
        groups=tuple(_tier_groups(users, countries, min_users))
    )


@dataclass(frozen=True)
class Figure9Result:
    groups: tuple[TierGroup, ...]

    def demand_for(self, country: str, tier_low: float) -> float | None:
        for group in self.groups:
            if group.country == country and math.isclose(
                group.tier.low, tier_low, rel_tol=1e-9, abs_tol=1e-9
            ):
                return group.mean_peak_demand_mbps
        return None


def figure9(
    users: UserColumns,
    countries: Sequence[str] = CASE_STUDY_COUNTRIES,
    min_users: int = MIN_TIER_USERS,
) -> Figure9Result:
    """Average peak demand per country and tier (Fig. 9)."""
    return Figure9Result(
        groups=tuple(_tier_groups(users, countries, min_users))
    )
