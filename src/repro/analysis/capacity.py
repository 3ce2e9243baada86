"""Sec. 3 — impact of capacity on demand.

* :func:`figure2` — usage vs capacity, mean/peak, with/without BitTorrent;
* :func:`figure3` — FCC gateway users vs US Dasu users;
* :func:`table1` — the user-upgrade natural experiment;
* :func:`figure4` — slow-vs-fast network usage CDFs;
* :func:`figure5` — demand change by initial service tier;
* :func:`table2` — matched adjacent-capacity-class experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.binning import UPGRADE_TIERS_MBPS, Bin, capacity_class_spec, explicit_bins
from ..core.experiments import ExperimentResult, NaturalExperiment
from ..core.stats import ConfidenceInterval, ecdf, mean_confidence_interval, percentile
from ..core.upgrades import UpgradeObservation, slow_fast_stays
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from .common import (
    BinnedCurve,
    MatchedExperimentResult,
    binned_demand_curve,
    demand_outcome,
    matched_experiment,
)

__all__ = [
    "Figure2Result",
    "Figure3Result",
    "Figure4Result",
    "Figure5Result",
    "Table1Result",
    "Table2Result",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "table2",
    "upgrade_observations",
]


# ---------------------------------------------------------------------------
# Figures 2 and 3: binned usage curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Result:
    """The four panels of Fig. 2 (mean/peak x with/without BitTorrent)."""

    mean_with_bt: BinnedCurve
    peak_with_bt: BinnedCurve
    mean_no_bt: BinnedCurve
    peak_no_bt: BinnedCurve

    def panels(self) -> tuple[tuple[str, BinnedCurve], ...]:
        return (
            ("(a) mean w/ BT", self.mean_with_bt),
            ("(b) 95th %ile w/ BT", self.peak_with_bt),
            ("(c) mean no BT", self.mean_no_bt),
            ("(d) 95th %ile no BT", self.peak_no_bt),
        )

    @property
    def min_correlation(self) -> float:
        return min(curve.correlation for _, curve in self.panels())

    def demand_elasticity(self) -> float:
        """Log-log slope of peak demand (no BT) against class capacity.

        1.0 would mean demand proportional to capacity (constant
        utilization); the paper's data — and this reproduction — sit far
        below that.
        """
        points = [p for p in self.peak_no_bt.points if p.average > 0]
        if len(points) < 3:
            raise AnalysisError("too few classes for an elasticity fit")
        x = np.asarray([math.log(p.center_mbps) for p in points])
        y = np.asarray([math.log(p.average) for p in points])
        xd = x - x.mean()
        return float((xd @ (y - y.mean())) / (xd @ xd))

    def diminishing_returns(self, elasticity_threshold: float = 0.85) -> bool:
        """The paper's law of diminishing returns.

        Demand must grow clearly sub-proportionally with capacity (adding
        capacity to an already wide line yields only a minor demand
        increment), i.e. peak-demand elasticity well below 1, with peak
        utilization lower in the top class than in the bottom one.
        """
        points = self.peak_no_bt.points
        if len(points) < 3:
            raise AnalysisError("too few classes")
        first, last = points[0], points[-1]
        utilization_falls = (
            last.average / last.center_mbps < first.average / first.center_mbps
        )
        return utilization_falls and self.demand_elasticity() < elasticity_threshold


def figure2(users: UserColumns) -> Figure2Result:
    """Compute the four usage-vs-capacity panels of Fig. 2."""
    return Figure2Result(
        mean_with_bt=binned_demand_curve(users, "mean", include_bt=True),
        peak_with_bt=binned_demand_curve(users, "peak", include_bt=True),
        mean_no_bt=binned_demand_curve(users, "mean", include_bt=False),
        peak_no_bt=binned_demand_curve(users, "peak", include_bt=False),
    )


@dataclass(frozen=True)
class Figure3Result:
    """FCC vs US-Dasu comparison (both without BitTorrent for Dasu)."""

    fcc_mean: BinnedCurve
    fcc_peak: BinnedCurve
    dasu_us_mean: BinnedCurve
    dasu_us_peak: BinnedCurve

    def _ratio(self, fcc: BinnedCurve, dasu: BinnedCurve) -> float:
        """Median per-class Dasu/FCC demand ratio over shared classes."""
        ratios = []
        for point in dasu.points:
            other = fcc.point_for(point.center_mbps)
            if other is not None and other.average > 0:
                ratios.append(point.average / other.average)
        if not ratios:
            return math.nan
        return float(np.median(ratios))

    @property
    def mean_ratio_dasu_over_fcc(self) -> float:
        """Expected slightly above 1 (Dasu sampling is peak-hour biased)."""
        return self._ratio(self.fcc_mean, self.dasu_us_mean)

    @property
    def peak_ratio_dasu_over_fcc(self) -> float:
        """Expected near 1 ("peak usage is nearly identical")."""
        return self._ratio(self.fcc_peak, self.dasu_us_peak)


def figure3(dasu_users: UserColumns, fcc_users: UserColumns) -> Figure3Result:
    """Compare FCC gateway users with US Dasu users (Fig. 3)."""
    dasu_us = dasu_users.select_users(dasu_users.country_mask("US"))
    if dasu_us.n_users == 0 or fcc_users.n_users == 0:
        raise AnalysisError("figure 3 needs both US Dasu and FCC users")
    return Figure3Result(
        fcc_mean=binned_demand_curve(fcc_users, "mean", include_bt=True),
        fcc_peak=binned_demand_curve(fcc_users, "peak", include_bt=True),
        dasu_us_mean=binned_demand_curve(dasu_us, "mean", include_bt=False),
        dasu_us_peak=binned_demand_curve(dasu_us, "peak", include_bt=False),
    )


# ---------------------------------------------------------------------------
# Table 1 and Figure 4: the user-upgrade natural experiment.
# ---------------------------------------------------------------------------


def upgrade_observations(users: UserColumns) -> list[UpgradeObservation]:
    """Each user's slow-vs-fast network observation, where one exists
    (see :func:`~repro.core.upgrades.slow_fast_stays`); service periods
    are built only for the stays of the users that qualify."""
    rows = users.rows
    capacity = rows["capacity_mbps"].tolist()
    network = list(zip(*(rows[f].tolist() for f in ("isp", "prefix", "city"))))
    observations = []
    for start, count in zip(users.user_starts.tolist(), users.user_counts.tolist()):
        stop = start + count
        pair = slow_fast_stays(capacity[start:stop], network[start:stop])
        if pair is None:
            continue
        slow, fast = start + pair[0], start + pair[1]
        slow_period = users.service_period(slow)
        observations.append(
            UpgradeObservation(
                user_id=slow_period.user_id,
                slow=slow_period,
                fast=users.service_period(fast),
            )
        )
    return observations


@dataclass(frozen=True)
class Table1Result:
    """The upgrade experiment for average and peak demand (no BT)."""

    average: ExperimentResult
    peak: ExperimentResult
    n_observations: int

    def rows(self) -> list[tuple[str, float, ExperimentResult]]:
        """(metric, paper %, result) rows."""
        return [
            ("Average usage", 66.8, self.average),
            ("Peak usage", 70.3, self.peak),
        ]


def table1(users: UserColumns, include_bt: bool = False) -> Table1Result:
    """Test whether individual users' demand rises on faster networks.

    Control is the user's own behavior on the slower network, treatment
    the behavior on the faster one (Table 1 of the paper; BitTorrent
    intervals excluded by default, as in the published numbers).
    """
    observations = upgrade_observations(users)
    if not observations:
        raise AnalysisError("no users observed on two networks")

    suffix = "" if include_bt else "_no_bt"

    def outcomes(metric: str) -> tuple[list[float], list[float]]:
        """(slow-network, fast-network) values of one demand metric."""
        column = f"{metric}{suffix}_mbps"
        return (
            [getattr(o.slow, column) for o in observations],
            [getattr(o.fast, column) for o in observations],
        )

    average = NaturalExperiment(
        "upgrade: average usage",
        hypothesis="moving to a faster service increases average demand",
    ).evaluate(*outcomes("mean"))
    peak = NaturalExperiment(
        "upgrade: peak usage",
        hypothesis="moving to a faster service increases peak demand",
    ).evaluate(*outcomes("peak"))
    return Table1Result(average=average, peak=peak, n_observations=len(observations))


@dataclass(frozen=True)
class Figure4Result:
    """CDFs of demand on users' slow vs fast networks (no BT)."""

    slow_mean_cdf: tuple[np.ndarray, np.ndarray]
    fast_mean_cdf: tuple[np.ndarray, np.ndarray]
    slow_peak_cdf: tuple[np.ndarray, np.ndarray]
    fast_peak_cdf: tuple[np.ndarray, np.ndarray]
    median_slow_mean_mbps: float
    median_fast_mean_mbps: float
    median_slow_peak_mbps: float
    median_fast_peak_mbps: float

    @property
    def mean_ratio_at_median(self) -> float:
        """Paper: average usage roughly doubles (95 -> 189 kbps)."""
        return self.median_fast_mean_mbps / self.median_slow_mean_mbps

    @property
    def peak_ratio_at_median(self) -> float:
        """Paper: peak usage more than triples (192 -> 634 kbps)."""
        return self.median_fast_peak_mbps / self.median_slow_peak_mbps


def figure4(users: UserColumns) -> Figure4Result:
    """Slow-vs-fast network usage distributions (Fig. 4)."""
    observations = upgrade_observations(users)
    if not observations:
        raise AnalysisError("no users observed on two networks")
    slow_mean = np.array([o.slow.mean_no_bt_mbps for o in observations])
    fast_mean = np.array([o.fast.mean_no_bt_mbps for o in observations])
    slow_peak = np.array([o.slow.peak_no_bt_mbps for o in observations])
    fast_peak = np.array([o.fast.peak_no_bt_mbps for o in observations])
    return Figure4Result(
        slow_mean_cdf=ecdf(slow_mean),
        fast_mean_cdf=ecdf(fast_mean),
        slow_peak_cdf=ecdf(slow_peak),
        fast_peak_cdf=ecdf(fast_peak),
        median_slow_mean_mbps=percentile(slow_mean, 50.0),
        median_fast_mean_mbps=percentile(fast_mean, 50.0),
        median_slow_peak_mbps=percentile(slow_peak, 50.0),
        median_fast_peak_mbps=percentile(fast_peak, 50.0),
    )


# ---------------------------------------------------------------------------
# Figure 5: demand change by before/after service tier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpgradeDeltaCell:
    """Average demand change for one (initial tier, target tier) group."""

    initial_tier: Bin
    target_tier: Bin
    n_switches: int
    delta: ConfidenceInterval


@dataclass(frozen=True)
class Figure5Result:
    """One panel of Fig. 5 (a chosen metric and BT treatment)."""

    metric: str
    include_bt: bool
    cells: tuple[UpgradeDeltaCell, ...]

    def cells_for_initial(self, tier: Bin) -> tuple[UpgradeDeltaCell, ...]:
        return tuple(c for c in self.cells if c.initial_tier == tier)

    def low_tier_gains_exceed_high(self) -> bool:
        """Diminishing returns: *relative* demand gains (normalized by the
        initial tier's capacity) shrink as the starting tier rises.

        Absolute deltas at the top tiers can be large but are wildly
        inconsistent (the paper's Fig. 5 shows confidence intervals
        spanning zero there), so the comparison is on relative gains.
        """
        def relative(cell: UpgradeDeltaCell) -> float:
            center = math.sqrt(cell.initial_tier.low * cell.initial_tier.high)
            return cell.delta.center / center

        low = [relative(c) for c in self.cells if c.initial_tier.high <= 4.0]
        high = [relative(c) for c in self.cells if c.initial_tier.low >= 16.0]
        if not low:
            raise AnalysisError("no low-tier upgrade cells")
        if not high:
            return True  # nobody upgrades from the top tiers: trivially true
        return float(np.mean(low)) > float(np.mean(high))


def figure5(
    users: UserColumns,
    metric: str = "peak",
    include_bt: bool = False,
    min_switches: int = 3,
) -> Figure5Result:
    """Average demand change per (initial, target) tier pair (Fig. 5)."""
    if metric not in ("mean", "peak"):
        raise AnalysisError(f"unknown metric {metric!r}")
    tiers = explicit_bins(UPGRADE_TIERS_MBPS)
    observations = upgrade_observations(users)

    def delta(obs: UpgradeObservation) -> float:
        if metric == "mean":
            if include_bt:
                return obs.fast.mean_mbps - obs.slow.mean_mbps
            return obs.fast.mean_no_bt_mbps - obs.slow.mean_no_bt_mbps
        if include_bt:
            return obs.fast.peak_mbps - obs.slow.peak_mbps
        return obs.fast.peak_no_bt_mbps - obs.slow.peak_no_bt_mbps

    grouped: dict[tuple[Bin, Bin], list[float]] = {}
    for obs in observations:
        initial = tiers.bin_of(obs.slow.capacity_mbps)
        target = tiers.bin_of(obs.fast.capacity_mbps)
        if initial is None or target is None:
            continue
        grouped.setdefault((initial, target), []).append(delta(obs))

    cells = [
        UpgradeDeltaCell(
            initial_tier=initial,
            target_tier=target,
            n_switches=len(deltas),
            delta=mean_confidence_interval(deltas),
        )
        for (initial, target), deltas in sorted(
            grouped.items(), key=lambda kv: (kv[0][0].low, kv[0][1].low)
        )
        if len(deltas) >= min_switches
    ]
    return Figure5Result(metric=metric, include_bt=include_bt, cells=tuple(cells))


# ---------------------------------------------------------------------------
# Table 2: matched adjacent-class experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One control-vs-treatment class comparison."""

    control_bin: Bin
    treatment_bin: Bin
    experiment: MatchedExperimentResult


@dataclass(frozen=True)
class Table2Result:
    """All adjacent-class comparisons for one dataset."""

    dataset: str
    rows: tuple[Table2Row, ...]

    def row_for(self, control_low_mbps: float) -> Table2Row | None:
        for row in self.rows:
            if math.isclose(row.control_bin.low, control_low_mbps, rel_tol=1e-6):
                return row
        return None


#: Confounders for the capacity experiment: everything except capacity
#: itself (Sec. 3.2: connection quality, price of access, cost to upgrade).
_TABLE2_CONFOUNDERS = ("latency", "loss", "price_of_access", "upgrade_cost")


def table2(
    users: UserColumns,
    dataset: str,
    metric: str = "peak",
    include_bt: bool = False,
    min_group_users: int = 15,
    confounders: Sequence[str] = _TABLE2_CONFOUNDERS,
) -> Table2Result:
    """Matched experiment: does the next capacity class raise demand?

    Users are grouped into the paper's capacity classes; each class ``k``
    is compared with class ``k+1``, matching users on connection quality
    and market confounders.
    """
    spec = capacity_class_spec()
    classes = spec.index_of_array(users.capacity_down_mbps)
    outcome = demand_outcome(metric, include_bt)
    rows: list[Table2Row] = []
    for k in range(len(spec) - 1):
        control_bin, treatment_bin = spec[k], spec[k + 1]
        control = users.select_users(classes == k)
        treatment = users.select_users(classes == k + 1)
        if (
            control.n_users < min_group_users
            or treatment.n_users < min_group_users
        ):
            continue
        name = f"{control_bin.label()} vs {treatment_bin.label()}"
        result = matched_experiment(
            name,
            control,
            treatment,
            confounders,
            outcome,
            hypothesis="higher capacity increases demand",
        )
        if result.result.n_pairs == 0:
            continue
        rows.append(Table2Row(control_bin, treatment_bin, result))
    return Table2Result(dataset=dataset, rows=tuple(rows))
