"""Sec. 2.2 — characterization of the broadband connections (Fig. 1).

CDFs of maximum download capacity, average latency to the nearest NDT
server, and average packet-loss rate over every connection in the
dataset, plus the summary statistics the paper quotes in the text.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..core.stats import ecdf, percentile
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..units import fraction_to_percent

__all__ = ["Figure1Result", "figure1"]


@dataclass(frozen=True)
class EcdfSeries:
    """One CDF panel: sorted support and cumulative probabilities."""

    values: np.ndarray
    cumulative: np.ndarray


@dataclass(frozen=True)
class Figure1Result:
    """The three panels of Fig. 1 and the quoted summary statistics."""

    capacity_cdf: EcdfSeries
    latency_cdf: EcdfSeries
    loss_percent_cdf: EcdfSeries
    n_users: int
    median_capacity_mbps: float
    capacity_iqr_mbps: tuple[float, float]
    share_below_1mbps: float
    share_above_30mbps: float
    median_latency_ms: float
    share_latency_above_500ms: float
    share_loss_below_0_1pct: float
    share_loss_above_1pct: float
    share_loss_above_10pct: float

    def summary_rows(self) -> list[tuple[str, float, float]]:
        """(statistic, paper value, measured value) rows for reporting."""
        low, high = self.capacity_iqr_mbps
        return [
            ("median download capacity (Mbps)", 7.4, self.median_capacity_mbps),
            ("capacity IQR width (Mbps)", 14.3, high - low),
            ("share of users below 1 Mbps", 0.10, self.share_below_1mbps),
            ("share of users above 30 Mbps", 0.10, self.share_above_30mbps),
            ("median latency (ms)", 100.0, self.median_latency_ms),
            ("share with latency > 500 ms", 0.05, self.share_latency_above_500ms),
            ("share with loss < 0.1%", 0.70, self.share_loss_below_0_1pct),
            ("share with loss > 1%", 0.14, self.share_loss_above_1pct),
            ("share with loss > 10%", 0.01, self.share_loss_above_10pct),
        ]


def figure1(users: UserColumns) -> Figure1Result:
    """Compute Fig. 1 over every connection used in the analysis."""
    if users.n_users == 0:
        raise AnalysisError("figure 1 needs at least one user")
    capacities = users.capacity_down_mbps
    latencies = users.latency_ms
    losses_pct = fraction_to_percent(users.loss_fraction)

    cap_x, cap_p = ecdf(capacities)
    lat_x, lat_p = ecdf(latencies)
    loss_x, loss_p = ecdf(losses_pct)

    return Figure1Result(
        capacity_cdf=EcdfSeries(cap_x, cap_p),
        latency_cdf=EcdfSeries(lat_x, lat_p),
        loss_percent_cdf=EcdfSeries(loss_x, loss_p),
        n_users=users.n_users,
        median_capacity_mbps=percentile(capacities, 50.0),
        capacity_iqr_mbps=(
            percentile(capacities, 25.0),
            percentile(capacities, 75.0),
        ),
        share_below_1mbps=float(np.mean(capacities < 1.0)),
        share_above_30mbps=float(np.mean(capacities > 30.0)),
        median_latency_ms=percentile(latencies, 50.0),
        share_latency_above_500ms=float(np.mean(latencies > 500.0)),
        share_loss_below_0_1pct=float(np.mean(losses_pct < 0.1)),
        share_loss_above_1pct=float(np.mean(losses_pct > 1.0)),
        share_loss_above_10pct=float(np.mean(losses_pct > 10.0)),
    )
