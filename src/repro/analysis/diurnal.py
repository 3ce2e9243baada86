"""Diurnal usage profiles — an extension analysis.

Aggregates the per-period hourly usage profiles into population-level
day-shape curves: where the evening peak sits, how deep the overnight
trough is, and how the two collection channels differ in hour coverage
(the Dasu client's peak-hour bias vs. the FCC gateways' around-the-clock
records — the root cause of the Fig. 3 mean offset, seen directly).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError

__all__ = ["DiurnalProfile", "population_diurnal_profile"]


@dataclass(frozen=True)
class DiurnalProfile:
    """Population-average usage per local hour of day."""

    mean_mbps_by_hour: tuple[float, ...]  # 24 values, NaN where uncovered
    coverage_by_hour: tuple[int, ...]  # contributing periods per hour
    n_periods: int

    def __post_init__(self) -> None:
        if len(self.mean_mbps_by_hour) != 24 or len(self.coverage_by_hour) != 24:
            raise AnalysisError("diurnal profiles are 24-hour vectors")

    @property
    def peak_hour(self) -> int:
        values = np.asarray(self.mean_mbps_by_hour)
        if np.all(np.isnan(values)):
            raise AnalysisError("profile has no covered hours")
        return int(np.nanargmax(values))

    @property
    def trough_hour(self) -> int:
        values = np.asarray(self.mean_mbps_by_hour)
        if np.all(np.isnan(values)):
            raise AnalysisError("profile has no covered hours")
        return int(np.nanargmin(values))

    @property
    def peak_to_trough_ratio(self) -> float:
        values = np.asarray(self.mean_mbps_by_hour)
        trough = float(np.nanmin(values))
        if trough <= 0:
            return float("inf")
        return float(np.nanmax(values)) / trough

    def coverage_bias(self) -> float:
        """Evening-to-night coverage ratio — ~1 for an always-on
        collector, well above 1 for a peak-hour-biased one."""
        coverage = np.asarray(self.coverage_by_hour, dtype=float)
        evening = coverage[18:23].mean()
        night = coverage[1:6].mean()
        if night == 0:
            return float("inf")
        return float(evening / night)


def population_diurnal_profile(
    users: UserColumns,
    normalize: bool = True,
) -> DiurnalProfile:
    """Average the per-period hourly profiles across a population.

    With ``normalize`` each period's profile is scaled by its own mean
    first, so heavy users do not dominate the day shape.
    """
    totals = np.zeros(24)
    counts = np.zeros(24, dtype=int)
    n_periods = 0
    rows = users.rows
    # Every period with a profile, in user and observation order: the
    # running sums below add them in that order.
    for values in rows["hourly_mean_mbps"][rows["has_hourly"]]:
        finite = ~np.isnan(values)
        if not finite.any():
            continue
        if normalize:
            scale = float(values[finite].mean())
            if scale <= 0:
                continue
            values = values / scale
        n_periods += 1
        totals[finite] += values[finite]
        counts[finite] += 1
    if n_periods == 0:
        raise AnalysisError("no periods carry hourly profiles")
    means = np.full(24, np.nan)
    covered = counts > 0
    means[covered] = totals[covered] / counts[covered]
    return DiurnalProfile(
        mean_mbps_by_hour=tuple(float(v) for v in means),
        coverage_by_hour=tuple(int(c) for c in counts),
        n_periods=n_periods,
    )
