"""The household downlink rate series generator.

Composes the diurnal pattern, the on/off session process, per-session
rates, and the BitTorrent overlay into a sampled rate series, capped by
the effective capacity of the path (line rate or TCP ceiling, whichever
binds). This series is the ground truth that measurement clients sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..behavior.demand import DemandProcess
from ..exceptions import DatasetError
from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .bittorrent import draw_bt_sessions
from .diurnal import diurnal_weight
from .sessions import draw_on_intervals, intervals_to_mask

__all__ = ["UsageSeries", "generate_usage_series"]

#: Mean length of an active household session, in seconds (~50 min; long
#: sessions are what make hourly and 30-second peak estimates agree).
MEAN_ON_S = 3000.0
#: Mean gap between candidate sessions, in seconds.
MEAN_OFF_S = 4200.0
#: Idle "background" traffic (updates, sync, telemetry) as a share of the
#: household's offered peak.
IDLE_SHARE = 0.004


@dataclass(frozen=True)
class UsageSeries:
    """A sampled rate series for one household.

    ``rates_mbps[i]`` is the average downlink rate over sample interval
    ``i``; ``up_rates_mbps`` is the uplink counterpart (BitTorrent
    seeding dominates it for P2P households); ``bt_active[i]`` marks
    intervals with BitTorrent activity; ``start_hour`` is the local hour
    of sample 0.
    """

    interval_s: float
    start_hour: float
    rates_mbps: np.ndarray
    bt_active: np.ndarray
    up_rates_mbps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rates_mbps.shape != self.bt_active.shape:
            raise DatasetError("rates and BT flags must align")
        if (
            self.up_rates_mbps is not None
            and self.up_rates_mbps.shape != self.rates_mbps.shape
        ):
            raise DatasetError("uplink rates must align with downlink")

    @property
    def n_samples(self) -> int:
        return int(self.rates_mbps.size)

    @property
    def duration_days(self) -> float:
        return self.n_samples * self.interval_s / SECONDS_PER_DAY

    def hours(self) -> np.ndarray:
        """Local hour of day of each sample's midpoint."""
        return self.hours_at(np.arange(self.n_samples))

    def hours_at(self, slots: np.ndarray) -> np.ndarray:
        """Local hour of day of the midpoints of samples ``slots``.

        Element for element what :meth:`hours` computes, for only the
        samples a collector kept.
        """
        offsets_h = (slots + 0.5) * self.interval_s / SECONDS_PER_HOUR
        return (self.start_hour + offsets_h) % 24.0

    def without_bt(self) -> np.ndarray:
        """Rate samples outside BitTorrent-active intervals."""
        return self.rates_mbps[~self.bt_active]


def generate_usage_series(
    demand: DemandProcess,
    duration_days: float,
    interval_s: float,
    rng: np.random.Generator,
    start_hour: float = 0.0,
) -> UsageSeries:
    """Generate one household's downlink rate series.

    The household's candidate sessions come from an alternating renewal
    process; each candidate survives with probability proportional to the
    diurnal weight at its start (scaled by the household's activity
    level). Surviving sessions carry a lognormal rate around the
    household's typical session rate. BitTorrent households additionally
    run saturating BT sessions. Everything is capped at the effective
    capacity of the path.
    """
    if duration_days <= 0 or interval_s <= 0:
        raise DatasetError("duration and interval must be positive")
    duration_s = duration_days * SECONDS_PER_DAY
    n = int(round(duration_s / interval_s))
    if n < 10:
        raise DatasetError("window too short for a meaningful series")

    rates = np.full(
        n, demand.offered_peak_mbps * IDLE_SHARE, dtype=float
    )
    # Idle traffic flickers rather than hums.
    rates *= rng.uniform(0.0, 2.0, n)

    hours_at = lambda t_s: (start_hour + t_s / SECONDS_PER_HOUR) % 24.0

    intervals = draw_on_intervals(duration_s, MEAN_ON_S, MEAN_OFF_S, rng)
    if intervals.size:
        start_hours = hours_at(intervals[:, 0])
        keep_prob = np.minimum(
            1.0, 1.6 * demand.activity_level * diurnal_weight(start_hours)
        )
        kept = rng.random(len(intervals)) < keep_prob
        intervals = intervals[kept]

    midpoints = (np.arange(n) + 0.5) * interval_s
    typical_rate = demand.offered_peak_mbps * demand.rate_median_share
    los = np.searchsorted(midpoints, intervals[:, 0], side="left")
    his = np.searchsorted(midpoints, intervals[:, 1], side="left")
    live = his > los
    los, his = los[live], his[live]
    if los.size:
        # Each live session draws its level's normal, then one normal per
        # sample in which the rate wobbles around that level. One
        # standard-normal batch in that order, scaled the way
        # ``Generator.normal`` scales (``0.0 + sigma * z``), reads the
        # generator exactly as per-session ``rng.normal`` calls would.
        blocks = his - los + 1
        heads = np.cumsum(blocks) - blocks
        sigmas = np.full(int(blocks.sum()), 0.25)
        sigmas[heads] = demand.burstiness_sigma
        factors = np.exp(0.0 + sigmas * rng.standard_normal(sigmas.size))
        for head, lo, hi in zip(heads.tolist(), los.tolist(), his.tolist()):
            session_rate = typical_rate * float(factors[head])
            wobble = factors[head + 1 : head + 1 + hi - lo]
            rates[lo:hi] = np.maximum(rates[lo:hi], session_rate * wobble)

    # Uplink: requests/ACKs/uploads mirror the foreground downlink at the
    # household's upload share, with its own wobble.
    up_rates = rates * demand.upload_share * np.exp(
        rng.normal(0.0, 0.3, n)
    )

    bt_active = np.zeros(n, dtype=bool)
    if demand.bt_user:
        schedule = draw_bt_sessions(duration_s, rng)
        for (t_start, t_end), share in zip(
            schedule.intervals, schedule.rate_shares
        ):
            lo = int(np.searchsorted(midpoints, t_start, side="left"))
            hi = int(np.searchsorted(midpoints, t_end, side="left"))
            if hi <= lo:
                continue
            bt_rate = share * demand.ceiling_mbps
            wobble = np.exp(rng.normal(0.0, 0.1, hi - lo))
            rates[lo:hi] = np.maximum(rates[lo:hi], bt_rate * wobble)
            # Seeding saturates the (much thinner) uplink.
            up_wobble = np.exp(rng.normal(0.0, 0.1, hi - lo))
            up_rates[lo:hi] = np.maximum(
                up_rates[lo:hi],
                0.8 * demand.up_ceiling_mbps * up_wobble,
            )
            bt_active[lo:hi] = True

    np.minimum(rates, demand.ceiling_mbps, out=rates)
    np.minimum(up_rates, demand.up_ceiling_mbps, out=up_rates)
    return UsageSeries(
        interval_s=interval_s,
        start_hour=start_hour,
        rates_mbps=rates,
        bt_active=bt_active,
        up_rates_mbps=up_rates,
    )
