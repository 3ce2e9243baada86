"""Straight-line references for the world builder's per-household kernels.

Each function here is the plain implementation a build kernel replaced:
``np.percentile`` itself, the 24 masked means of the hourly profile,
``Generator.choice`` for the archetype mix, the per-session draw loop
of the usage generator, one NDT test at a time, and local hours for
every sample of a series. The kernels in ``src/`` are held to these
exactly: same bits, and the generator left in the same state. Test
support only; nothing in ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.behavior.demand import DemandProcess
from repro.behavior.profiles import APPLICATION_PROFILES, ApplicationProfile
from repro.measurement.ndt import (
    PACKET_BYTES,
    TEST_DURATION_S,
    TEST_FLOWS,
    NdtResult,
)
from repro.network.path import NetworkPath
from repro.network.tcp import mathis_throughput_mbps
from repro.network.technology import TECH_PROFILES
from repro.traffic.bittorrent import draw_bt_sessions
from repro.traffic.diurnal import diurnal_weight
from repro.traffic.generator import IDLE_SHARE, MEAN_OFF_S, MEAN_ON_S, UsageSeries
from repro.traffic.sessions import draw_on_intervals
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR, mbps_to_bytes_per_sec


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def hourly_profile(rates_mbps, hours, min_samples_per_hour: int = 1):
    rates = np.asarray(rates_mbps, dtype=float)
    hrs = np.asarray(hours, dtype=float)
    if rates.size == 0:
        return None
    buckets = np.floor(hrs).astype(int) % 24
    profile = np.full(24, np.nan)
    for hour in range(24):
        mask = buckets == hour
        if int(mask.sum()) >= min_samples_per_hour:
            profile[hour] = float(rates[mask].mean())
    if int(np.sum(~np.isnan(profile))) < 12:
        return None
    return tuple(float(v) for v in profile)


def sample_profile(rng: np.random.Generator) -> ApplicationProfile:
    shares = np.array([share for _, share in APPLICATION_PROFILES])
    index = int(rng.choice(len(APPLICATION_PROFILES), p=shares / shares.sum()))
    return APPLICATION_PROFILES[index][0]


def generate_usage_series(
    demand: DemandProcess,
    duration_days: float,
    interval_s: float,
    rng: np.random.Generator,
    start_hour: float = 0.0,
) -> UsageSeries:
    duration_s = duration_days * SECONDS_PER_DAY
    n = int(round(duration_s / interval_s))
    rates = np.full(n, demand.offered_peak_mbps * IDLE_SHARE, dtype=float)
    rates *= rng.uniform(0.0, 2.0, n)

    intervals = draw_on_intervals(duration_s, MEAN_ON_S, MEAN_OFF_S, rng)
    if intervals.size:
        start_hours = (start_hour + intervals[:, 0] / SECONDS_PER_HOUR) % 24.0
        keep_prob = np.minimum(
            1.0, 1.6 * demand.activity_level * diurnal_weight(start_hours)
        )
        kept = rng.random(len(intervals)) < keep_prob
        intervals = intervals[kept]

    midpoints = (np.arange(n) + 0.5) * interval_s
    typical_rate = demand.offered_peak_mbps * demand.rate_median_share
    for t_start, t_end in intervals:
        lo = int(np.searchsorted(midpoints, t_start, side="left"))
        hi = int(np.searchsorted(midpoints, t_end, side="left"))
        if hi <= lo:
            continue
        session_rate = typical_rate * float(
            np.exp(rng.normal(0.0, demand.burstiness_sigma))
        )
        wobble = np.exp(rng.normal(0.0, 0.25, hi - lo))
        rates[lo:hi] = np.maximum(rates[lo:hi], session_rate * wobble)

    up_rates = rates * demand.upload_share * np.exp(rng.normal(0.0, 0.3, n))

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
            up_wobble = np.exp(rng.normal(0.0, 0.1, hi - lo))
            up_rates[lo:hi] = np.maximum(
                up_rates[lo:hi], 0.8 * demand.up_ceiling_mbps * up_wobble
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


def _ndt_throughput(
    rng: np.random.Generator,
    line_rate_mbps: float,
    rtt_ms: float,
    true_loss: float,
    cross_traffic_mbps: float,
) -> tuple[float, float]:
    available = max(0.02, line_rate_mbps - cross_traffic_mbps)
    ceiling = mathis_throughput_mbps(
        rtt_ms, max(true_loss, 1e-7), n_flows=TEST_FLOWS
    )
    efficiency = float(rng.uniform(0.9, 1.0))
    rough = min(available * efficiency, ceiling)
    n_packets = max(
        50,
        int(
            mbps_to_bytes_per_sec(max(rough, 0.1))
            * TEST_DURATION_S
            / PACKET_BYTES
        ),
    )
    observed_loss = rng.binomial(n_packets, true_loss) / n_packets
    if observed_loss > 0.0:
        ceiling = mathis_throughput_mbps(
            rtt_ms, observed_loss, n_flows=TEST_FLOWS
        )
    return max(0.01, min(available * efficiency, ceiling)), observed_loss


def ndt_test(
    rng: np.random.Generator,
    path: NetworkPath,
    day: float,
    cross_traffic_mbps: float = 0.0,
) -> NdtResult:
    jitter = float(np.exp(rng.normal(0.0, 0.08)))
    queueing = 0.0
    if cross_traffic_mbps > 0:
        occupancy = min(
            0.95, cross_traffic_mbps / max(path.link.download_mbps, 0.01)
        )
        queueing = 120.0 * occupancy**2
    rtt = path.ndt_rtt_ms * jitter + queueing
    pep = TECH_PROFILES[path.link.technology].pep_rtt_ms
    tcp_rtt = rtt if pep is None else min(rtt, pep)
    down, down_loss = _ndt_throughput(
        rng, path.link.download_mbps, tcp_rtt, path.loss_fraction,
        cross_traffic_mbps,
    )
    up, _ = _ndt_throughput(
        rng, path.link.upload_mbps, tcp_rtt, path.loss_fraction,
        cross_traffic_mbps * 0.1,
    )
    return NdtResult(
        day=day,
        download_mbps=down,
        upload_mbps=up,
        rtt_ms=rtt,
        loss_fraction=down_loss,
    )


def ndt_campaign(
    rng: np.random.Generator,
    path: NetworkPath,
    n_tests: int,
    window_days: tuple[float, float],
    busy_probability: float = 0.2,
    typical_cross_traffic_mbps: float = 0.0,
) -> list[NdtResult]:
    lo, hi = window_days
    days = np.sort(rng.uniform(lo, hi, n_tests))
    results = []
    for day in days:
        cross = 0.0
        if typical_cross_traffic_mbps > 0 and rng.random() < busy_probability:
            cross = typical_cross_traffic_mbps * float(rng.uniform(0.3, 1.5))
        results.append(ndt_test(rng, path, float(day), cross))
    return results


def series_hours(series: UsageSeries) -> np.ndarray:
    """Local hour of every sample of ``series``."""
    offsets_h = (
        (np.arange(series.n_samples) + 0.5) * series.interval_s / SECONDS_PER_HOUR
    )
    return (series.start_hour + offsets_h) % 24.0
