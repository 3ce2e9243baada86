"""NDT-style performance tests.

M-Lab's Network Diagnostic Tool reports the upload and download capacity
of a connection, its end-to-end latency and its packet-loss rate
(Sec. 2.2). The simulated test transfers for a fixed duration against the
nearest measurement server and reports:

* **download/upload** — the line rate net of test inefficiency, bounded
  by the TCP ceiling the path's true RTT and the loss *observed during
  the test* allow;
* **rtt** — true path RTT plus jitter and self-queueing when the
  household is busy;
* **loss** — the empirical loss fraction over the test's packets (so
  clean lines often report exactly zero on a single test).

Analyses estimate a user's capacity as the *maximum* download over their
tests, matching the paper's use of maximum measured capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import MeasurementError
from ..network.path import NetworkPath
from ..network.tcp import mathis_throughput_mbps
from ..network.technology import TECH_PROFILES
from ..units import mbps_to_bytes_per_sec

__all__ = ["NdtClient", "NdtResult"]

#: Duration of one NDT transfer, in seconds.
TEST_DURATION_S = 10.0
#: Approximate packet size of the test stream, in bytes.
PACKET_BYTES = 1500
#: Parallel streams of the capacity test. NDT deployments of the era used
#: large windows and multi-stream configurations (and satellite services
#: deploy performance-enhancing proxies), so the measured capacity is far
#: less RTT-limited than a single default-window TCP flow would be.
TEST_FLOWS = 12


@dataclass(frozen=True)
class NdtResult:
    """One NDT test outcome."""

    day: float
    download_mbps: float
    upload_mbps: float
    rtt_ms: float
    loss_fraction: float

    def __post_init__(self) -> None:
        if self.download_mbps <= 0 or self.upload_mbps <= 0:
            raise MeasurementError("measured capacities must be positive")
        if self.rtt_ms <= 0:
            raise MeasurementError("measured RTT must be positive")
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise MeasurementError("measured loss must be in [0, 1]")


class NdtClient:
    """Runs simulated NDT tests over a household's path."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def _tester(self, path: NetworkPath) -> Callable[[float, float], NdtResult]:
        """One test over ``path``: ``test(day, cross_traffic_mbps)``.

        Everything that holds for the whole campaign (the path's true
        RTT and combined loss, the link rates, the PEP RTT, the bound
        generator methods) is looked up once here. Each test still draws
        jitter, then per direction an efficiency uniform and a loss
        binomial, in that order: the draws interleave across types, so
        they cannot be batched without changing the stream.
        """
        normal, uniform, binomial = (
            self._rng.normal, self._rng.uniform, self._rng.binomial
        )
        true_rtt = path.ndt_rtt_ms
        true_loss = path.loss_fraction
        sized_loss = max(true_loss, 1e-7)
        down_mbps = path.link.download_mbps
        up_mbps = path.link.upload_mbps
        # Satellite services run performance-enhancing proxies that split
        # the TCP connection, so the throughput test does not pay the full
        # space-segment RTT (the reported latency still does).
        pep = TECH_PROFILES[path.link.technology].pep_rtt_ms

        def throughput(
            line_rate_mbps: float, rtt_ms: float, cross_traffic_mbps: float
        ) -> tuple[float, float]:
            """(measured throughput, observed loss) for one direction."""
            available = max(0.02, line_rate_mbps - cross_traffic_mbps)
            # First pass: estimate transfer rate to size the packet sample.
            ceiling = mathis_throughput_mbps(
                rtt_ms, sized_loss, n_flows=TEST_FLOWS
            )
            efficiency = float(uniform(0.9, 1.0))
            rough = min(available * efficiency, ceiling)
            # Empirical loss over the test's packet count.
            n_packets = max(
                50,
                int(
                    mbps_to_bytes_per_sec(max(rough, 0.1))
                    * TEST_DURATION_S
                    / PACKET_BYTES
                ),
            )
            observed_loss = binomial(n_packets, true_loss) / n_packets
            if observed_loss > 0.0:
                ceiling = mathis_throughput_mbps(
                    rtt_ms, observed_loss, n_flows=TEST_FLOWS
                )
            measured = max(0.01, min(available * efficiency, ceiling))
            return measured, observed_loss

        def test(day: float, cross_traffic_mbps: float) -> NdtResult:
            jitter = float(np.exp(normal(0.0, 0.08)))
            queueing = 0.0
            if cross_traffic_mbps > 0:
                occupancy = min(0.95, cross_traffic_mbps / max(down_mbps, 0.01))
                queueing = 120.0 * occupancy**2
            rtt = true_rtt * jitter + queueing
            tcp_rtt = rtt if pep is None else min(rtt, pep)
            down, down_loss = throughput(down_mbps, tcp_rtt, cross_traffic_mbps)
            up, _ = throughput(up_mbps, tcp_rtt, cross_traffic_mbps * 0.1)
            return NdtResult(
                day=day,
                download_mbps=down,
                upload_mbps=up,
                rtt_ms=rtt,
                loss_fraction=down_loss,
            )

        return test

    def run_test(
        self,
        path: NetworkPath,
        day: float,
        cross_traffic_mbps: float = 0.0,
    ) -> NdtResult:
        """Run one test at ``day`` (fractional days into the window).

        ``cross_traffic_mbps`` is concurrent household traffic, which both
        steals capacity and queues the test's packets (bufferbloat-style
        latency inflation).
        """
        if cross_traffic_mbps < 0:
            raise MeasurementError("cross traffic cannot be negative")
        return self._tester(path)(day, cross_traffic_mbps)

    def run_tests(
        self,
        path: NetworkPath,
        n_tests: int,
        window_days: tuple[float, float],
        busy_probability: float = 0.2,
        typical_cross_traffic_mbps: float = 0.0,
    ) -> list[NdtResult]:
        """Run a campaign of tests spread uniformly over a window.

        Each test finds the household busy with ``busy_probability``, and
        then competes with 0.3-1.5x ``typical_cross_traffic_mbps``.
        """
        if n_tests < 1:
            raise MeasurementError("a campaign needs at least one test")
        lo, hi = window_days
        if hi <= lo:
            raise MeasurementError("empty test window")
        if typical_cross_traffic_mbps < 0:
            raise MeasurementError(
                "typical cross traffic cannot be negative, got "
                f"{typical_cross_traffic_mbps}"
            )
        if not 0.0 <= busy_probability <= 1.0:
            raise MeasurementError(
                f"busy probability must be in [0, 1], got {busy_probability}"
            )
        days = np.sort(self._rng.uniform(lo, hi, n_tests))
        test = self._tester(path)
        random, uniform = self._rng.random, self._rng.uniform
        results = []
        for day in days.tolist():
            cross = 0.0
            if typical_cross_traffic_mbps > 0 and random() < busy_probability:
                cross = typical_cross_traffic_mbps * float(uniform(0.3, 1.5))
            results.append(test(day, cross))
        return results
