"""The ``-1`` sentinel contract, end to end.

Measurement clients *emit* sentinels (a reset/reboot makes an interval's
volume unknowable), the sanitize stage *owns dropping* them, and no
sentinel may ever reach a :class:`~repro.core.metrics.DemandSummary` —
``demand_summary`` treats a negative rate as a counter bug and raises.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.metrics import demand_summary
from repro.datasets import WorldConfig, build_world
from repro.datasets.sanitize import strip_sentinels
from repro.exceptions import AnalysisError
from repro.faults import fault_profile
from repro.faults.injector import RESET_SENTINEL_MBPS
from repro.measurement.netstat import deltas_from_netstat
from repro.measurement.upnp import deltas_from_readings
from repro.units import UINT32_WRAP
from tests.analysis.record_model import to_records


class TestClientsEmitSentinels:
    def test_upnp_reset_surfaces_as_sentinel(self):
        # A small decrease (< half the 32-bit range) is a gateway
        # reboot, not a wrap: the client must flag it, not guess.
        readings = np.array([1000, 2000, 500, 1500])
        deltas = deltas_from_readings(readings)
        assert deltas[1] == -1
        assert deltas[0] == 1000 and deltas[2] == 1000

    def test_upnp_wrap_corrected_not_flagged(self):
        readings = np.array([UINT32_WRAP - 100, 400])
        deltas = deltas_from_readings(readings)
        assert deltas[0] == 500

    def test_netstat_reboot_surfaces_as_sentinel(self):
        readings = np.array([5000, 9000, 100])
        deltas = deltas_from_netstat(readings)
        assert deltas[0] == 4000
        assert deltas[1] == -1


class TestSummariesRejectSentinels:
    def test_demand_summary_refuses_negative_rates(self):
        with pytest.raises(AnalysisError):
            demand_summary(np.array([1.0, RESET_SENTINEL_MBPS, 2.0]))

    def test_stripped_series_is_accepted(self):
        rates = np.array([1.0, RESET_SENTINEL_MBPS, 2.0])
        bt = np.zeros(3, dtype=bool)
        hours = np.array([1.0, 2.0, 3.0])
        clean, _, _, _ = strip_sentinels(rates, bt, hours, None)
        summary = demand_summary(clean)
        assert summary.n_samples == 2
        assert summary.mean_mbps == pytest.approx(1.5)


class TestSentinelsNeverReachRecords:
    """Even with sanitization *off*, the builder strips sentinels.

    ``heavy`` injects resets into ~2% of samples; a 40-user world
    collects ~100k Dasu samples, so resets certainly occur. Every
    surviving summary statistic must still be a finite, non-negative
    rate — proof the sentinel path ends at ``strip_sentinels``.
    """

    @pytest.fixture(scope="class")
    def faulted_unsanitized_world(self):
        return build_world(
            WorldConfig(
                seed=3,
                n_dasu_users=40,
                n_fcc_users=10,
                days_per_year=1.0,
                faults=fault_profile("heavy"),
                sanitize=False,
            )
        )

    def test_all_demand_statistics_non_negative(self, faulted_unsanitized_world):
        users = to_records(faulted_unsanitized_world.all_columns)
        assert users
        for user in users:
            for obs in user.observations:
                p = obs.period
                for value in (
                    p.mean_mbps,
                    p.peak_mbps,
                    p.mean_no_bt_mbps,
                    p.peak_no_bt_mbps,
                ):
                    assert math.isfinite(value) and value >= 0
                if obs.mean_up_mbps is not None:
                    assert obs.mean_up_mbps >= 0
                if obs.peak_up_mbps is not None:
                    assert obs.peak_up_mbps >= 0

    def test_unsanitized_world_has_no_report(self, faulted_unsanitized_world):
        assert faulted_unsanitized_world.sanitization is None
