"""Unit tests for the sanitization rules and their accounting."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets.io import write_users_csv
from repro.datasets.sanitize import (
    MIN_NDT_TESTS,
    RuleStats,
    SanitizationReport,
    dedup_samples,
    ingest_users,
    repair_wraps,
    sanitize_columns,
    sanitize_samples,
    strip_sentinels,
)
from repro.exceptions import DatasetError
from repro.faults.injector import RESET_SENTINEL_MBPS, wrap_quantum_mbps
from tests.analysis.record_model import (
    PeriodObservation,
    UserRecord,
    from_records,
    sanitize_users,
    to_records,
)

INTERVAL_S = 30.0
QUANTUM = wrap_quantum_mbps(INTERVAL_S)


def make_obs(
    user_id: str = "u1",
    network: NetworkId | None = None,
    start_day: float = 0.0,
    end_day: float = 1.0,
    capacity: float = 20.0,
    mean: float = 1.0,
    peak: float = 5.0,
    n_ndt_tests: int = 10,
    n_usage_samples: int = 2000,
    **kwargs,
) -> PeriodObservation:
    period = ServicePeriod(
        user_id=user_id,
        network=network or NetworkId("isp", "1.2.3.0/24", "city"),
        start_day=start_day,
        end_day=end_day,
        capacity_mbps=capacity,
        mean_mbps=mean,
        peak_mbps=peak,
        mean_no_bt_mbps=kwargs.pop("mean_no_bt", mean),
        peak_no_bt_mbps=kwargs.pop("peak_no_bt", peak),
    )
    return PeriodObservation(
        period=period,
        latency_ms=kwargs.pop("latency_ms", 40.0),
        loss_fraction=kwargs.pop("loss_fraction", 0.001),
        capacity_up_mbps=kwargs.pop("capacity_up", 2.0),
        n_ndt_tests=n_ndt_tests,
        n_usage_samples=n_usage_samples,
        **kwargs,
    )


def make_user(
    user_id: str = "u1",
    observations: tuple[PeriodObservation, ...] | None = None,
    source: str = "dasu",
) -> UserRecord:
    return UserRecord(
        user_id=user_id,
        source=source,
        country="US",
        region="North America",
        development="developed",
        vantage="upnp" if source == "dasu" else "gateway",
        technology="cable",
        bt_user=False,
        observations=observations or (make_obs(user_id=user_id),),
        price_of_access_usd=25.0,
        upgrade_cost_usd_per_mbps=2.0,
        gdp_per_capita_usd=50000.0,
    )


class TestReport:
    def test_rule_stats_merge(self):
        a = RuleStats(examined=10, repaired=2, dropped=1)
        a.merge(RuleStats(examined=5, repaired=1, dropped=4))
        assert (a.examined, a.repaired, a.dropped) == (15, 3, 5)

    def test_report_merge_is_additive(self):
        a, b = SanitizationReport(), SanitizationReport()
        a.rule("counter_wrap").repaired = 3
        a.samples_in, a.samples_kept = 100, 97
        b.rule("counter_wrap").repaired = 2
        b.rule("counter_reset").dropped = 5
        b.users_in, b.users_kept = 10, 9
        a.merge(b)
        assert a.rule("counter_wrap").repaired == 5
        assert a.rule("counter_reset").dropped == 5
        assert (a.samples_in, a.samples_kept) == (100, 97)
        assert (a.users_in, a.users_kept) == (10, 9)
        assert a.total_repaired == 5
        assert a.total_dropped == 5

    def test_payload_round_trip(self):
        report = SanitizationReport()
        report.rule("counter_wrap").repaired = 7
        report.rule("ndt_failure").dropped = 2
        report.users_in, report.users_kept = 50, 48
        report.periods_in, report.periods_kept = 80, 75
        report.samples_in, report.samples_kept = 1000, 990
        payload = json.loads(json.dumps(report.to_payload()))
        restored = SanitizationReport.from_payload(payload)
        assert restored.to_payload() == report.to_payload()

    def test_format_lists_every_rule(self):
        report = SanitizationReport()
        report.rule("counter_wrap").repaired = 1
        report.rule("duplicate_sample").dropped = 2
        text = report.format()
        assert "counter_wrap" in text
        assert "duplicate_sample" in text
        assert "sanitization report" in text


class TestRepairWraps:
    def test_clean_rates_untouched(self):
        rates = np.array([0.0, 10.0, 900.0])
        out = repair_wraps(rates, INTERVAL_S)
        assert np.array_equal(out, rates)

    def test_single_wrap_repaired_exactly(self):
        clean = np.array([3.5, 120.0, 0.25])
        wrapped = clean + QUANTUM
        report = SanitizationReport()
        out = repair_wraps(wrapped, INTERVAL_S, report)
        assert np.allclose(out, clean, atol=1e-9)
        assert report.rule("counter_wrap").repaired == 3

    def test_multiple_wraps_repaired(self):
        clean = np.array([42.0])
        out = repair_wraps(clean + 3 * QUANTUM, INTERVAL_S)
        assert out[0] == pytest.approx(42.0, abs=1e-9)

    def test_bad_interval_rejected(self):
        with pytest.raises(DatasetError):
            repair_wraps(np.array([1.0]), 0.0)


class TestStripSentinels:
    def test_removes_down_sentinels(self):
        rates = np.array([1.0, RESET_SENTINEL_MBPS, 3.0])
        bt = np.array([False, True, False])
        hours = np.array([1.0, 2.0, 3.0])
        report = SanitizationReport()
        out_r, out_bt, out_h, out_up = strip_sentinels(
            rates, bt, hours, None, report
        )
        assert np.array_equal(out_r, [1.0, 3.0])
        assert np.array_equal(out_h, [1.0, 3.0])
        assert out_up is None
        assert report.rule("counter_reset").dropped == 1
        assert report.rule("counter_reset").examined == 3

    def test_up_sentinel_drops_whole_sample(self):
        rates = np.array([1.0, 2.0])
        up = np.array([0.5, RESET_SENTINEL_MBPS])
        out_r, _, _, out_up = strip_sentinels(
            rates, np.zeros(2, bool), np.arange(2.0), up
        )
        assert np.array_equal(out_r, [1.0])
        assert np.array_equal(out_up, [0.5])

    def test_clean_arrays_returned_unchanged(self):
        rates = np.array([1.0, 2.0])
        out_r, _, _, _ = strip_sentinels(
            rates, np.zeros(2, bool), np.arange(2.0), None
        )
        assert out_r is rates


class TestDedupSamples:
    def test_collapses_runs_to_first_copy(self):
        rates = np.array([1.0, 1.0, 1.0, 2.0])
        hours = np.array([5.0, 5.0, 5.0, 6.0])
        bt = np.zeros(4, bool)
        report = SanitizationReport()
        out_r, _, out_h, _ = dedup_samples(rates, bt, hours, None, report)
        assert np.array_equal(out_r, [1.0, 2.0])
        assert report.rule("duplicate_sample").dropped == 2

    def test_equal_rates_different_timestamps_kept(self):
        rates = np.array([1.0, 1.0])
        hours = np.array([5.0, 6.0])
        out_r, _, _, _ = dedup_samples(rates, np.zeros(2, bool), hours, None)
        assert np.array_equal(out_r, [1.0, 1.0])


class TestSanitizeSamples:
    def test_gateway_interval_none_disables_wrap_repair(self):
        # An hourly record above the *hourly* wrap quantum is a fast
        # line, not a wrap; with 64-bit counters nothing is repaired.
        fast = np.array([wrap_quantum_mbps(3600.0) * 2])
        out_r, _, _, _ = sanitize_samples(
            fast, np.zeros(1, bool), np.array([4.0]), None,
            counter_interval_s=None,
        )
        assert np.array_equal(out_r, fast)

    def test_full_pass_accounts_samples(self):
        rates = np.array([1.0, RESET_SENTINEL_MBPS, 2.0, 2.0])
        hours = np.array([1.0, 2.0, 3.0, 3.0])
        report = SanitizationReport()
        out_r, _, _, _ = sanitize_samples(
            rates, np.zeros(4, bool), hours, None,
            counter_interval_s=INTERVAL_S, report=report,
        )
        assert np.array_equal(out_r, [1.0, 2.0])
        assert report.samples_in == 4
        assert report.samples_kept == 2


def sanitize(users: list[UserRecord]):
    """The record-level rules over columns, held to the record oracle:
    the same kept rows and the same report."""
    kept, report = sanitize_columns(from_records(users))
    expected, expected_report = sanitize_users(users)
    assert kept.rows.tobytes() == from_records(expected).rows.tobytes()
    assert report.to_payload() == expected_report.to_payload()
    return list(to_records(kept)), report


class TestSanitizeUsers:
    def test_clean_user_survives_intact(self):
        user = make_user()
        kept, report = sanitize([user])
        assert kept == [user]
        assert report.users_kept == 1
        assert report.total_dropped == 0

    def test_duplicate_period_collapsed(self):
        obs = make_obs()
        user = make_user(observations=(obs, obs))
        kept, report = sanitize([user])
        assert len(kept) == 1
        assert len(kept[0].observations) == 1
        assert report.rule("duplicate_period").dropped == 1

    def test_ndt_failure_period_excluded(self):
        bad = make_obs(n_ndt_tests=MIN_NDT_TESTS - 1)
        good = make_obs(start_day=10.0, end_day=11.0)
        user = make_user(observations=(bad, good))
        kept, report = sanitize([user])
        assert len(kept[0].observations) == 1
        assert kept[0].observations[0].period.start_day == 10.0
        assert report.rule("ndt_failure").dropped == 1

    def test_invalid_values_period_excluded(self):
        bad = make_obs(peak=math.nan, peak_no_bt=math.nan)
        user = make_user(observations=(bad,))
        kept, report = sanitize([user])
        assert kept == []
        assert report.rule("invalid_values").dropped == 1
        assert report.users_kept == 0

    def test_short_observation_user_excluded(self):
        # 10 samples x 30 s is far below the minimum observed days.
        thin = make_obs(n_usage_samples=10)
        user = make_user(observations=(thin,))
        kept, report = sanitize([user])
        assert kept == []
        assert report.rule("short_observation").dropped == 1

    def test_gateway_observation_floor_uses_hourly_interval(self):
        # 10 hourly records = 10 h of wall clock, above the 0.05-day floor.
        obs = make_obs(user_id="f1", n_usage_samples=10)
        user = make_user(user_id="f1", observations=(obs,), source="fcc")
        kept, _ = sanitize([user])
        assert kept == [user]


class TestIngestUsers:
    def test_clean_csv_round_trips(self, tmp_path):
        users = [make_user(user_id=f"u{i}") for i in range(3)]
        path = tmp_path / "users.csv"
        write_users_csv(from_records(users), path)
        kept, report = ingest_users(path)
        assert list(kept.user_ids) == [u.user_id for u in users]
        assert report.rule("malformed_row").dropped == 0

    def test_malformed_rows_dropped_and_counted(self, tmp_path):
        users = [make_user(user_id=f"u{i}") for i in range(3)]
        path = tmp_path / "users.csv"
        write_users_csv(from_records(users), path)
        lines = path.read_text().splitlines()
        # Truncate one data row mid-field: it can no longer parse.
        lines[1] = lines[1].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        kept, report = ingest_users(path)
        assert report.rule("malformed_row").dropped >= 1
        assert kept.n_users < len(users)
        assert all(user_id.startswith("u") for user_id in kept.user_ids)

    def test_strict_reader_still_raises(self, tmp_path):
        from repro.datasets.io import read_users_csv

        users = [make_user()]
        path = tmp_path / "users.csv"
        write_users_csv(from_records(users), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((ValueError, TypeError, KeyError, DatasetError)):
            read_users_csv(path)
