"""Analysis-ready records."""

import pytest

from repro.core.upgrades import NetworkId, ServicePeriod
from tests.analysis.record_model import PeriodObservation, UserRecord, period_year
from repro.exceptions import DatasetError


def make_period(start=10.0, capacity=5.0, prefix="10.0.0.0/24"):
    return ServicePeriod(
        user_id="u1",
        network=NetworkId("ISP", prefix, "City"),
        start_day=start,
        end_day=start + 2.0,
        capacity_mbps=capacity,
        mean_mbps=0.2,
        peak_mbps=1.0,
        mean_no_bt_mbps=0.15,
        peak_no_bt_mbps=0.8,
    )


def make_observation(start=10.0, capacity=5.0, prefix="10.0.0.0/24", latency=50.0):
    return PeriodObservation(
        period=make_period(start, capacity, prefix),
        latency_ms=latency,
        loss_fraction=0.001,
        capacity_up_mbps=1.0,
        n_ndt_tests=10,
        n_usage_samples=2000,
    )


def make_record(observations=None, **overrides):
    if observations is None:
        observations = (make_observation(),)
    kwargs = dict(
        user_id="u1",
        source="dasu",
        country="US",
        region="North America",
        development="developed",
        vantage="direct",
        technology="dsl",
        bt_user=True,
        observations=tuple(observations),
        price_of_access_usd=20.0,
        upgrade_cost_usd_per_mbps=0.6,
        gdp_per_capita_usd=49_797.0,
    )
    kwargs.update(overrides)
    return UserRecord(**kwargs)


class TestPeriodYear:
    def test_epoch(self):
        assert period_year(make_period(start=0.0)) == 2011

    def test_second_year(self):
        assert period_year(make_period(start=400.0)) == 2012

    def test_third_year(self):
        assert period_year(make_period(start=800.0)) == 2013


class TestUserRecord:
    def test_current_is_last(self):
        record = make_record(
            [make_observation(10.0, 2.0), make_observation(400.0, 8.0, "p2")]
        )
        assert record.capacity_down_mbps == 8.0

    def test_demand_accessors(self):
        record = make_record()
        assert record.demand("peak", include_bt=True) == 1.0
        assert record.demand("peak", include_bt=False) == 0.8
        assert record.demand("mean", include_bt=True) == 0.2
        assert record.demand("mean", include_bt=False) == 0.15

    def test_unknown_metric_rejected(self):
        with pytest.raises(DatasetError):
            make_record().demand("max")

    def test_peak_utilization(self):
        # Uses the no-BT peak (0.8 Mbps) over the 2 Mbps capacity.
        record = make_record([make_observation(capacity=2.0)])
        assert record.peak_utilization == pytest.approx(0.4)

    def test_peak_utilization_clipped(self):
        obs = make_observation(capacity=0.5)
        record = make_record([obs])
        assert record.peak_utilization == 1.0

    def test_switched_service_detection(self):
        same = make_record(
            [make_observation(10.0), make_observation(400.0)]
        )
        assert not same.switched_service
        switched = make_record(
            [make_observation(10.0), make_observation(400.0, prefix="p2")]
        )
        assert switched.switched_service

    def test_observation_in_year(self):
        record = make_record(
            [make_observation(10.0, 2.0), make_observation(400.0, 8.0, "p2")]
        )
        assert record.observation_in_year(2011).period.capacity_mbps == 2.0
        assert record.observation_in_year(2012).period.capacity_mbps == 8.0
        assert record.observation_in_year(2013) is None

    def test_unordered_observations_rejected(self):
        with pytest.raises(DatasetError):
            make_record(
                [make_observation(400.0), make_observation(10.0, prefix="p2")]
            )

    def test_empty_observations_rejected(self):
        with pytest.raises(DatasetError):
            make_record([])

    def test_invalid_source_rejected(self):
        with pytest.raises(DatasetError):
            make_record(source="mystery")

    def test_observation_validation(self):
        with pytest.raises(DatasetError):
            PeriodObservation(
                period=make_period(),
                latency_ms=0.0,
                loss_fraction=0.0,
                capacity_up_mbps=1.0,
                n_ndt_tests=1,
                n_usage_samples=10,
            )
