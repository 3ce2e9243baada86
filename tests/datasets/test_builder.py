"""End-to-end world building.

The world under test is the session-scoped ``tiny_world`` fixture from
``tests/conftest.py`` (built once, shared with the io and fault tests).
"""

import collections

import numpy as np
import pytest

from repro.datasets import WorldConfig, build_world
from repro.datasets.records import UserRecord

from ..conftest import TINY_WORLD_CONFIG as TINY


class TestBuildWorld:
    def test_user_counts_near_target(self, tiny_world):
        # Some candidates never subscribe (priced out); most do.
        assert len(tiny_world.dasu.users) >= TINY.n_dasu_users * 0.7
        assert len(tiny_world.fcc.users) >= TINY.n_fcc_users * 0.9

    def test_fcc_users_all_us(self, tiny_world):
        assert all(u.country == "US" for u in tiny_world.fcc.users)
        assert all(u.source == "fcc" for u in tiny_world.fcc.users)
        assert all(u.vantage == "gateway" for u in tiny_world.fcc.users)

    def test_dasu_users_global(self, tiny_world):
        assert len({u.country for u in tiny_world.dasu.users}) > 10

    def test_us_is_largest_dasu_country(self, tiny_world):
        counts = collections.Counter(u.country for u in tiny_world.dasu.users)
        assert max(counts, key=counts.get) == "US"

    def test_ground_truth_covers_all_users(self, tiny_world):
        for user in tiny_world.all_users:
            assert user.user_id in tiny_world.ground_truth

    def test_records_well_formed(self, tiny_world):
        for user in tiny_world.all_users:
            assert isinstance(user, UserRecord)
            assert user.capacity_down_mbps > 0
            assert user.latency_ms > 0
            assert 0 <= user.loss_fraction <= 1
            # Note: the 95th percentile can sit *below* the mean for very
            # bursty series (a BitTorrent binge covering <5% of samples),
            # so we only check both statistics are sane rates.
            assert 0.0 <= user.peak_mbps
            assert 0.0 <= user.mean_mbps <= user.capacity_down_mbps * 1.5
            assert user.price_of_access_usd is not None

    def test_observations_ordered_and_disjoint(self, tiny_world):
        for user in tiny_world.all_users:
            periods = user.periods
            for before, after in zip(periods, periods[1:]):
                assert before.end_day <= after.start_day

    def test_some_users_switch_services(self, tiny_world):
        switchers = [u for u in tiny_world.dasu.users if u.switched_service]
        assert switchers

    def test_switchers_change_network_id(self, tiny_world):
        for user in tiny_world.dasu.users:
            if user.switched_service:
                networks = {o.period.network for o in user.observations}
                assert len(networks) > 1

    def test_market_covariates_attached(self, tiny_world):
        us_users = [u for u in tiny_world.dasu.users if u.country == "US"]
        assert us_users
        for user in us_users:
            assert user.price_of_access_usd < 30.0
            assert user.upgrade_cost_usd_per_mbps is not None

    def test_web_probe_fraction_respected(self, tiny_world):
        probed = [u for u in tiny_world.dasu.users if u.web_latency_ms]
        fraction = len(probed) / len(tiny_world.dasu.users)
        assert fraction == pytest.approx(TINY.web_probe_fraction, abs=0.15)

    def test_determinism(self):
        a = build_world(TINY)
        b = build_world(TINY)
        assert [u.user_id for u in a.all_users] == [u.user_id for u in b.all_users]
        assert [u.peak_mbps for u in a.all_users] == [
            u.peak_mbps for u in b.all_users
        ]
        assert [u.capacity_down_mbps for u in a.all_users] == [
            u.capacity_down_mbps for u in b.all_users
        ]

    def test_different_seed_different_world(self):
        other = build_world(
            WorldConfig(seed=12, n_dasu_users=150, n_fcc_users=40, days_per_year=1.0)
        )
        base = build_world(TINY)
        assert [u.peak_mbps for u in other.all_users] != [
            u.peak_mbps for u in base.all_users
        ]


class TestAblationSwitches:
    def test_no_price_selection_everyone_subscribes(self):
        config = WorldConfig(
            seed=11,
            n_dasu_users=150,
            n_fcc_users=0,
            days_per_year=1.0,
            price_selection_enabled=False,
        )
        world = build_world(config)
        # Without the budget gate, candidate draws never fail.
        assert len(world.dasu.users) >= 140

    def test_no_quality_suppression_raises_bad_link_demand(self):
        base = build_world(TINY)
        ablated = build_world(
            WorldConfig(
                seed=11,
                n_dasu_users=150,
                n_fcc_users=40,
                days_per_year=1.0,
                quality_suppression_enabled=False,
            )
        )

        def poor_quality_demand(world):
            users = [
                u
                for u in world.dasu.users
                if u.latency_ms > 300 or u.loss_fraction > 0.01
            ]
            return np.mean([u.peak_no_bt_mbps for u in users]) if users else None

        suppressed = poor_quality_demand(base)
        free = poor_quality_demand(ablated)
        assert suppressed is not None and free is not None
        assert free > suppressed
