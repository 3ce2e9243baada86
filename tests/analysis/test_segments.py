"""User segmentation (the paper's future-work extension)."""

import pytest

from repro.analysis.segments import SEGMENTS, classify_users, segment_users
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError


class TestClassifyUser:
    def test_every_user_classified(self, dasu_users):
        segments = classify_users(dasu_users)
        assert segments.shape == (dasu_users.n_users,)
        assert set(segments.tolist()) <= set(SEGMENTS)

    def test_bt_users_are_bulk(self, dasu_users):
        segments = classify_users(dasu_users)
        bt_user = dasu_users.current("bt_user")
        assert bt_user.any()
        assert (segments[bt_user] == "bulk").all()
        assert not (segments[~bt_user] == "bulk").any()


class TestSegmentUsers:
    @pytest.fixture(scope="class")
    def result(self, dasu_users):
        return segment_users(dasu_users)

    def test_assignments_complete(self, result, dasu_users):
        assert len(result.assignments) == dasu_users.n_users

    def test_shares_sum_to_one(self, result):
        assert sum(result.shares.values()) == pytest.approx(1.0)

    def test_bulk_is_majority_in_p2p_panel(self, result):
        # The Dasu panel is recruited through a BitTorrent client.
        assert result.shares["bulk"] > 0.4

    def test_light_users_demand_least(self, result):
        light = result.profile("light")
        bursty = result.profile("bursty")
        assert light.median_peak_mbps < bursty.median_peak_mbps

    def test_sustained_users_run_links_hotter_than_light(self, result):
        sustained = result.profile("sustained")
        light = result.profile("light")
        assert sustained.mean_peak_utilization > light.mean_peak_utilization

    def test_profiles_have_counts(self, result):
        for profile in result.profiles:
            assert profile.n_users > 0

    def test_segments_correlate_with_ground_truth(self, small_world):
        """Validation only (never used by analyses): measured 'sustained'
        users over-represent the generative 'streamer' archetype."""
        result = segment_users(small_world.dasu.columns)
        truth = small_world.ground_truth

        def streamer_share(segment: str) -> float:
            members = [
                uid for uid, seg in result.assignments.items()
                if seg == segment
            ]
            if not members:
                return 0.0
            hits = sum(
                1 for uid in members
                if truth[uid].profile.name == "streamer"
            )
            return hits / len(members)

        assert streamer_share("sustained") > streamer_share("bursty")

    def test_switched_share_matches_records(self, result, small_world):
        # Service switches are read from the period rows; each record
        # knows its own.
        for profile in result.profiles:
            members = [
                user for user in small_world.dasu.users
                if result.assignments[user.user_id] == profile.segment
            ]
            switched = sum(user.switched_service for user in members)
            assert profile.n_users == len(members)
            assert profile.share_switched_service == switched / len(members)

    def test_unknown_segment_rejected(self, result):
        with pytest.raises(AnalysisError):
            result.profile("whales")

    def test_empty_population_rejected(self):
        with pytest.raises(AnalysisError):
            segment_users(UserColumns.empty())
