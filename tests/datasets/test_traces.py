"""Raw usage traces."""

import numpy as np
import pytest

from repro.datasets import WorldConfig, build_world
from repro.datasets.traces import UsageTrace, read_traces_npz, write_traces_npz
from repro.exceptions import DatasetError
from tests.analysis.record_model import to_records


@pytest.fixture(scope="module")
def traced_world():
    return build_world(
        WorldConfig(
            seed=41,
            n_dasu_users=150,
            n_fcc_users=40,
            days_per_year=1.0,
            trace_user_fraction=0.5,
        )
    )


class TestTraceCollection:
    def test_roughly_requested_fraction_traced(self, traced_world):
        fraction = len(traced_world.traces) / traced_world.all_columns.n_users
        assert 0.3 <= fraction <= 0.7

    def test_default_world_has_no_traces(self):
        world = build_world(
            WorldConfig(seed=41, n_dasu_users=40, n_fcc_users=0, days_per_year=1.0)
        )
        assert not world.traces

    def test_traces_match_record_owners(self, traced_world):
        user_ids = set(traced_world.all_columns.user_ids)
        assert set(traced_world.traces) <= user_ids

    def test_one_trace_per_observed_year(self, traced_world):
        by_id = {u.user_id: u for u in to_records(traced_world.all_columns)}
        for user_id, traces in traced_world.traces.items():
            record = by_id[user_id]
            assert len(traces) == len(record.observations)
            assert [t.year for t in traces] == [
                o.year for o in record.observations
            ]

    def test_summaries_rederivable_from_traces(self, traced_world):
        """The audit property: every published summary equals the summary
        recomputed from its raw trace."""
        by_id = {u.user_id: u for u in to_records(traced_world.all_columns)}
        checked = 0
        for user_id, traces in traced_world.traces.items():
            record = by_id[user_id]
            for trace, obs in zip(traces, record.observations):
                summary = trace.summary(include_bt=True)
                assert summary.mean_mbps == pytest.approx(
                    obs.period.mean_mbps, rel=1e-9
                )
                assert summary.peak_mbps == pytest.approx(
                    obs.period.peak_mbps, rel=1e-9
                )
                checked += 1
        assert checked > 20

    def test_traces_carry_uplink_for_dasu(self, traced_world):
        dasu_ids = set(traced_world.dasu.columns.user_ids)
        for user_id, traces in traced_world.traces.items():
            if user_id in dasu_ids:
                assert traces[0].up_rates_mbps is not None


class TestTracePersistence:
    def test_round_trip(self, traced_world, tmp_path):
        path = tmp_path / "traces.npz"
        n_written = write_traces_npz(traced_world.traces, path)
        assert n_written == sum(len(t) for t in traced_world.traces.values())
        loaded = read_traces_npz(path)
        assert set(loaded) == set(traced_world.traces)
        for user_id, traces in traced_world.traces.items():
            for original, restored in zip(traces, loaded[user_id]):
                assert restored.year == original.year
                assert restored.interval_s == original.interval_s
                assert np.allclose(restored.rates_mbps, original.rates_mbps)
                assert np.array_equal(restored.bt_active, original.bt_active)

    def test_duplicate_trace_rejected(self, tmp_path):
        trace = UsageTrace(
            user_id="u1",
            year=2011,
            interval_s=30.0,
            rates_mbps=np.ones(5),
            bt_active=np.zeros(5, dtype=bool),
            hours=np.arange(5.0),
        )
        with pytest.raises(DatasetError):
            write_traces_npz({"u1": [trace, trace]}, tmp_path / "x.npz")

    def test_misaligned_trace_rejected(self):
        with pytest.raises(DatasetError):
            UsageTrace(
                user_id="u1",
                year=2011,
                interval_s=30.0,
                rates_mbps=np.ones(5),
                bt_active=np.zeros(4, dtype=bool),
                hours=np.arange(5.0),
            )
