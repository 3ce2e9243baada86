"""Equivalence suite for the columnar data plane.

The row block (``repro.datasets.columns``) is held to the record model
kept in ``tests/analysis/record_model.py``: every record flattens to
rows and decodes back value-identically (including the ``None``-ness of
optional fields and NaNs inside hourly profiles), every vectorized
accessor agrees element-wise with its scalar twin, the columnar CSV
writer and the mask-based sanitizer match the record writer and
sanitizer, and the builder's byte-identical ``--jobs`` guarantee extends
to the ``users.npy`` shard. This module locks each of those claims,
mostly property-based.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.binning import (
    CASE_STUDY_TIERS,
    LOSS_BINS_FRACTION,
    capacity_class_spec,
    explicit_bins,
)
from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets import (
    ROW_DTYPE,
    UserColumns,
    build_world,
    records_to_rows,
    sanitize_columns,
)
from repro.datasets.columns import OPTIONAL_FLAGS, PERIOD_FIELDS, USER_FIELDS
from repro.datasets.io import read_users_npy, write_users_csv, write_users_npy
from repro.exceptions import DatasetError
from tests.analysis import record_model
from tests.analysis.record_model import (
    PeriodObservation,
    UserRecord,
    from_records,
    household_values,
    rows_to_records,
    sanitize_users,
    to_records,
)


def to_rows(users) -> np.ndarray:
    """Records through the library's flattener (the builder's path)."""
    return records_to_rows(household_values(users))


# ---------------------------------------------------------------------------
# NaN-aware structural equality.
#
# Plain ``==`` on records is NOT usable here: a NaN inside an hourly
# profile makes bit-identical tuples compare unequal (tuple equality
# falls back to float ``==`` for distinct float objects). The columnar
# contract is *value* identity, with NaN == NaN.
# ---------------------------------------------------------------------------


def value_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            value_equal(x, y) for x, y in zip(a, b)
        )
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(
            value_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if f.compare
        )
    return a == b


def records_equal(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(
        value_equal(x, y) for x, y in zip(xs, ys)
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies over the full record shape.
# ---------------------------------------------------------------------------

_name = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122),
    min_size=1,
    max_size=8,
)
_finite = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)
_maybe = st.one_of(st.none(), _finite)
_hourly_value = st.one_of(st.just(math.nan), _finite)
_hourly = st.one_of(
    st.none(),
    st.tuples(*([_hourly_value] * 24)),
)


@st.composite
def observation_lists(draw, user_id: str):
    n = draw(st.integers(min_value=1, max_value=3))
    day = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    out = []
    for _ in range(n):
        duration = draw(st.floats(min_value=0.5, max_value=400.0))
        period = ServicePeriod(
            user_id=user_id,
            network=NetworkId(
                isp=draw(_name), prefix=draw(_name), city=draw(_name)
            ),
            start_day=day,
            end_day=day + duration,
            capacity_mbps=draw(_finite),
            mean_mbps=draw(_finite),
            peak_mbps=draw(_finite),
            mean_no_bt_mbps=draw(_finite),
            peak_no_bt_mbps=draw(_finite),
        )
        out.append(
            PeriodObservation(
                period=period,
                latency_ms=draw(_finite),
                loss_fraction=draw(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                ),
                capacity_up_mbps=draw(_finite),
                n_ndt_tests=draw(st.integers(0, 50)),
                n_usage_samples=draw(st.integers(0, 10_000)),
                hourly_mean_mbps=draw(_hourly),
                mean_up_mbps=draw(_maybe),
                peak_up_mbps=draw(_maybe),
            )
        )
        day = period.end_day + draw(st.floats(min_value=0.0, max_value=10.0))
    return tuple(out)


@st.composite
def user_records(draw, user_id: str | None = None):
    uid = user_id if user_id is not None else draw(_name)
    return UserRecord(
        user_id=uid,
        source=draw(st.sampled_from(["dasu", "fcc"])),
        country=draw(_name),
        region=draw(_name),
        development=draw(st.sampled_from(["developed", "developing"])),
        vantage=draw(st.sampled_from(["direct", "upnp", "gateway"])),
        technology=draw(_name),
        bt_user=draw(st.booleans()),
        observations=draw(observation_lists(uid)),
        price_of_access_usd=draw(_maybe),
        upgrade_cost_usd_per_mbps=draw(_maybe),
        gdp_per_capita_usd=draw(_finite),
        plan_data_cap_gb=draw(_maybe),
        web_latency_ms=draw(_maybe),
        ndt_2014_latency_ms=draw(_maybe),
    )


@st.composite
def user_record_lists(draw, max_users: int = 5):
    n = draw(st.integers(min_value=0, max_value=max_users))
    ids = draw(
        st.lists(_name, min_size=n, max_size=n, unique=True)
    )
    return [draw(user_records(user_id=uid)) for uid in ids]


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(user_record_lists())
    @settings(max_examples=60, deadline=None)
    def test_records_rows_records_is_identity(self, users):
        rows = to_rows(users)
        assert rows.dtype == ROW_DTYPE
        assert rows.shape == (sum(len(u.observations) for u in users),)
        assert records_equal(rows_to_records(rows), users)

    @given(users=user_record_lists(max_users=3))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_csv_bytes_identical_from_records_and_columns(self, tmp_path, users):
        """The columnar CSV writer is byte-for-byte the record writer."""
        via_records = tmp_path / "records.csv"
        via_columns = tmp_path / "columns.csv"
        record_model.write_users_csv(users, via_records)
        write_users_csv(UserColumns(to_rows(users)), via_columns)
        assert via_records.read_bytes() == via_columns.read_bytes()

    def test_tiny_world_round_trips(self, tiny_world):
        users = to_records(tiny_world.all_columns)
        rows = to_rows(users)
        assert rows.tobytes() == tiny_world.all_columns.rows.tobytes()
        assert records_equal(rows_to_records(rows), users)

    def test_none_and_nan_hourly_stay_distinct(self):
        base = _one_user("u1", hourly=None)
        with_nan = _one_user("u2", hourly=(math.nan,) * 24)
        rows = to_rows([base, with_nan])
        back = rows_to_records(rows)
        assert back[0].current.hourly_mean_mbps is None
        assert back[1].current.hourly_mean_mbps is not None
        assert all(math.isnan(v) for v in back[1].current.hourly_mean_mbps)

    def test_oversized_string_raises_instead_of_truncating(self):
        user = _one_user("u" * 200)
        with pytest.raises(DatasetError, match="columnar width"):
            to_rows([user])


def _one_user(
    user_id: str,
    *,
    source: str = "dasu",
    capacity: float = 8.0,
    hourly=None,
    n_obs: int = 1,
) -> UserRecord:
    observations = []
    for i in range(n_obs):
        period = ServicePeriod(
            user_id=user_id,
            network=NetworkId("isp", "pfx", "city"),
            start_day=float(30 * i),
            end_day=float(30 * i + 20),
            capacity_mbps=capacity,
            mean_mbps=1.0,
            peak_mbps=2.0,
            mean_no_bt_mbps=0.8,
            peak_no_bt_mbps=1.5,
        )
        observations.append(
            PeriodObservation(
                period=period,
                latency_ms=40.0,
                loss_fraction=0.001,
                capacity_up_mbps=1.0,
                n_ndt_tests=10,
                n_usage_samples=500,
                hourly_mean_mbps=hourly,
            )
        )
    return UserRecord(
        user_id=user_id,
        source=source,
        country="narnia",
        region="europe",
        development="developed",
        vantage="direct",
        technology="cable",
        bt_user=False,
        observations=tuple(observations),
        price_of_access_usd=30.0,
        upgrade_cost_usd_per_mbps=1.0,
        gdp_per_capita_usd=30_000.0,
    )


# ---------------------------------------------------------------------------
# Schema invariants.
# ---------------------------------------------------------------------------


class TestSchema:
    def test_field_order_is_csv_order_with_flags(self):
        names = list(ROW_DTYPE.names)
        without_flags = [
            n for n in names if n not in OPTIONAL_FLAGS.values()
        ]
        assert without_flags == USER_FIELDS + PERIOD_FIELDS
        for field, flag in OPTIONAL_FLAGS.items():
            assert names.index(flag) == names.index(field) + 1

    def test_wrong_dtype_rejected(self):
        with pytest.raises(DatasetError, match="columnar schema"):
            UserColumns(np.zeros(3, dtype=[("user_id", "S48")]))

    def test_non_contiguous_user_rows_rejected(self):
        rows = to_rows([_one_user("a", n_obs=2), _one_user("b")])
        shuffled = rows[[0, 2, 1]]
        with pytest.raises(DatasetError, match="contiguous"):
            UserColumns(shuffled).user_starts


# ---------------------------------------------------------------------------
# Vectorized accessors == scalar accessors.
# ---------------------------------------------------------------------------


class TestAccessors:
    def test_accessors_match_object_path(self, tiny_world):
        users = to_records(tiny_world.all_columns)
        columns = from_records(users)
        assert columns.n_users == len(users)
        assert list(columns.user_ids) == [u.user_id for u in users]
        np.testing.assert_array_equal(
            columns.capacity_down_mbps,
            [u.capacity_down_mbps for u in users],
        )
        np.testing.assert_array_equal(
            columns.latency_ms, [u.latency_ms for u in users]
        )
        np.testing.assert_array_equal(
            columns.loss_fraction, [u.loss_fraction for u in users]
        )
        np.testing.assert_array_equal(
            columns.peak_utilization, [u.peak_utilization for u in users]
        )
        for metric in ("peak", "mean"):
            for include_bt in (False, True):
                np.testing.assert_array_equal(
                    columns.demand(metric, include_bt),
                    [u.demand(metric, include_bt) for u in users],
                )

    def test_optional_columns_read_nan_where_absent(self):
        users = [_one_user("a"), _one_user("b")]
        users[1] = dataclasses.replace(users[1], price_of_access_usd=None)
        columns = from_records(users)
        prices = columns.price_of_access_usd
        assert prices[0] == 30.0
        assert math.isnan(prices[1])

    def test_unknown_demand_metric_raises(self):
        columns = from_records([_one_user("a")])
        with pytest.raises(DatasetError, match="unknown demand metric"):
            columns.demand("median")

    def test_source_mask_and_select(self):
        users = [
            _one_user("a", source="dasu", n_obs=2),
            _one_user("b", source="fcc"),
            _one_user("c", source="dasu"),
        ]
        columns = from_records(users)
        dasu = columns.select_users(columns.source_mask("dasu"))
        assert list(dasu.user_ids) == ["a", "c"]
        assert dasu.n_rows == 3  # "a" keeps both of its period rows
        assert records_equal(to_records(dasu), [users[0], users[2]])
        # One structured row per period, nothing else.
        assert dasu.nbytes == dasu.n_rows * ROW_DTYPE.itemsize
        # take() keeps the order it is given, rows whole.
        reordered = columns.take([2, 0])
        assert list(reordered.user_ids) == ["c", "a"]
        assert records_equal(to_records(reordered), [users[2], users[0]])
        assert columns.country_mask(users[0].country).all()
        assert not columns.country_mask("Atlantis").any()

    def test_peak_utilization_clips_like_the_scalar_min(self):
        users = [_one_user("a"), _one_user("b"), _one_user("c")]
        for i, peak in ((1, 100.0), (2, math.nan)):
            observation = users[i].observations[0]
            users[i] = dataclasses.replace(
                users[i],
                observations=(
                    dataclasses.replace(
                        observation,
                        period=dataclasses.replace(
                            observation.period, peak_no_bt_mbps=peak
                        ),
                    ),
                ),
            )
        columns = from_records(users)
        # A NaN peak clips to 1, exactly as min(1.0, nan) does.
        assert columns.peak_utilization.tolist() == [
            u.peak_utilization for u in users
        ] == [1.5 / 8.0, 1.0, 1.0]

    def test_select_rejects_wrong_mask_shape(self):
        columns = from_records([_one_user("a")])
        with pytest.raises(DatasetError, match="user mask"):
            columns.select_users(np.ones(5, dtype=bool))

    def test_concat_preserves_order(self):
        a = from_records([_one_user("a")])
        b = from_records([_one_user("b")])
        merged = UserColumns.concat([b, UserColumns.empty(), a])
        assert list(merged.user_ids) == ["b", "a"]


class TestCarriedIndex:
    """``select_users`` and ``take`` hand their result the per-user index
    instead of rebuilding it; it must be the index a fresh instance over
    the same rows builds."""

    @staticmethod
    def _assert_fresh_index(derived):
        fresh = UserColumns(derived.rows)
        for name in ("user_starts", "user_counts"):
            carried, rebuilt = getattr(derived, name), getattr(fresh, name)
            assert carried.dtype == rebuilt.dtype == np.int64
            np.testing.assert_array_equal(carried, rebuilt)
        np.testing.assert_array_equal(
            derived.current("user_id"), fresh.current("user_id")
        )

    def test_random_masks_and_permutations(self, tiny_world):
        columns = tiny_world.all_columns
        rng = np.random.default_rng(5)
        n = columns.n_users
        for share in (0.0, 0.1, 0.5, 0.9, 1.0):
            mask = rng.random(n) < share
            selected = columns.select_users(mask)
            self._assert_fresh_index(selected)
            # A selection of a selection carries the index on.
            self._assert_fresh_index(
                selected.select_users(rng.random(selected.n_users) < 0.5)
            )
        for size in (0, 1, n // 3, n):
            taken = columns.take(rng.permutation(n)[:size])
            self._assert_fresh_index(taken)
            self._assert_fresh_index(taken.take(rng.permutation(size)))

    def test_take_rejects_a_repeated_position(self, tiny_world):
        columns = tiny_world.all_columns
        last = columns.n_users - 1
        for users in ([0, 0], [0, 1, 0], [-1, last]):
            with pytest.raises(DatasetError, match="more than once"):
                columns.take(users)


# ---------------------------------------------------------------------------
# index_of_array == index_of, everywhere.
# ---------------------------------------------------------------------------

_SPECS = {
    "capacity-classes": capacity_class_spec(),
    "case-study-tiers": explicit_bins(CASE_STUDY_TIERS),
    "loss-bins": explicit_bins(LOSS_BINS_FRACTION),
    # A spec with a hole between bins: gap values must map to -1.
    "gapped": explicit_bins([(0.0, 1.0), (2.0, 3.0)]),
}


def _scalar_indices(spec, values):
    return [
        -1 if spec.index_of(v) is None else spec.index_of(v) for v in values
    ]


class TestIndexOfArray:
    @pytest.mark.parametrize("name", sorted(_SPECS))
    def test_edges_gaps_and_nonfinite(self, name):
        spec = _SPECS[name]
        edges = [b.low for b in spec] + [b.high for b in spec]
        nudged = [math.nextafter(e, math.inf) for e in edges if math.isfinite(e)]
        values = np.array(
            edges
            + nudged
            + [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5, 1e12],
            dtype=float,
        )
        np.testing.assert_array_equal(
            spec.index_of_array(values), _scalar_indices(spec, values)
        )

    @pytest.mark.parametrize("name", sorted(_SPECS))
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_on_arbitrary_floats(self, name, values):
        spec = _SPECS[name]
        arr = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(
            spec.index_of_array(arr), _scalar_indices(spec, arr)
        )

    def test_empty_input(self):
        spec = _SPECS["capacity-classes"]
        assert spec.index_of_array(np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# Mask-based columnar sanitize == record sanitize.
# ---------------------------------------------------------------------------


class TestSanitizeColumns:
    def _dirty_users(self):
        users = [_one_user(f"u{i:02d}", n_obs=2) for i in range(6)]
        # A duplicate period (second observation repeats the first).
        dup = _one_user("u90")
        users.append(
            dataclasses.replace(
                dup, observations=dup.observations + dup.observations
            )
        )
        # Too few NDT tests to trust the connection characterization.
        low_ndt = _one_user("u91")
        users.append(
            dataclasses.replace(
                low_ndt,
                observations=tuple(
                    dataclasses.replace(o, n_ndt_tests=0)
                    for o in low_ndt.observations
                ),
            )
        )
        return users

    def test_counter_and_value_identical(self):
        users = self._dirty_users()
        kept_objects, object_report = sanitize_users(users)
        kept_columns, column_report = sanitize_columns(from_records(users))
        assert records_equal(to_records(kept_columns), kept_objects)
        assert object_report.to_payload() == column_report.to_payload()

    def test_empty_input(self):
        kept, report = sanitize_columns(UserColumns.empty())
        assert kept.n_rows == 0
        assert report.periods_in == 0


# ---------------------------------------------------------------------------
# The --jobs byte-identity guarantee extends to the columnar artifacts.
# ---------------------------------------------------------------------------


class TestParallelByteIdentity:
    def test_jobs_4_matches_jobs_1_csv_and_npy(self, tmp_path):
        from repro.datasets import WorldConfig

        config = WorldConfig(
            seed=23, n_dasu_users=60, n_fcc_users=12, days_per_year=1.0
        )
        serial = build_world(config, jobs=1)
        parallel = build_world(config, jobs=4, chunk_size=7)
        for label, world in (("serial", serial), ("parallel", parallel)):
            columns = world.all_columns
            write_users_csv(columns, tmp_path / f"{label}.csv")
            write_users_npy(columns, tmp_path / f"{label}.npy")
        assert (tmp_path / "serial.csv").read_bytes() == (
            tmp_path / "parallel.csv"
        ).read_bytes()
        assert (tmp_path / "serial.npy").read_bytes() == (
            tmp_path / "parallel.npy"
        ).read_bytes()


# ---------------------------------------------------------------------------
# Fault injection: every equivalence above re-pinned on a damaged world.
# ---------------------------------------------------------------------------


class TestFaultedWorldEquivalence:
    """The columnar plane on a faulted + sanitized world.

    Fault injection is where the representation's edge cases occur in
    bulk — NaN-laced hourly profiles, absent market covariates, whole
    periods dropped by cleaning — so the pristine-world round-trip and
    byte-identity claims are re-pinned on ``faulted_world_default``.
    """

    def test_faults_actually_left_scars(self, faulted_world_default):
        # Guard against the equivalences below passing vacuously: the
        # sanitizer must have had real damage to repair or drop, and the
        # surviving records must still carry missing market covariates.
        report = faulted_world_default.sanitization
        assert report is not None
        assert report.total_repaired + report.total_dropped > 0
        users = to_records(faulted_world_default.all_columns)
        assert any(u.upgrade_cost_usd_per_mbps is None for u in users)
        assert any(u.current.hourly_mean_mbps is None for u in users)

    def test_records_round_trip_value_identical(self, faulted_world_default):
        users = to_records(faulted_world_default.all_columns)
        rows = to_rows(users)
        assert rows.tobytes() == faulted_world_default.all_columns.rows.tobytes()
        assert records_equal(rows_to_records(rows), users)

    def test_all_columns_matches_object_path(self, faulted_world_default):
        world = faulted_world_default
        assert records_equal(
            to_records(world.all_columns),
            to_records(world.dasu.columns) + to_records(world.fcc.columns),
        )

    def test_csv_bytes_identical_from_records_and_columns(
        self, tmp_path, faulted_world_default
    ):
        world = faulted_world_default
        via_records = tmp_path / "records.csv"
        via_columns = tmp_path / "columns.csv"
        record_model.write_users_csv(to_records(world.all_columns), via_records)
        write_users_csv(world.all_columns, via_columns)
        assert via_records.read_bytes() == via_columns.read_bytes()

    def test_npy_round_trip_is_byte_stable(
        self, tmp_path, faulted_world_default
    ):
        first = tmp_path / "first.npy"
        second = tmp_path / "second.npy"
        write_users_npy(faulted_world_default.all_columns, first)
        reloaded = read_users_npy(first, mmap=False)
        write_users_npy(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert records_equal(
            to_records(reloaded), to_records(faulted_world_default.all_columns)
        )
