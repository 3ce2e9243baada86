"""The batched row kernels against the per-row record reference.

``repro.datasets.columns`` flattens households into rows and decodes
rows for the CSV writer a whole column at a time;
:mod:`tests.analysis.record_model` keeps the original element-by-element
conversion between records and rows, and the record CSV writer. The
kernels must give byte-identical rows, decoded values whose every field
has the same type and the same bits (NaN included), and byte-identical
CSV text, on every input.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets import UserColumns, records_to_rows
from repro.datasets import io as io_module
from repro.datasets.columns import (
    _STRING_WIDTHS,
    PERIOD_FIELDS,
    USER_FIELDS,
    _record_from_rows,
)
from repro.exceptions import DatasetError
from tests.analysis import record_model
from tests.analysis.record_model import (
    PeriodObservation,
    UserRecord,
    household_values,
    to_records,
)
from tests.analysis.record_model import records_to_rows as reference_records_to_rows
from tests.analysis.record_model import rows_to_records as reference_rows_to_records


def identical(a, b) -> bool:
    """Same type and same value; floats compare by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(identical, a, b))
    if dataclasses.is_dataclass(a):
        return all(
            identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    return a == b


def _at_width(char: str, field: str) -> str:
    """A string of ``char`` exactly as wide as ``field``'s column."""
    width = _STRING_WIDTHS[field]
    return char * (width // len(char.encode("utf-8")))


_name = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122),
    min_size=1,
    max_size=8,
)


def _text(field: str):
    """Short names, or non-ASCII strings filling the column exactly."""
    return st.one_of(
        _name,
        st.sampled_from(["é", "€", "😀"]).map(lambda c: _at_width(c, field)),
    )


_positive = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)
_maybe = st.one_of(st.none(), st.just(0.0), _positive)
_hourly = st.one_of(
    st.none(),
    st.tuples(*([st.one_of(st.just(math.nan), st.just(0.0), _positive)] * 24)),
)


@st.composite
def _observations(draw, user_id: str):
    day = draw(st.floats(min_value=0.0, max_value=100.0))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        end = day + draw(st.floats(min_value=0.5, max_value=400.0))
        out.append(
            PeriodObservation(
                period=ServicePeriod(
                    user_id=user_id,
                    network=NetworkId(
                        isp=draw(_text("isp")),
                        prefix=draw(_text("prefix")),
                        city=draw(_text("city")),
                    ),
                    start_day=day,
                    end_day=end,
                    capacity_mbps=draw(_positive),
                    mean_mbps=draw(_positive),
                    peak_mbps=draw(_positive),
                    mean_no_bt_mbps=draw(_positive),
                    peak_no_bt_mbps=draw(_positive),
                ),
                latency_ms=draw(_positive),
                loss_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
                capacity_up_mbps=draw(_positive),
                n_ndt_tests=draw(st.integers(0, 50)),
                n_usage_samples=draw(st.integers(0, 10_000)),
                hourly_mean_mbps=draw(_hourly),
                mean_up_mbps=draw(_maybe),
                peak_up_mbps=draw(_maybe),
            )
        )
        day = end
    return tuple(out)


@st.composite
def _users(draw, max_users: int = 6):
    ids = draw(
        st.lists(_text("user_id"), min_size=0, max_size=max_users, unique=True)
    )
    return [
        UserRecord(
            user_id=uid,
            source=draw(st.sampled_from(["dasu", "fcc"])),
            country=draw(_text("country")),
            region=draw(_text("region")),
            development=draw(_text("development")),
            vantage=draw(_text("vantage")),
            technology=draw(_text("technology")),
            bt_user=draw(st.booleans()),
            observations=draw(_observations(uid)),
            price_of_access_usd=draw(_maybe),
            upgrade_cost_usd_per_mbps=draw(_maybe),
            gdp_per_capita_usd=draw(_positive),
            plan_data_cap_gb=draw(_maybe),
            web_latency_ms=draw(_maybe),
            ndt_2014_latency_ms=draw(_maybe),
        )
        for uid in ids
    ]


ROW_FIELDS = USER_FIELDS + PERIOD_FIELDS


def _flatten(users) -> np.ndarray:
    return records_to_rows(household_values(users))


def _expected_columns(users) -> list[tuple]:
    """The records' values per CSV column, hourly profiles as lists."""
    rows = [
        user + period
        for user, periods in household_values(users)
        for period in periods
    ]
    return list(zip(*rows)) if rows else [()] * len(ROW_FIELDS)


def _csv_identical(users) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        via_records = Path(tmp) / "records.csv"
        via_columns = Path(tmp) / "columns.csv"
        record_model.write_users_csv(users, via_records)
        io_module.write_users_csv(UserColumns(_flatten(users)), via_columns)
        assert via_records.read_bytes() == via_columns.read_bytes()


def _check_against_reference(users) -> None:
    rows = _flatten(users)
    assert rows.tobytes() == reference_records_to_rows(users).tobytes()
    decoded = _record_from_rows(rows)
    expected = _expected_columns(users)
    assert len(decoded) == len(expected) == len(ROW_FIELDS)
    for field, got, want in zip(ROW_FIELDS, decoded, expected):
        if field == "hourly_mean_mbps":
            got = [None if v is None else tuple(v) for v in got]
        assert len(got) == len(want)
        assert all(map(identical, got, want)), field
    # NaN-aware value identity with the input, through the reference.
    assert (
        reference_records_to_rows(reference_rows_to_records(rows)).tobytes()
        == rows.tobytes()
    )
    _csv_identical(users)


class TestBatchedKernelsMatchReference:
    @given(_users())
    @settings(max_examples=80, deadline=None)
    def test_rows_and_records_identical(self, users):
        _check_against_reference(users)

    @given(_users(max_users=9), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_identical_across_batch_boundaries(self, users, batch_rows):
        with mock.patch.object(io_module, "_WRITE_BATCH_ROWS", batch_rows):
            _csv_identical(users)

    def test_more_users_than_one_batch(self):
        n = io_module._WRITE_BATCH_ROWS // 2 + 7
        users = [
            _user(f"u{i:04d}", n_obs=1 + i % 3, hourly=i % 2 == 0)
            for i in range(n)
        ]
        assert sum(len(u.observations) for u in users) > io_module._WRITE_BATCH_ROWS
        _check_against_reference(users)

    def test_empty_input(self):
        rows = records_to_rows([])
        assert rows.shape == (0,)
        assert rows.tobytes() == reference_records_to_rows([]).tobytes()
        assert _record_from_rows(rows) == [[]] * len(ROW_FIELDS)
        assert to_records(UserColumns(rows)) == ()

    def test_zero_prices_stay_present(self):
        user = dataclasses.replace(
            _user("u1"), price_of_access_usd=0.0, upgrade_cost_usd_per_mbps=0.0
        )
        (back,) = reference_rows_to_records(_flatten([user]))
        assert back.price_of_access_usd == 0.0
        assert back.upgrade_cost_usd_per_mbps == 0.0
        assert back.plan_data_cap_gb is None


def _user(
    user_id: str,
    *,
    n_obs: int = 1,
    hourly: bool = False,
    country: str = "narnia",
    city: str = "city",
) -> UserRecord:
    profile = tuple(math.nan if h < 6 else float(h) for h in range(24))
    return UserRecord(
        user_id=user_id,
        source="dasu",
        country=country,
        region="europe",
        development="developed",
        vantage="direct",
        technology="cable",
        bt_user=False,
        observations=tuple(
            PeriodObservation(
                period=ServicePeriod(
                    user_id=user_id,
                    network=NetworkId("isp", f"pfx{i}", city),
                    start_day=float(30 * i),
                    end_day=float(30 * i + 20),
                    capacity_mbps=8.0 * (i + 1),
                    mean_mbps=1.0,
                    peak_mbps=2.0,
                    mean_no_bt_mbps=0.8,
                    peak_no_bt_mbps=1.5,
                ),
                latency_ms=40.0,
                loss_fraction=0.001,
                capacity_up_mbps=1.0,
                n_ndt_tests=10,
                n_usage_samples=500,
                hourly_mean_mbps=profile if hourly else None,
                mean_up_mbps=0.5 if i else None,
            )
            for i in range(n_obs)
        ),
        price_of_access_usd=30.0,
        upgrade_cost_usd_per_mbps=None,
        gdp_per_capita_usd=30_000.0,
    )


@pytest.mark.parametrize("field", ["country", "city"])
def test_non_ascii_one_byte_over_the_width_raises(field):
    user = _user("u1", **{field: _at_width("é", field) + "x"})
    for convert in (_flatten, reference_records_to_rows):
        with pytest.raises(DatasetError, match="columnar width"):
            convert([user])
