"""Columnar ingest held to the record-model reference.

``ingest_users`` reads a third-party ``users.csv`` straight into the row
block and applies the cleaning rules as row masks. The record model in
``tests/analysis/record_model.py`` keeps the old path: a reader that
built :class:`UserRecord` objects and ``sanitize_users``, which cleaned
them one user and one period at a time. On faulted-world CSVs with
malformed, duplicated and NaN-dated rows spliced in, both must keep the
same rows, report the same counts and give the same reader messages.
"""

from __future__ import annotations

import csv
import functools
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import WorldConfig, build_world
from repro.datasets.columns import _STRING_WIDTHS
from repro.datasets.io import read_users_csv, write_users_csv
from repro.datasets.sanitize import SanitizationReport, ingest_users
from repro.exceptions import DatasetError
from repro.faults import fault_profile
from tests.analysis import record_model

#: A small world whose collections went through heavy faults without
#: the cleaning stage, so its CSV carries real damage.
_FAULTED = WorldConfig(
    seed=5,
    n_dasu_users=30,
    n_fcc_users=8,
    days_per_year=1.0,
    faults=fault_profile("heavy"),
)


@functools.lru_cache(maxsize=1)
def _faulted_lines() -> tuple[list[str], tuple[tuple[str, ...], ...]]:
    """Header and data lines (as cell tuples) of the faulted world."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "users.csv"
        write_users_csv(build_world(_FAULTED).all_columns, path)
        header, *lines = csv.reader(io.StringIO(path.read_text()))
    return header, tuple(tuple(line) for line in lines)


def _with(header, cells, **changes) -> list[str]:
    cells = list(cells)
    for column, value in changes.items():
        cells[header.index(column)] = value
    return cells


#: Damage applied to a copy of one line: (kind, cell changes).
_DAMAGE = {
    "bad_number": {"capacity_mbps": "bogus"},
    "bad_count": {"n_ndt_tests": "3.5"},
    "bad_profile": {"hourly_mean_mbps": "1;2;3"},
    "zero_duration": {"end_day": "0.5", "start_day": "0.5"},
    "zero_capacity": {"capacity_mbps": "0"},
    "bad_latency": {"latency_ms": "0"},
    "bad_loss": {"loss_fraction": "1.5"},
    "unknown_source": {"source": "mlab"},
    "bad_bt_user": {"bt_user": "yes"},
    "bad_gdp": {"gdp_per_capita_usd": "lots"},
    "negative_demand": {"mean_mbps": "-1"},
    "infinite_latency": {"latency_ms": "inf"},
    "few_ndt_tests": {"n_ndt_tests": "1"},
    "thin": {"n_usage_samples": "3"},
    "nan_day": {"start_day": "nan"},
    "other_user_values": {"country": "Elsewhere", "bt_user": "1"},
    "new_user": {"user_id": "zz-third-party"},
}


@st.composite
def dirty_csvs(draw) -> str:
    header, lines = _faulted_lines()
    index = st.integers(min_value=0, max_value=len(lines) - 1)
    out = [list(lines[i]) for i in draw(st.lists(index, min_size=1, max_size=20))]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        base = lines[draw(index)]
        kind = draw(
            st.sampled_from(sorted(_DAMAGE) + ["signed_zero", "nan_pair", "short"])
        )
        if kind == "signed_zero":
            # Two copies of a period starting on day 0.0 and on -0.0:
            # duplicates under ``==``.
            spliced = [
                _with(header, base, start_day="0.0"),
                _with(header, base, start_day="-0.0"),
            ]
        elif kind == "nan_pair":
            # Two copies of a period starting on a NaN day: never
            # duplicates, as NaN equals nothing.
            spliced = [_with(header, base, start_day="nan")] * 2
        elif kind == "short":
            spliced = [list(base[: draw(st.integers(1, len(base) - 1))])]
        else:
            spliced = [_with(header, base, **_DAMAGE[kind])]
        for cells in spliced:
            out.insert(draw(st.integers(0, len(out))), cells)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(out)
    return text.getvalue()


def _reference_ingest(path) -> tuple[bytes, dict, list[str]]:
    """The record path: lenient record read, then ``sanitize_users``."""
    errors: list[str] = []
    users = record_model.read_users_csv(path, errors=errors)
    report = SanitizationReport()
    rule = report.rule("malformed_row")
    rule.examined += len(users) + len(errors)
    rule.dropped += len(errors)
    kept, report = record_model.sanitize_users(users, report=report)
    return record_model.records_to_rows(kept).tobytes(), report.to_payload(), errors


@given(dirty_csvs())
@settings(max_examples=60, deadline=None)
def test_ingest_matches_the_record_path(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "users.csv"
        path.write_text(text, newline="")
        rows, payload, reference_errors = _reference_ingest(path)
        kept, report = ingest_users(path)
        errors: list[str] = []
        read_users_csv(path, errors=errors)
    assert kept.rows.tobytes() == rows
    assert report.to_payload() == payload
    assert errors == reference_errors


def test_signed_zero_days_are_one_period_and_nan_days_never_are(tmp_path):
    header, lines = _faulted_lines()
    base = lines[0]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerow(_with(header, base, start_day="0.0"))
    writer.writerow(_with(header, base, start_day="-0.0"))
    writer.writerow(_with(header, base, start_day="nan"))
    writer.writerow(_with(header, base, start_day="nan"))
    path = tmp_path / "users.csv"
    path.write_text(text.getvalue(), newline="")
    _, report = ingest_users(path)
    assert report.rule("duplicate_period").examined == 4
    assert report.rule("duplicate_period").dropped == 1
    assert report.to_payload() == _reference_ingest(path)[1]


@pytest.mark.parametrize("column", ["isp", "city", "country", "user_id"])
def test_too_wide_string_is_a_malformed_row(tmp_path, column):
    header, lines = _faulted_lines()
    wide = "x" * (_STRING_WIDTHS[column] + 1)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerow(lines[0])
    writer.writerow(_with(header, lines[0], **{column: wide}))
    path = tmp_path / "users.csv"
    path.write_text(text.getvalue(), newline="")
    needle = f"{path}:3: column {column!r}: "

    errors: list[str] = []
    columns = read_users_csv(path, errors=errors)
    assert len(errors) == 1
    assert errors[0].startswith(needle)
    assert "exceeds the columnar width" in errors[0]
    assert columns.n_rows == 1

    _, report = ingest_users(path)
    assert report.rule("malformed_row").dropped == 1

    with pytest.raises(DatasetError) as excinfo:
        read_users_csv(path)
    assert str(excinfo.value) == errors[0]
