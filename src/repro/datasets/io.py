"""CSV/JSON persistence for generated datasets.

The on-disk layout mirrors how a real measurement study would publish its
cleaned data:

* ``users.csv`` — one row per (user, service period) with the user-level
  covariates repeated, like a denormalized release; the interchange and
  golden format (text diffs, third-party ingest);
* ``users.npy`` — the same rows as a columnar shard (numpy structured
  array, see :mod:`repro.datasets.columns`); the fast load path, read
  memory-mapped so consumers touch only the columns they use;
* ``plans.csv`` — the retail-plan survey;
* ``config.json`` — the world configuration, for provenance.

Both CSV directions work on :class:`~repro.datasets.columns.UserColumns`:
:func:`read_users_csv` parses the lines into the row block and
:func:`write_users_csv` decodes it a batch of rows at a time. Round trips
through them keep every value, except hourly profiles, which the CSV
stores at ``%.6g``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import numbers
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from ..exceptions import DatasetError
from ..market.survey import PlanSurvey
from .columns import (
    _STRING_WIDTHS,
    PERIOD_FIELDS,
    ROW_DTYPE,
    USER_FIELDS,
    UserColumns,
    _encode_str,
    _record_from_rows,
    records_to_rows,
)
from .world import WorldConfig

__all__ = [
    "config_from_payload",
    "config_payload",
    "decode_survey_csv",
    "load_dataset_dir",
    "read_config_json",
    "read_survey_csv",
    "read_users_csv",
    "read_users_npy",
    "survey_csv_bytes",
    "survey_plan_count",
    "write_config_json",
    "write_plans_csv",
    "write_survey_csv",
    "write_users_csv",
    "write_users_npy",
]

# Canonical CSV column order, shared with the columnar schema.
_USER_FIELDS = USER_FIELDS
_PERIOD_FIELDS = PERIOD_FIELDS


def _encode_profile(profile: tuple[float, ...] | None) -> str:
    """Semicolon-joined 24-hour profile; empty when absent.

    The encoding reserves the empty string for ``None``, so only the
    values :func:`_decode_profile` can give back are accepted: ``None``
    or exactly 24 entries. Anything else (an empty tuple, a partial
    profile) would silently decode as a *different* value — reject it
    here instead of corrupting the round-trip.
    """
    if profile is None:
        return ""
    if len(profile) != 24:
        raise DatasetError(
            f"hourly profile must have 24 entries or be None, "
            f"got {len(profile)}"
        )
    return ";".join(f"{v:.6g}" for v in profile)


def _decode_profile(text: str) -> tuple[float, ...] | None:
    if not text:
        return None
    values = tuple(float(v) for v in text.split(";"))
    if len(values) != 24:
        raise DatasetError("hourly profile must have 24 entries")
    return values


def _optional(value: str) -> float | None:
    return None if value == "" else float(value)


def _field(row: Mapping, name: str, convert):
    """Convert one CSV field, naming the column on failure.

    A bare ``float`` ValueError says only what the bad token was; by the
    time it reaches a user (strict raise or lenient errors list) the row
    context is long gone. Re-raise as :class:`DatasetError` carrying the
    column name so ``path:line: column 'x': ...`` messages assemble at
    the row level.
    """
    try:
        return convert(row[name])
    except (ValueError, TypeError) as exc:
        raise DatasetError(f"column {name!r}: {exc}") from None


#: Rows decoded per :func:`_record_from_rows` call while writing
#: ``users.csv``: the writer's memory bound.
_WRITE_BATCH_ROWS = 4096
_BT_USER = USER_FIELDS.index("bt_user")
_HOURLY = len(USER_FIELDS) + PERIOD_FIELDS.index("hourly_mean_mbps")


def write_users_csv(columns: UserColumns, path: str | Path) -> int:
    """Write a dataset as ``users.csv`` (one row per service period);
    returns the row count.

    Rows are decoded ``_WRITE_BATCH_ROWS`` at a time, one ``tolist()``
    per field. Floats are written as their shortest ``repr`` (``f8``
    columns round-trip Python floats exactly), absent optional values
    as empty cells, hourly profiles ``;``-joined at ``%.6g``.
    """
    path = Path(path)
    rows = columns.rows
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_USER_FIELDS + _PERIOD_FIELDS)
        for start in range(0, rows.size, _WRITE_BATCH_ROWS):
            cells = _record_from_rows(rows[start : start + _WRITE_BATCH_ROWS])
            cells[_BT_USER] = [int(flag) for flag in cells[_BT_USER]]
            cells[_HOURLY] = [_encode_profile(p) for p in cells[_HOURLY]]
            writer.writerows(zip(*cells))
    return int(rows.size)


#: String columns, checked against their columnar widths on every line.
_STRING_FIELDS = [f for f in _USER_FIELDS + _PERIOD_FIELDS if f in _STRING_WIDTHS]
_USER_STRINGS = [f for f in _USER_FIELDS if f in _STRING_WIDTHS]


def _parse_period(row: Mapping) -> tuple:
    """One CSV line's period values, in :data:`PERIOD_FIELDS` order.

    Checks, in this order (the first failure is the line's message):
    the window and demand numbers parse, the window has positive
    duration, capacity is positive, the measured numbers and the hourly
    profile parse, latency is positive, loss is a fraction, and every
    string cell of the line fits its column.
    """
    user_id = row["user_id"]
    start_day = _field(row, "start_day", float)
    end_day = _field(row, "end_day", float)
    capacity = _field(row, "capacity_mbps", float)
    demand = [
        _field(row, name, float)
        for name in ("mean_mbps", "peak_mbps", "mean_no_bt_mbps", "peak_no_bt_mbps")
    ]
    if end_day <= start_day:
        raise DatasetError(
            f"service period for {user_id} has non-positive duration"
        )
    if capacity <= 0:
        raise DatasetError(
            f"service period for {user_id} has non-positive capacity"
        )
    latency = _field(row, "latency_ms", float)
    loss = _field(row, "loss_fraction", float)
    measured = (
        _field(row, "capacity_up_mbps", float),
        _field(row, "n_ndt_tests", int),
        _field(row, "n_usage_samples", int),
        _field(row, "hourly_mean_mbps", _decode_profile),
        _field(row, "mean_up_mbps", _optional),
        _field(row, "peak_up_mbps", _optional),
    )
    if latency <= 0:
        raise DatasetError("period latency must be positive")
    if not 0.0 <= loss <= 1.0:
        raise DatasetError("period loss must be in [0, 1]")
    for name in _STRING_FIELDS:
        _field(row, name, lambda value: _encode_str(value, name))
    return (
        row["isp"], row["prefix"], row["city"], start_day, end_day, capacity,
        *demand, latency, loss, *measured,
    )


def _parse_user(row: Mapping, periods: list[tuple]) -> tuple:
    """A user's values in :data:`USER_FIELDS` order, from its first
    line; ``periods`` are its parsed periods in ``start_day`` order."""
    values = (
        *(row[name] for name in _USER_STRINGS),
        bool(_field(row, "bt_user", int)),
        _field(row, "price_of_access_usd", _optional),
        _field(row, "upgrade_cost_usd_per_mbps", _optional),
        _field(row, "gdp_per_capita_usd", float),
        _field(row, "plan_data_cap_gb", _optional),
        _field(row, "web_latency_ms", _optional),
        _field(row, "ndt_2014_latency_ms", _optional),
    )
    if row["source"] not in ("dasu", "fcc"):
        raise DatasetError(f"unknown source {row['source']!r}")
    days = [period[3] for period in periods]
    if days != sorted(days):  # only NaN days can leave them unordered
        raise DatasetError(f"{row['user_id']}: observations out of order")
    return values


def read_users_csv(
    path: str | Path, errors: list[str] | None = None
) -> UserColumns:
    """Read a dataset written by :func:`write_users_csv`, users in
    ``user_id`` order and each user's periods in ``start_day`` order.

    A user's user-level values come from its first line. Strict by
    default: any malformed row raises a :class:`DatasetError` naming the
    file, line number, and offending column. Pass an ``errors`` list to
    read leniently instead — rows (or whole users) that fail to parse or
    validate are skipped and one message per casualty (same format as
    the strict raise) is appended to the list. The lenient path is what
    :func:`repro.datasets.sanitize.ingest_users` builds on for datasets
    of unknown hygiene.
    """
    path = Path(path)
    lenient = errors is not None
    grouped: dict[str, tuple[Mapping, list[tuple]]] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        expected = set(_USER_FIELDS + _PERIOD_FIELDS)
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise DatasetError(f"{path}: unexpected columns")
        for line, row in enumerate(reader, start=2):
            try:
                period = _parse_period(row)
            except (ValueError, TypeError, KeyError, DatasetError) as exc:
                message = f"{path}:{line}: {exc}"
                if not lenient:
                    raise DatasetError(message) from None
                errors.append(message)
                continue
            grouped.setdefault(row["user_id"], (row, []))[1].append(period)
    users = []
    for row, periods in grouped.values():
        periods.sort(key=lambda period: period[3])
        try:
            users.append((_parse_user(row, periods), periods))
        except (ValueError, TypeError, KeyError, DatasetError) as exc:
            message = f"{path}: user {row.get('user_id', '?')}: {exc}"
            if not lenient:
                raise DatasetError(message) from None
            errors.append(message)
    users.sort(key=lambda user: user[0][0])
    return UserColumns(records_to_rows(users))


def write_users_npy(columns: UserColumns, path: str | Path) -> int:
    """Write a columnar users shard (``.npy``); returns the row count.

    The shard is the verbatim structured array — loading it back is an
    mmap, not a parse. World-cache entries store only the shard;
    ``users.csv`` is the golden interchange copy that ``build --out``
    exports beside it.
    """
    path = Path(path)
    with path.open("wb") as handle:
        np.save(handle, columns.rows, allow_pickle=False)
    return columns.n_rows


def read_users_npy(path: str | Path, *, mmap: bool = True) -> UserColumns:
    """Load a columnar users shard written by :func:`write_users_npy`.

    Memory-mapped by default, so consumers only fault in the columns
    they touch. Raises :class:`DatasetError` on anything that is not a
    current-format shard (truncated file, foreign array, stale schema —
    the dtype *is* the format version check).
    """
    path = Path(path)
    try:
        rows = np.load(
            path, mmap_mode="r" if mmap else None, allow_pickle=False
        )
    except (ValueError, OSError, EOFError) as exc:
        raise DatasetError(f"{path}: not a columnar users shard ({exc})")
    if not isinstance(rows, np.ndarray) or rows.dtype != ROW_DTYPE:
        raise DatasetError(
            f"{path}: columnar shard schema mismatch (stale or foreign "
            "users.npy); rebuild the world"
        )
    return UserColumns(rows)


def write_plans_csv(survey: PlanSurvey, path: str | Path) -> int:
    """Write the retail-plan survey; returns the number of plan rows."""
    path = Path(path)
    n_rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "country", "isp", "name", "download_mbps", "upload_mbps",
                "monthly_price_local", "currency", "monthly_price_usd_ppp",
                "technology", "data_cap_gb", "dedicated",
            ]
        )
        for plan in survey.all_plans():
            writer.writerow(
                [
                    plan.country, plan.isp, plan.name, plan.download_mbps,
                    plan.upload_mbps, plan.monthly_price_local,
                    plan.currency.code, plan.monthly_price_usd_ppp,
                    plan.technology.value,
                    "" if plan.data_cap_gb is None else plan.data_cap_gb,
                    int(plan.dedicated),
                ]
            )
            n_rows += 1
    return n_rows


_SURVEY_FIELDS = [
    "country", "region", "development", "gdp_per_capita_ppp_usd",
    "internet_penetration", "currency_code", "units_per_usd",
    "ppp_market_ratio", "isp", "name", "download_mbps", "upload_mbps",
    "monthly_price_local", "technology", "data_cap_gb", "dedicated",
]


def survey_csv_bytes(survey: PlanSurvey) -> bytes:
    """The survey's canonical CSV rendering, UTF-8 encoded.

    Countries iterate in the survey's sorted order, so the bytes are a
    deterministic function of the survey's value — a built survey and a
    cache-loaded one render identically, which makes them the survey's
    content address: a cache entry checks its ``survey.csv`` against
    their digest, and fragment-level recompute keys hash them. No field
    holds a line break, so each plan is one line.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_SURVEY_FIELDS)
    for country in survey.countries:
        market = survey.markets[country]
        economy = market.economy
        for plan in market.plans:
            writer.writerow(
                [
                    country, economy.region.value,
                    economy.development.value,
                    economy.gdp_per_capita_ppp_usd,
                    economy.internet_penetration,
                    plan.currency.code, plan.currency.units_per_usd,
                    plan.currency.ppp_market_ratio, plan.isp,
                    plan.name, plan.download_mbps, plan.upload_mbps,
                    plan.monthly_price_local, plan.technology.value,
                    "" if plan.data_cap_gb is None else plan.data_cap_gb,
                    int(plan.dedicated),
                ]
            )
    return buffer.getvalue().encode("utf-8")


def write_survey_csv(survey: PlanSurvey | bytes, path: str | Path) -> int:
    """Write the full survey (plans plus the economies needed to rebuild
    the markets); returns the number of plan rows.

    ``survey`` is a decoded survey or its :func:`survey_csv_bytes` (a
    world's ``survey_csv``), written as they are. Unlike
    :func:`write_plans_csv` (a flat export), this format round-trips
    through :func:`read_survey_csv`.
    """
    data = survey if isinstance(survey, bytes) else survey_csv_bytes(survey)
    Path(path).write_bytes(data)
    return survey_plan_count(data)


def survey_plan_count(data: bytes) -> int:
    """Plan rows of :func:`survey_csv_bytes`: the lines under the header."""
    return data.count(b"\n") - 1


def read_survey_csv(path: str | Path) -> PlanSurvey:
    """Rebuild a :class:`PlanSurvey` written by :func:`write_survey_csv`."""
    path = Path(path)
    return decode_survey_csv(path.read_bytes(), path)


def decode_survey_csv(data: bytes, path: str | Path) -> PlanSurvey:
    """Rebuild a :class:`PlanSurvey` from :func:`survey_csv_bytes`;
    errors name ``path``, the file the bytes came from."""
    from ..market.currency import Currency
    from ..market.economy import DevelopmentLevel, Economy, Region
    from ..market.market import CountryMarket
    from ..market.plans import BroadbandPlan, PlanTechnology

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or set(reader.fieldnames) != set(
        _SURVEY_FIELDS
    ):
        raise DatasetError(f"{path}: unexpected survey columns")
    grouped: dict[str, dict] = {}
    for line, row in enumerate(reader, start=2):
        try:
            currency = Currency(
                code=row["currency_code"],
                units_per_usd=_field(row, "units_per_usd", float),
                ppp_market_ratio=_field(row, "ppp_market_ratio", float),
            )
            plan = BroadbandPlan(
                country=row["country"],
                isp=row["isp"],
                name=row["name"],
                download_mbps=_field(row, "download_mbps", float),
                upload_mbps=_field(row, "upload_mbps", float),
                monthly_price_local=_field(
                    row, "monthly_price_local", float
                ),
                currency=currency,
                technology=_field(row, "technology", PlanTechnology),
                data_cap_gb=_field(row, "data_cap_gb", _optional),
                dedicated=bool(_field(row, "dedicated", int)),
            )
        except (ValueError, TypeError, KeyError, DatasetError) as exc:
            raise DatasetError(f"{path}:{line}: {exc}") from None
        entry = grouped.setdefault(
            row["country"], {"row": row, "plans": []}
        )
        entry["plans"].append(plan)
    markets = {}
    for country, entry in grouped.items():
        row = entry["row"]
        try:
            economy = Economy(
                country=country,
                region=_field(row, "region", Region),
                development=_field(row, "development", DevelopmentLevel),
                gdp_per_capita_ppp_usd=_field(
                    row, "gdp_per_capita_ppp_usd", float
                ),
                currency=entry["plans"][0].currency,
                internet_penetration=_field(
                    row, "internet_penetration", float
                ),
            )
        except (ValueError, TypeError, KeyError, DatasetError) as exc:
            raise DatasetError(f"{path}: country {country}: {exc}") from None
        markets[country] = CountryMarket(
            economy=economy, plans=tuple(entry["plans"])
        )
    return PlanSurvey(markets=markets)


def _canonical_json(value, path: str):
    """Coerce a config payload value to JSON-native types, recursively.

    Cache keys hash this payload, so every value must serialize the
    same way forever: numpy scalars and other ``Integral``/``Real``
    duck-types collapse to plain int/float, and anything without an
    unambiguous JSON form (``Path``, ``set``, arbitrary objects) is an
    error here — not silently stringified into an unstable hash.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise DatasetError(
                    f"config field {path} has a non-string key {key!r}"
                )
            out[key] = _canonical_json(item, f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [
            _canonical_json(item, f"{path}[{i}]")
            for i, item in enumerate(value)
        ]
    raise DatasetError(
        f"config field {path} has non-JSON-native value {value!r} "
        f"of type {type(value).__name__}; convert it explicitly"
    )


def config_payload(config: WorldConfig) -> dict:
    """JSON-ready dict of a config, omitting fields at their defaults
    that postdate the original format (``faults``, ``sanitize``), so
    fault-free configs serialize byte-identically to the original layout
    and hash to the same cache keys. All values are canonicalized to
    JSON-native types; non-native values raise instead of being
    stringified into an unstable cache key."""
    payload = dataclasses.asdict(config)
    payload["years"] = list(config.years)
    if config.faults is None:
        payload.pop("faults")
    if config.sanitize is False:
        payload.pop("sanitize")
    return _canonical_json(payload, "config")


def write_config_json(config: WorldConfig, path: str | Path) -> None:
    """Persist a world configuration for provenance."""
    payload = config_payload(config)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def config_from_payload(payload: Mapping) -> WorldConfig:
    """Rebuild a :class:`WorldConfig` from a :func:`config_payload`
    dict (the ``config.json`` schema, also carried inside DAG stage
    configs). The inverse is not exact field-by-field — omitted
    ``faults``/``sanitize`` come back at their defaults — but
    round-tripping any config through payload and back yields an equal
    config."""
    data = dict(payload)
    if "years" in data:  # optional in hand-written (partial) payloads
        data["years"] = tuple(data["years"])
    try:
        return WorldConfig(**data)
    except TypeError as exc:
        raise DatasetError(f"not a world config payload ({exc})") from None


def read_config_json(path: str | Path) -> WorldConfig:
    """Load a world configuration written by :func:`write_config_json`."""
    payload = json.loads(Path(path).read_text())
    try:
        return config_from_payload(payload)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def load_dataset_dir(
    data_dir: str | Path,
) -> tuple[UserColumns, UserColumns, PlanSurvey | None]:
    """``(dasu, fcc, survey)`` from a directory written by ``repro build``
    (``survey`` is ``None`` without a ``survey.csv``), users in
    ``user_id`` order either way.

    A readable ``users.npy`` shard is the fast path: no CSV parsing and
    full-precision hourly profiles (the CSV stores them at %.6g)."""
    data_dir = Path(data_dir)
    users = None
    npy_path = data_dir / "users.npy"
    if npy_path.exists():
        try:
            columns = read_users_npy(npy_path)
        except DatasetError:
            columns = None  # unreadable/foreign shard: fall back to CSV
        if columns is not None:  # into read_users_csv's (user_id) order
            users = columns.take(
                np.argsort(columns.current("user_id"), kind="stable")
            )
    if users is None:
        users_path = data_dir / "users.csv"
        if not users_path.exists():
            raise DatasetError(f"no users.csv under {data_dir}")
        users = read_users_csv(users_path)
    survey_path = data_dir / "survey.csv"
    return (
        users.select_users(users.source_mask("dasu")),
        users.select_users(users.source_mask("fcc")),
        read_survey_csv(survey_path) if survey_path.exists() else None,
    )
