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

Round-tripping through :func:`write_users_csv` / :func:`read_users_csv`
reconstructs equivalent :class:`~repro.datasets.records.UserRecord`
objects (extras and 2014 follow-up fields included).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import numbers
from collections.abc import Mapping
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.upgrades import NetworkId, ServicePeriod
from ..exceptions import DatasetError
from ..market.survey import PlanSurvey
from .columns import PERIOD_FIELDS, ROW_DTYPE, USER_FIELDS, UserColumns
from .records import PeriodObservation, UserRecord
from .world import WorldConfig

__all__ = [
    "config_from_payload",
    "config_payload",
    "load_dataset_dir",
    "read_config_json",
    "read_survey_csv",
    "read_users_csv",
    "read_users_npy",
    "survey_csv_text",
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


def write_users_csv(
    users: "Sequence[UserRecord] | UserColumns", path: str | Path
) -> int:
    """Write user records (one row per service period); returns row count.

    Accepts either an object-path record sequence or a columnar dataset;
    a columnar input streams its records one batch of users at a time
    (see :meth:`UserColumns.iter_records`) and writes byte-identical text — f8 columns round-trip Python floats
    exactly, so the shortest-repr rendering is unchanged.
    """
    path = Path(path)
    if isinstance(users, UserColumns):
        users = users.iter_records()
    n_rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_USER_FIELDS + _PERIOD_FIELDS)
        for user in users:
            base = [
                user.user_id, user.source, user.country, user.region,
                user.development, user.vantage, user.technology,
                int(user.bt_user),
                "" if user.price_of_access_usd is None else user.price_of_access_usd,
                "" if user.upgrade_cost_usd_per_mbps is None else user.upgrade_cost_usd_per_mbps,
                user.gdp_per_capita_usd,
                "" if user.plan_data_cap_gb is None else user.plan_data_cap_gb,
                "" if user.web_latency_ms is None else user.web_latency_ms,
                "" if user.ndt_2014_latency_ms is None else user.ndt_2014_latency_ms,
            ]
            for obs in user.observations:
                p = obs.period
                writer.writerow(
                    base
                    + [
                        p.network.isp, p.network.prefix, p.network.city,
                        p.start_day, p.end_day, p.capacity_mbps,
                        p.mean_mbps, p.peak_mbps, p.mean_no_bt_mbps,
                        p.peak_no_bt_mbps, obs.latency_ms,
                        obs.loss_fraction, obs.capacity_up_mbps,
                        obs.n_ndt_tests, obs.n_usage_samples,
                        _encode_profile(obs.hourly_mean_mbps),
                        "" if obs.mean_up_mbps is None else obs.mean_up_mbps,
                        "" if obs.peak_up_mbps is None else obs.peak_up_mbps,
                    ]
                )
                n_rows += 1
    return n_rows


def read_users_csv(
    path: str | Path, errors: list[str] | None = None
) -> list[UserRecord]:
    """Read user records written by :func:`write_users_csv`.

    Strict by default: any malformed row raises a :class:`DatasetError`
    naming the file, line number, and offending column. Pass an
    ``errors`` list to read leniently instead — rows (or whole users)
    that fail to parse or validate are skipped and one message per
    casualty (same format as the strict raise) is appended to the list.
    The lenient path is what
    :func:`repro.datasets.sanitize.ingest_users` builds on for datasets
    of unknown hygiene.
    """
    path = Path(path)
    lenient = errors is not None
    grouped: dict[str, dict] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        expected = set(_USER_FIELDS + _PERIOD_FIELDS)
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise DatasetError(f"{path}: unexpected columns")
        for line, row in enumerate(reader, start=2):
            try:
                period = ServicePeriod(
                    user_id=row["user_id"],
                    network=NetworkId(row["isp"], row["prefix"], row["city"]),
                    start_day=_field(row, "start_day", float),
                    end_day=_field(row, "end_day", float),
                    capacity_mbps=_field(row, "capacity_mbps", float),
                    mean_mbps=_field(row, "mean_mbps", float),
                    peak_mbps=_field(row, "peak_mbps", float),
                    mean_no_bt_mbps=_field(row, "mean_no_bt_mbps", float),
                    peak_no_bt_mbps=_field(row, "peak_no_bt_mbps", float),
                )
                observation = PeriodObservation(
                    period=period,
                    latency_ms=_field(row, "latency_ms", float),
                    loss_fraction=_field(row, "loss_fraction", float),
                    capacity_up_mbps=_field(row, "capacity_up_mbps", float),
                    n_ndt_tests=_field(row, "n_ndt_tests", int),
                    n_usage_samples=_field(row, "n_usage_samples", int),
                    hourly_mean_mbps=_field(
                        row, "hourly_mean_mbps", _decode_profile
                    ),
                    mean_up_mbps=_field(row, "mean_up_mbps", _optional),
                    peak_up_mbps=_field(row, "peak_up_mbps", _optional),
                )
            except (ValueError, TypeError, KeyError, DatasetError) as exc:
                message = f"{path}:{line}: {exc}"
                if not lenient:
                    raise DatasetError(message) from None
                errors.append(message)
                continue
            entry = grouped.setdefault(
                row["user_id"], {"row": row, "observations": []}
            )
            entry["observations"].append(observation)
    users = []
    for entry in grouped.values():
        row = entry["row"]
        observations = sorted(
            entry["observations"], key=lambda o: o.period.start_day
        )
        try:
            users.append(
                UserRecord(
                    user_id=row["user_id"],
                    source=row["source"],
                    country=row["country"],
                    region=row["region"],
                    development=row["development"],
                    vantage=row["vantage"],
                    technology=row["technology"],
                    bt_user=bool(_field(row, "bt_user", int)),
                    observations=tuple(observations),
                    price_of_access_usd=_field(
                        row, "price_of_access_usd", _optional
                    ),
                    upgrade_cost_usd_per_mbps=_field(
                        row, "upgrade_cost_usd_per_mbps", _optional
                    ),
                    gdp_per_capita_usd=_field(
                        row, "gdp_per_capita_usd", float
                    ),
                    plan_data_cap_gb=_field(row, "plan_data_cap_gb", _optional),
                    web_latency_ms=_field(row, "web_latency_ms", _optional),
                    ndt_2014_latency_ms=_field(
                        row, "ndt_2014_latency_ms", _optional
                    ),
                )
            )
        except (ValueError, TypeError, KeyError, DatasetError) as exc:
            message = f"{path}: user {row.get('user_id', '?')}: {exc}"
            if not lenient:
                raise DatasetError(message) from None
            errors.append(message)
    return sorted(users, key=lambda u: u.user_id)


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


def survey_csv_text(survey: PlanSurvey) -> str:
    """The survey's canonical CSV rendering as one string.

    Countries iterate in the survey's sorted order, so the text is a
    deterministic function of the survey's value — a built survey and a
    cache-loaded one render identically, which makes this the survey's
    content address for fragment-level recompute keys.
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
    return buffer.getvalue()


def write_survey_csv(survey: PlanSurvey, path: str | Path) -> int:
    """Write the full survey (plans plus the economies needed to rebuild
    the markets); returns the number of plan rows.

    Unlike :func:`write_plans_csv` (a flat export), this format
    round-trips through :func:`read_survey_csv`.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(survey_csv_text(survey))
    return sum(
        len(survey.markets[country].plans) for country in survey.countries
    )


def read_survey_csv(path: str | Path) -> PlanSurvey:
    """Rebuild a :class:`PlanSurvey` written by :func:`write_survey_csv`."""
    from ..market.currency import Currency
    from ..market.economy import DevelopmentLevel, Economy, Region
    from ..market.market import CountryMarket
    from ..market.plans import BroadbandPlan, PlanTechnology

    path = Path(path)
    grouped: dict[str, dict] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(reader.fieldnames) != set(
            _SURVEY_FIELDS
        ):
            raise DatasetError(f"{path}: unexpected survey columns")
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

    A readable ``users.npy`` shard is the fast path: no CSV parsing, no
    records, and full-precision hourly profiles (the CSV stores them at
    %.6g)."""
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
        users = UserColumns.from_records(read_users_csv(users_path))
    survey_path = data_dir / "survey.csv"
    return (
        users.select_users(users.source_mask("dasu")),
        users.select_users(users.source_mask("fcc")),
        read_survey_csv(survey_path) if survey_path.exists() else None,
    )
