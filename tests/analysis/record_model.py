"""The record model: the reference the row block is held to.

Before datasets became one structured array of period rows
(:mod:`repro.datasets.columns`), a household was a :class:`UserRecord`
holding a tuple of :class:`PeriodObservation` objects, and the CSV
reader and writer, sanitization and the builder all worked on those
objects. Those object paths live on here, in their straight-line form,
as the oracle the columnar code is held to:

* :func:`records_to_rows` / :func:`rows_to_records` — per-row
  conversion between records and rows (one structured-array write or
  numpy scalar read per field and row);
* :func:`read_users_csv` / :func:`write_users_csv` — the record CSV
  reader and writer, messages and text included;
* :func:`sanitize_users` — the record-level cleaning rules, one user
  and one period at a time.

Test support only; nothing in ``src/`` calls it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets.columns import (
    OPTIONAL_FLAGS,
    PERIOD_FIELDS,
    ROW_DTYPE,
    USER_FIELDS,
    UserColumns,
    _encode_str,
)
from repro.datasets.io import _decode_profile, _encode_profile, _field, _optional
from repro.datasets.records import _DAYS_PER_YEAR, EPOCH_YEAR
from repro.datasets.sanitize import (
    _GATEWAY_INTERVAL_S,
    _SECONDS_PER_DAY,
    MIN_NDT_TESTS,
    MIN_OBSERVED_DAYS,
    SanitizationReport,
)
from repro.exceptions import DatasetError


def period_year(period: ServicePeriod) -> int:
    """Calendar year a service period belongs to (by its start day)."""
    return EPOCH_YEAR + int(period.start_day // _DAYS_PER_YEAR)


@dataclass(frozen=True)
class PeriodObservation:
    """One service period plus the measurements taken during it."""

    period: ServicePeriod
    latency_ms: float
    loss_fraction: float
    capacity_up_mbps: float
    n_ndt_tests: int
    n_usage_samples: int
    #: Mean rate per local hour (24 values, NaN where coverage is thin),
    #: or None when the period's hour coverage was too sparse.
    hourly_mean_mbps: tuple[float, ...] | None = None
    #: Uplink demand summaries (all traffic), when the collector
    #: recorded the sent direction.
    mean_up_mbps: float | None = None
    peak_up_mbps: float | None = None

    def __post_init__(self) -> None:
        if (
            self.hourly_mean_mbps is not None
            and len(self.hourly_mean_mbps) != 24
        ):
            raise DatasetError("hourly profile must have 24 entries")
        if self.latency_ms <= 0:
            raise DatasetError("period latency must be positive")
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise DatasetError("period loss must be in [0, 1]")

    @property
    def year(self) -> int:
        return period_year(self.period)


@dataclass(frozen=True)
class UserRecord:
    """One vantage point's cleaned record.

    ``capacity_down_mbps``, ``latency_ms`` and ``loss_fraction`` describe
    the user's *current* (most recent) connection, which is what the
    cross-sectional analyses use; ``observations`` carries the full
    history for the longitudinal and upgrade analyses.
    """

    user_id: str
    source: str  # "dasu" or "fcc"
    country: str
    region: str
    development: str
    vantage: str  # "direct", "upnp", or "gateway"
    technology: str
    bt_user: bool
    observations: tuple[PeriodObservation, ...]
    price_of_access_usd: float | None
    upgrade_cost_usd_per_mbps: float | None
    gdp_per_capita_usd: float
    #: Monthly traffic limit of the user's current plan, if any (GB).
    plan_data_cap_gb: float | None = None
    web_latency_ms: float | None = None
    ndt_2014_latency_ms: float | None = None
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.source not in ("dasu", "fcc"):
            raise DatasetError(f"unknown source {self.source!r}")
        if not self.observations:
            raise DatasetError(f"{self.user_id}: record has no observations")
        days = [o.period.start_day for o in self.observations]
        if days != sorted(days):
            raise DatasetError(f"{self.user_id}: observations out of order")

    # -- current-connection accessors (most recent period) ---------------

    @property
    def current(self) -> PeriodObservation:
        return self.observations[-1]

    @property
    def capacity_down_mbps(self) -> float:
        return self.current.period.capacity_mbps

    @property
    def latency_ms(self) -> float:
        return self.current.latency_ms

    @property
    def loss_fraction(self) -> float:
        return self.current.loss_fraction

    @property
    def network(self) -> NetworkId:
        return self.current.period.network

    @property
    def mean_mbps(self) -> float:
        return self.current.period.mean_mbps

    @property
    def peak_mbps(self) -> float:
        return self.current.period.peak_mbps

    @property
    def mean_no_bt_mbps(self) -> float:
        return self.current.period.mean_no_bt_mbps

    @property
    def peak_no_bt_mbps(self) -> float:
        return self.current.period.peak_no_bt_mbps

    @property
    def mean_up_mbps(self) -> float | None:
        return self.current.mean_up_mbps

    @property
    def peak_up_mbps(self) -> float | None:
        return self.current.peak_up_mbps

    def demand(self, metric: str = "peak", include_bt: bool = False) -> float:
        """A demand statistic of the current period by name."""
        if metric == "peak":
            return self.peak_mbps if include_bt else self.peak_no_bt_mbps
        if metric == "mean":
            return self.mean_mbps if include_bt else self.mean_no_bt_mbps
        raise DatasetError(f"unknown demand metric {metric!r}")

    @property
    def peak_utilization(self) -> float:
        """95th-percentile link utilization, clipped to 1.

        Computed without BitTorrent-active intervals: BitTorrent
        saturates any link by design, so including it would flatten the
        cross-market utilization comparisons of Figs. 7-8.
        """
        return min(1.0, self.peak_no_bt_mbps / self.capacity_down_mbps)

    # -- history accessors ------------------------------------------------

    @property
    def periods(self) -> tuple[ServicePeriod, ...]:
        return tuple(o.period for o in self.observations)

    def observation_in_year(self, year: int) -> PeriodObservation | None:
        """The user's observation for a calendar year, if any."""
        for obs in self.observations:
            if obs.year == year:
                return obs
        return None

    @property
    def switched_service(self) -> bool:
        """Whether the user was seen on more than one network."""
        networks = {o.period.network for o in self.observations}
        return len(networks) > 1


def records_to_rows(users: Sequence[UserRecord]) -> np.ndarray:
    """Flatten records into a structured array, one row per period,
    one field and row at a time."""
    n_rows = sum(len(u.observations) for u in users)
    rows = np.zeros(n_rows, dtype=ROW_DTYPE)
    start = 0
    for user in users:
        stop = start + len(user.observations)
        block = rows[start:stop]
        block["user_id"] = _encode_str(user.user_id, "user_id")
        block["source"] = _encode_str(user.source, "source")
        block["country"] = _encode_str(user.country, "country")
        block["region"] = _encode_str(user.region, "region")
        block["development"] = _encode_str(user.development, "development")
        block["vantage"] = _encode_str(user.vantage, "vantage")
        block["technology"] = _encode_str(user.technology, "technology")
        block["bt_user"] = user.bt_user
        _set_optional(block, "price_of_access_usd", user.price_of_access_usd)
        _set_optional(
            block, "upgrade_cost_usd_per_mbps", user.upgrade_cost_usd_per_mbps
        )
        block["gdp_per_capita_usd"] = user.gdp_per_capita_usd
        _set_optional(block, "plan_data_cap_gb", user.plan_data_cap_gb)
        _set_optional(block, "web_latency_ms", user.web_latency_ms)
        _set_optional(block, "ndt_2014_latency_ms", user.ndt_2014_latency_ms)
        for offset, obs in enumerate(user.observations):
            row = block[offset]
            p = obs.period
            row["isp"] = _encode_str(p.network.isp, "isp")
            row["prefix"] = _encode_str(p.network.prefix, "prefix")
            row["city"] = _encode_str(p.network.city, "city")
            row["start_day"] = p.start_day
            row["end_day"] = p.end_day
            row["capacity_mbps"] = p.capacity_mbps
            row["mean_mbps"] = p.mean_mbps
            row["peak_mbps"] = p.peak_mbps
            row["mean_no_bt_mbps"] = p.mean_no_bt_mbps
            row["peak_no_bt_mbps"] = p.peak_no_bt_mbps
            row["latency_ms"] = obs.latency_ms
            row["loss_fraction"] = obs.loss_fraction
            row["capacity_up_mbps"] = obs.capacity_up_mbps
            row["n_ndt_tests"] = obs.n_ndt_tests
            row["n_usage_samples"] = obs.n_usage_samples
            if obs.hourly_mean_mbps is None:
                row["hourly_mean_mbps"] = np.nan
                row["has_hourly"] = False
            else:
                row["hourly_mean_mbps"] = obs.hourly_mean_mbps
                row["has_hourly"] = True
            _set_optional(row, "mean_up_mbps", obs.mean_up_mbps)
            _set_optional(row, "peak_up_mbps", obs.peak_up_mbps)
        start = stop
    return rows


def _set_optional(target, field: str, value: float | None) -> None:
    flag = OPTIONAL_FLAGS[field]
    if value is None:
        target[field] = np.nan
        target[flag] = False
    else:
        target[field] = value
        target[flag] = True


def _get_optional(row, field: str) -> float | None:
    return float(row[field]) if bool(row[OPTIONAL_FLAGS[field]]) else None


def record_from_rows(block: np.ndarray) -> UserRecord:
    """Rebuild one user's record from its contiguous row block."""
    first = block[0]
    user_id = first["user_id"].decode("utf-8")
    observations = []
    for row in block:
        period = ServicePeriod(
            user_id=user_id,
            network=NetworkId(
                isp=row["isp"].decode("utf-8"),
                prefix=row["prefix"].decode("utf-8"),
                city=row["city"].decode("utf-8"),
            ),
            start_day=float(row["start_day"]),
            end_day=float(row["end_day"]),
            capacity_mbps=float(row["capacity_mbps"]),
            mean_mbps=float(row["mean_mbps"]),
            peak_mbps=float(row["peak_mbps"]),
            mean_no_bt_mbps=float(row["mean_no_bt_mbps"]),
            peak_no_bt_mbps=float(row["peak_no_bt_mbps"]),
        )
        hourly = None
        if bool(row["has_hourly"]):
            hourly = tuple(float(v) for v in row["hourly_mean_mbps"])
        observations.append(
            PeriodObservation(
                period=period,
                latency_ms=float(row["latency_ms"]),
                loss_fraction=float(row["loss_fraction"]),
                capacity_up_mbps=float(row["capacity_up_mbps"]),
                n_ndt_tests=int(row["n_ndt_tests"]),
                n_usage_samples=int(row["n_usage_samples"]),
                hourly_mean_mbps=hourly,
                mean_up_mbps=_get_optional(row, "mean_up_mbps"),
                peak_up_mbps=_get_optional(row, "peak_up_mbps"),
            )
        )
    return UserRecord(
        user_id=user_id,
        source=first["source"].decode("utf-8"),
        country=first["country"].decode("utf-8"),
        region=first["region"].decode("utf-8"),
        development=first["development"].decode("utf-8"),
        vantage=first["vantage"].decode("utf-8"),
        technology=first["technology"].decode("utf-8"),
        bt_user=bool(first["bt_user"]),
        observations=tuple(observations),
        price_of_access_usd=_get_optional(first, "price_of_access_usd"),
        upgrade_cost_usd_per_mbps=_get_optional(
            first, "upgrade_cost_usd_per_mbps"
        ),
        gdp_per_capita_usd=float(first["gdp_per_capita_usd"]),
        plan_data_cap_gb=_get_optional(first, "plan_data_cap_gb"),
        web_latency_ms=_get_optional(first, "web_latency_ms"),
        ndt_2014_latency_ms=_get_optional(first, "ndt_2014_latency_ms"),
    )


def rows_to_records(rows: np.ndarray) -> list[UserRecord]:
    """Every user's record, one row block at a time."""
    columns = UserColumns(rows)
    return [
        record_from_rows(rows[start : start + count])
        for start, count in zip(columns.user_starts, columns.user_counts)
    ]


def to_records(columns: UserColumns) -> tuple[UserRecord, ...]:
    """Every user of a dataset as a record, in row order."""
    return tuple(rows_to_records(columns.rows))


def from_records(users: Sequence[UserRecord]) -> UserColumns:
    """A dataset holding ``users``."""
    return UserColumns(records_to_rows(users))


def household_values(users: Sequence[UserRecord]) -> list[tuple[tuple, tuple]]:
    """Records as the ``(user, periods)`` value tuples that
    :func:`repro.datasets.columns.records_to_rows` flattens."""
    return [
        (
            (
                u.user_id, u.source, u.country, u.region, u.development,
                u.vantage, u.technology, u.bt_user, u.price_of_access_usd,
                u.upgrade_cost_usd_per_mbps, u.gdp_per_capita_usd,
                u.plan_data_cap_gb, u.web_latency_ms, u.ndt_2014_latency_ms,
            ),
            tuple(
                (
                    o.period.network.isp, o.period.network.prefix,
                    o.period.network.city, o.period.start_day,
                    o.period.end_day, o.period.capacity_mbps,
                    o.period.mean_mbps, o.period.peak_mbps,
                    o.period.mean_no_bt_mbps, o.period.peak_no_bt_mbps,
                    o.latency_ms, o.loss_fraction, o.capacity_up_mbps,
                    o.n_ndt_tests, o.n_usage_samples, o.hourly_mean_mbps,
                    o.mean_up_mbps, o.peak_up_mbps,
                )
                for o in u.observations
            ),
        )
        for u in users
    ]


def write_users_csv(users: Sequence[UserRecord], path: str | Path) -> int:
    """Write records as ``users.csv`` (one row per service period);
    returns the row count."""
    path = Path(path)
    n_rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(USER_FIELDS + PERIOD_FIELDS)
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
    """Read ``users.csv`` into records, users in ``user_id`` order.

    Strict by default; with an ``errors`` list, malformed rows (or whole
    users) are skipped and one message per casualty is appended.
    """
    path = Path(path)
    lenient = errors is not None
    grouped: dict[str, dict] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        expected = set(USER_FIELDS + PERIOD_FIELDS)
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


def _observed_days(user: UserRecord, dasu_interval_s: float) -> float:
    """Wall-clock days of usable collection across a user's periods."""
    per_sample_s = (
        dasu_interval_s if user.source == "dasu" else _GATEWAY_INTERVAL_S
    )
    samples = sum(o.n_usage_samples for o in user.observations)
    return samples * per_sample_s / _SECONDS_PER_DAY


def _period_is_valid(obs) -> bool:
    p = obs.period
    values = (
        p.capacity_mbps, p.mean_mbps, p.peak_mbps,
        p.mean_no_bt_mbps, p.peak_no_bt_mbps,
        obs.latency_ms, obs.loss_fraction, obs.capacity_up_mbps,
    )
    if any(not math.isfinite(v) for v in values):
        return False
    return (
        p.mean_mbps >= 0 and p.peak_mbps >= 0
        and p.mean_no_bt_mbps >= 0 and p.peak_no_bt_mbps >= 0
        and obs.capacity_up_mbps > 0
    )


def sanitize_users(
    users: Sequence[UserRecord],
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
    report: SanitizationReport | None = None,
) -> tuple[list[UserRecord], SanitizationReport]:
    """Apply the paper's record-level cleaning rules to a dataset.

    Rules, in order, each accounted under its own name in the report:

    * ``duplicate_period`` — verbatim-repeated service periods (same
      network, same window) are collapsed to one;
    * ``ndt_failure`` — periods whose capacity estimate rests on fewer
      than ``min_ndt_tests`` surviving tests are excluded;
    * ``invalid_values`` — periods carrying non-finite or negative
      summary statistics are excluded (third-party data hardening);
    * ``short_observation`` — hosts with less than
      ``min_observed_days`` of total usable collection are excluded,
      as the paper filters to hosts with enough observed days.
    """
    if report is None:
        report = SanitizationReport()
    kept_users: list[UserRecord] = []
    report.users_in += len(users)
    for user in users:
        candidate = _sanitize_one(
            user,
            dasu_interval_s=dasu_interval_s,
            min_observed_days=min_observed_days,
            min_ndt_tests=min_ndt_tests,
            report=report,
        )
        if candidate is not None:
            kept_users.append(candidate)
    report.users_kept += len(kept_users)
    return kept_users, report


def _sanitize_one(
    user: UserRecord,
    *,
    dasu_interval_s: float,
    min_observed_days: float,
    min_ndt_tests: int,
    report: SanitizationReport,
) -> UserRecord | None:
    """Record-level rules for a single user (every rule is strictly
    per-user, so the totals are identical for any batching)."""
    report.periods_in += len(user.observations)
    seen: set = set()
    kept = []
    for obs in user.observations:
        p = obs.period
        key = (p.network, p.start_day, p.end_day)
        rule = report.rule("duplicate_period")
        rule.examined += 1
        if key in seen:
            rule.dropped += 1
            continue
        seen.add(key)
        rule = report.rule("ndt_failure")
        rule.examined += 1
        if obs.n_ndt_tests < min_ndt_tests:
            rule.dropped += 1
            continue
        rule = report.rule("invalid_values")
        rule.examined += 1
        if not _period_is_valid(obs):
            rule.dropped += 1
            continue
        kept.append(obs)
    rule = report.rule("short_observation")
    rule.examined += 1
    if not kept:
        rule.dropped += 1
        return None
    candidate = (
        user
        if len(kept) == len(user.observations)
        else dataclasses.replace(user, observations=tuple(kept))
    )
    if _observed_days(candidate, dasu_interval_s) < min_observed_days:
        rule.dropped += 1
        return None
    report.periods_kept += len(kept)
    return candidate
