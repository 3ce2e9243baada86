"""Per-row reference for the columnar conversion kernels.

This is the original element-by-element conversion between
:class:`~repro.datasets.records.UserRecord` objects and
:data:`~repro.datasets.columns.ROW_DTYPE` rows: one structured-array
write per field and period row on the way in, one numpy scalar read per
field and period row on the way out. The library now converts a whole
column at a time; the oracle tests hold the batched kernels to this
code's exact rows and records.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.upgrades import NetworkId, ServicePeriod
from repro.datasets.columns import (
    OPTIONAL_FLAGS,
    ROW_DTYPE,
    UserColumns,
    _encode_str,
)
from repro.datasets.records import PeriodObservation, UserRecord


def reference_records_to_rows(users: Sequence[UserRecord]) -> np.ndarray:
    """Flatten records into a structured array, one row per period."""
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


def reference_record_from_rows(block: np.ndarray) -> UserRecord:
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


def reference_rows_to_records(rows: np.ndarray) -> list[UserRecord]:
    """Every user's record, one row block at a time."""
    columns = UserColumns(rows)
    return [
        reference_record_from_rows(rows[start : start + count])
        for start, count in zip(columns.user_starts, columns.user_counts)
    ]
