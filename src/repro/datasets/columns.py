"""Columnar data plane: datasets as numpy structured arrays.

Every dataset is **one structured array** — one row per (user, service
period), user-level covariates repeated per row, exactly like
``users.csv``. This row block is the only in-memory form of a dataset:
the builder writes its households straight into it, sanitization keeps
or drops its rows by mask, the cache stores it verbatim, the CSV reader
and writer convert it a column at a time, and every experiment of the
evaluation reads it. A million households stay a few arrays instead of
tens of millions of Python objects shuttled through worker pickles.

Representation contract
-----------------------

* **Stable field order.** :data:`ROW_DTYPE` fields follow the canonical
  CSV column order (:data:`USER_FIELDS` then :data:`PERIOD_FIELDS`),
  with a boolean presence flag immediately after every optional field.
  The order is part of the on-disk format; changing it (or any width)
  requires bumping :data:`COLUMNS_FORMAT_VERSION`.
* **Exact values.** Floats are stored as ``f8`` — bit-identical through
  any number of round trips. ``None``-able fields store NaN plus a
  presence flag, so a *missing* value can never be confused with a
  measured NaN.
* **Grouped rows.** All rows of a user are contiguous and in
  observation order (ascending ``start_day``), mirroring both the
  builder's append order and the CSV layout. :class:`UserColumns`
  validates this on first per-user access.
* **Batched conversion.** :func:`records_to_rows` fills each field
  with one assignment from a list of its values, and
  :func:`_record_from_rows` decodes a block of rows with one
  ``tolist()`` per field.

Strings are fixed-width UTF-8 bytes (``S``); widths are generous for
every generator-produced value and conversion raises
:class:`~repro.exceptions.DatasetError` rather than silently truncating
third-party data (the width is checked per value, before the batched
assignment, which would truncate silently).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.upgrades import NetworkId, ServicePeriod
from ..exceptions import DatasetError

__all__ = [
    "COLUMNS_FORMAT_VERSION",
    "PERIOD_FIELDS",
    "ROW_DTYPE",
    "USER_FIELDS",
    "UserColumns",
    "records_to_rows",
]

#: Bump when :data:`ROW_DTYPE` changes in any way (field set, order, or
#: width); persisted ``users.npy`` shards carry this version.
COLUMNS_FORMAT_VERSION = 1

#: Canonical user-level CSV columns, in order (see ``datasets/io.py``).
USER_FIELDS = [
    "user_id", "source", "country", "region", "development", "vantage",
    "technology", "bt_user", "price_of_access_usd",
    "upgrade_cost_usd_per_mbps", "gdp_per_capita_usd",
    "plan_data_cap_gb", "web_latency_ms", "ndt_2014_latency_ms",
]
#: Canonical period-level CSV columns, in order.
PERIOD_FIELDS = [
    "isp", "prefix", "city", "start_day", "end_day", "capacity_mbps",
    "mean_mbps", "peak_mbps", "mean_no_bt_mbps", "peak_no_bt_mbps",
    "latency_ms", "loss_fraction", "capacity_up_mbps", "n_ndt_tests",
    "n_usage_samples", "hourly_mean_mbps", "mean_up_mbps", "peak_up_mbps",
]

#: ``None``-able fields and the flag column that records presence.
OPTIONAL_FLAGS = {
    "price_of_access_usd": "has_price_of_access",
    "upgrade_cost_usd_per_mbps": "has_upgrade_cost",
    "plan_data_cap_gb": "has_plan_data_cap",
    "web_latency_ms": "has_web_latency",
    "ndt_2014_latency_ms": "has_ndt_2014_latency",
    "hourly_mean_mbps": "has_hourly",
    "mean_up_mbps": "has_mean_up",
    "peak_up_mbps": "has_peak_up",
}

_STRING_WIDTHS = {
    "user_id": 48, "source": 8, "country": 40, "region": 40,
    "development": 24, "vantage": 16, "technology": 32,
    "isp": 64, "prefix": 32, "city": 64,
}


def _field_format(name: str) -> tuple:
    if name in _STRING_WIDTHS:
        return (name, f"S{_STRING_WIDTHS[name]}")
    if name == "bt_user" or name in OPTIONAL_FLAGS.values():
        return (name, "?")
    if name in ("n_ndt_tests", "n_usage_samples"):
        return (name, "i8")
    if name == "hourly_mean_mbps":
        return (name, "f8", (24,))
    return (name, "f8")


def _dtype_fields() -> list[tuple]:
    fields: list[tuple] = []
    for name in USER_FIELDS + PERIOD_FIELDS:
        fields.append(_field_format(name))
        flag = OPTIONAL_FLAGS.get(name)
        if flag is not None:
            fields.append(_field_format(flag))
    return fields


#: The structured row layout: CSV column order with presence flags.
ROW_DTYPE = np.dtype(_dtype_fields())


def _encode_str(value: str, field: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > _STRING_WIDTHS[field]:
        raise DatasetError(
            f"{field} value {value!r} exceeds the columnar width "
            f"({len(raw)} > {_STRING_WIDTHS[field]} bytes)"
        )
    return raw


#: Field groups read together, in :data:`ROW_DTYPE` order.
_NETWORK_STRINGS = ("isp", "prefix", "city")
_PERIOD_FLOATS = (
    "start_day", "end_day", "capacity_mbps", "mean_mbps", "peak_mbps",
    "mean_no_bt_mbps", "peak_no_bt_mbps",
)
_NAN_HOURLY = (np.nan,) * 24


def _column_values(field: str, values: Sequence) -> list:
    """One field's values, ready for a whole-column assignment: strings
    encoded (width-checked), ``None`` replaced by the absent value."""
    if field in _STRING_WIDTHS:
        return [_encode_str(value, field) for value in values]
    if field in OPTIONAL_FLAGS:
        absent = _NAN_HOURLY if field == "hourly_mean_mbps" else np.nan
        return [absent if value is None else value for value in values]
    return list(values)


def records_to_rows(users: Sequence[tuple[tuple, Sequence[tuple]]]) -> np.ndarray:
    """Flatten households into a row block, one row per period.

    Each household is a pair ``(user, periods)``: ``user`` holds its
    values in :data:`USER_FIELDS` order and every period its values in
    :data:`PERIOD_FIELDS` order, ``None`` marking an absent optional
    value (an hourly profile is 24 floats). Each field is filled by one
    assignment from a list of its values; user-level values repeat over
    the user's rows. The builder flattens its chunks here and the CSV
    reader its parsed users.
    """
    # The name stays because perfbench/tracer.py wraps it by name.
    counts = [len(periods) for _, periods in users]
    rows = np.zeros(sum(counts), dtype=ROW_DTYPE)
    if not rows.size:
        return rows
    user_columns = zip(*(user for user, _ in users))
    period_columns = zip(*(p for _, periods in users for p in periods))
    for field, values in zip(USER_FIELDS, user_columns):
        rows[field] = np.repeat(
            np.asarray(_column_values(field, values), dtype=ROW_DTYPE[field]),
            counts,
        )
        if field in OPTIONAL_FLAGS:
            rows[OPTIONAL_FLAGS[field]] = np.repeat(
                [value is not None for value in values], counts
            )
    for field, values in zip(PERIOD_FIELDS, period_columns):
        rows[field] = _column_values(field, values)
        if field in OPTIONAL_FLAGS:
            rows[OPTIONAL_FLAGS[field]] = [value is not None for value in values]
    return rows


def _record_from_rows(block: np.ndarray) -> list[list]:
    """Decode a block of rows into one list per column, in
    :data:`USER_FIELDS` + :data:`PERIOD_FIELDS` order: strings decoded,
    ``None`` where an optional value is absent, hourly profiles as lists
    of 24 floats. One ``tolist()`` per field; the CSV writer's decoder.
    """
    # The name stays because perfbench/tracer.py wraps it by name.
    columns = []
    for field in USER_FIELDS + PERIOD_FIELDS:
        values = block[field].tolist()
        if field in _STRING_WIDTHS:
            values = [value.decode("utf-8") for value in values]
        flag = OPTIONAL_FLAGS.get(field)
        if flag is not None:
            values = [
                value if present else None
                for value, present in zip(values, block[flag].tolist())
            ]
        columns.append(values)
    return columns


class UserColumns:
    """A dataset held as one structured array of period rows.

    Thin and immutable by convention: every transformation
    (:meth:`select_users`, :meth:`concat`) returns a new instance. The
    per-user index (row runs, current-period row per user) is built
    lazily on first access, so loading a memory-mapped shard and
    slicing a few columns never touches most of the file.
    """

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        if rows.dtype != ROW_DTYPE:
            raise DatasetError(
                "structured rows do not match the columnar schema "
                f"(format {COLUMNS_FORMAT_VERSION}); rebuild the shard"
            )
        if rows.ndim != 1:
            raise DatasetError("columnar rows must be one-dimensional")
        self._rows = rows
        self._starts: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._current_cache: dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "UserColumns":
        return cls(np.zeros(0, dtype=ROW_DTYPE))

    @classmethod
    def concat(cls, parts: Iterable["UserColumns | np.ndarray"]) -> "UserColumns":
        """Concatenate shards in the given order (builder submission
        order, for the byte-identical ``--jobs`` guarantee)."""
        arrays = [
            p.rows if isinstance(p, UserColumns) else np.asarray(p)
            for p in parts
        ]
        arrays = [a for a in arrays if a.size]
        if not arrays:
            return cls.empty()
        if len(arrays) == 1:
            return cls(arrays[0])
        return cls(np.concatenate(arrays))

    # -- shape ------------------------------------------------------------

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def n_rows(self) -> int:
        return int(self._rows.size)

    @property
    def nbytes(self) -> int:
        return int(self._rows.nbytes)

    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        if self._starts is None:
            ids = self._rows["user_id"]
            if ids.size == 0:
                starts = np.zeros(0, dtype=np.int64)
            else:
                change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
                starts = np.concatenate(
                    (np.zeros(1, dtype=np.int64), change)
                ).astype(np.int64)
            counts = np.diff(
                np.concatenate((starts, [np.int64(ids.size)]))
            ).astype(np.int64)
            if ids.size and np.unique(ids).size != starts.size:
                raise DatasetError(
                    "rows of each user must be contiguous (grouped by "
                    "user_id in observation order)"
                )
            self._starts, self._counts = starts, counts
        return self._starts, self._counts

    @property
    def user_starts(self) -> np.ndarray:
        """First row index of each user (users in row order)."""
        return self._index()[0]

    @property
    def user_counts(self) -> np.ndarray:
        """Number of period rows per user."""
        return self._index()[1]

    @property
    def n_users(self) -> int:
        return int(self.user_starts.size)

    # -- per-user column views -------------------------------------------

    def current(self, field: str) -> np.ndarray:
        """One value per user: ``field`` of the *current* (most recent)
        period row — optional fields read NaN where absent."""
        cached = self._current_cache.get(field)
        if cached is None:
            starts, counts = self._index()
            cached = self._rows[field][starts + counts - 1]
            self._current_cache[field] = cached
        return cached

    @property
    def user_ids(self) -> np.ndarray:
        """Per-user ids, decoded to ``str``."""
        return np.char.decode(self.current("user_id"), "utf-8")

    def source_mask(self, source: str) -> np.ndarray:
        return self.current("source") == source.encode("utf-8")

    def country_mask(self, country: str) -> np.ndarray:
        return self.current("country") == country.encode("utf-8")

    @property
    def capacity_down_mbps(self) -> np.ndarray:
        return self.current("capacity_mbps")

    @property
    def latency_ms(self) -> np.ndarray:
        return self.current("latency_ms")

    @property
    def loss_fraction(self) -> np.ndarray:
        return self.current("loss_fraction")

    @property
    def price_of_access_usd(self) -> np.ndarray:
        """Per-user price of access; NaN where the market had none."""
        return self.current("price_of_access_usd")

    @property
    def upgrade_cost_usd_per_mbps(self) -> np.ndarray:
        return self.current("upgrade_cost_usd_per_mbps")

    @property
    def gdp_per_capita_usd(self) -> np.ndarray:
        return self.current("gdp_per_capita_usd")

    def demand(self, metric: str = "peak", include_bt: bool = False) -> np.ndarray:
        """Per-user current-period demand statistic by name
        (``"peak"``/``"mean"``, with or without BitTorrent)."""
        if metric not in ("peak", "mean"):
            raise DatasetError(f"unknown demand metric {metric!r}")
        field = f"{metric}_mbps" if include_bt else f"{metric}_no_bt_mbps"
        return self.current(field)

    @property
    def peak_utilization(self) -> np.ndarray:
        """Per-user 95th-percentile link utilization without
        BitTorrent-active intervals, clipped to 1 (``fmin``: a NaN peak
        clips to 1, like the scalar ``min``)."""
        return np.fmin(
            1.0, self.current("peak_no_bt_mbps") / self.capacity_down_mbps
        )

    # -- selection --------------------------------------------------------

    def select_users(self, mask: np.ndarray) -> "UserColumns":
        """A new dataset of the users where ``mask`` is True (one entry
        per user), keeping each kept user's rows whole and in order."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_users,):
            raise DatasetError(
                f"user mask has shape {mask.shape}, expected ({self.n_users},)"
            )
        return UserColumns(self._rows[np.repeat(mask, self.user_counts)])

    def take(self, users: np.ndarray) -> "UserColumns":
        """A new dataset of the users at positions ``users``, in that
        order, each user's rows whole and in order."""
        users = np.asarray(users, dtype=np.int64)
        starts, counts = self._index()
        counts = counts[users]
        offsets = np.repeat(starts[users] - (np.cumsum(counts) - counts), counts)
        return UserColumns(self._rows[offsets + np.arange(int(counts.sum()))])

    def service_period(self, row: int) -> ServicePeriod:
        """Row ``row`` as a :class:`~repro.core.upgrades.ServicePeriod`."""
        values = self._rows[row]
        return ServicePeriod(
            user_id=values["user_id"].decode("utf-8"),
            network=NetworkId(
                *(values[f].decode("utf-8") for f in _NETWORK_STRINGS)
            ),
            **{f: float(values[f]) for f in _PERIOD_FLOATS},
        )
