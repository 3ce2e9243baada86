"""Columnar data plane: user records as numpy structured arrays.

Every dataset the analyses read is **one structured array** — one row
per (user, service period), user-level covariates repeated per row,
exactly like ``users.csv``. The builder, the cache, binning, matching,
eligibility filtering and every experiment of the evaluation operate on
whole columns; a million households stay a few arrays instead of tens
of millions of Python objects shuttled through worker pickles.
:class:`~repro.datasets.records.UserRecord` lists remain the builder's
and the sanitizer's per-household unit and the input format for
hand-assembled datasets, which convert once with
:meth:`UserColumns.from_records`.

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
  measured NaN, and object → rows → object reconstruction is
  value-identical (the equivalence suite in
  ``tests/datasets/test_columns.py`` locks this).
* **Grouped rows.** All rows of a user are contiguous and in
  observation order (ascending ``start_day``), mirroring both the
  builder's append order and the CSV layout. :class:`UserColumns`
  validates this on first per-user access.
* **Batched conversion.** :func:`records_to_rows` fills each field
  with one assignment from a list of its values; records are rebuilt
  from one ``tolist()`` per field over a batch of users
  (:meth:`UserColumns.iter_records` streams the batches, so memory is
  bounded by the batch size). The per-row reference the kernels are
  held to lives in ``tests/datasets/per_row_columns.py``.
* **No conversion back.** The records :meth:`UserColumns.to_records`
  returns carry the columns they were read from, and
  :meth:`UserColumns.from_records` returns those columns unchanged. A
  copy, a slice or a pickle of the records is a plain tuple and
  converts as usual.

Strings are fixed-width UTF-8 bytes (``S``); widths are generous for
every generator-produced value and conversion raises
:class:`~repro.exceptions.DatasetError` rather than silently truncating
third-party data (the width is checked per value, before the batched
assignment, which would truncate silently).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.upgrades import NetworkId, ServicePeriod
from ..exceptions import DatasetError
from .records import PeriodObservation, UserRecord

__all__ = [
    "COLUMNS_FORMAT_VERSION",
    "PERIOD_FIELDS",
    "ROW_DTYPE",
    "USER_FIELDS",
    "UserColumns",
    "records_to_rows",
    "rows_to_records",
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


#: Field groups of the batched kernels, in :data:`ROW_DTYPE` order.
_USER_STRINGS = (
    "user_id", "source", "country", "region", "development", "vantage",
    "technology",
)
_USER_OPTIONALS = (
    "price_of_access_usd", "upgrade_cost_usd_per_mbps", "plan_data_cap_gb",
    "web_latency_ms", "ndt_2014_latency_ms",
)
_NETWORK_STRINGS = ("isp", "prefix", "city")
_PERIOD_FLOATS = (
    "start_day", "end_day", "capacity_mbps", "mean_mbps", "peak_mbps",
    "mean_no_bt_mbps", "peak_no_bt_mbps",
)
_OBSERVATION_VALUES = (
    "latency_ms", "loss_fraction", "capacity_up_mbps", "n_ndt_tests",
    "n_usage_samples",
)
_OBSERVATION_OPTIONALS = ("hourly_mean_mbps", "mean_up_mbps", "peak_up_mbps")
_NAN_HOURLY = (np.nan,) * 24

#: Users per :func:`_record_from_rows` call in
#: :meth:`UserColumns.iter_records`: the streaming memory bound.
_RECORD_BATCH_USERS = 256


def records_to_rows(users: Sequence[UserRecord]) -> np.ndarray:
    """Flatten records into a structured array, one row per period.

    The inverse of :func:`rows_to_records`: every field (including the
    ``None``-ness of optional fields and NaNs inside hourly profiles)
    round-trips exactly. Each field is filled by one assignment from a
    list of its values; user-level values repeat over the user's rows.
    """
    counts = [len(u.observations) for u in users]
    rows = np.zeros(sum(counts), dtype=ROW_DTYPE)
    if not rows.size:
        return rows

    def per_user(field: str, values: list) -> None:
        rows[field] = np.repeat(
            np.asarray(values, dtype=ROW_DTYPE[field]), counts
        )

    for field in _USER_STRINGS:
        per_user(field, [_encode_str(getattr(u, field), field) for u in users])
    per_user("bt_user", [u.bt_user for u in users])
    per_user("gdp_per_capita_usd", [u.gdp_per_capita_usd for u in users])
    for field in _USER_OPTIONALS:
        values = [getattr(u, field) for u in users]
        per_user(field, [np.nan if v is None else v for v in values])
        per_user(OPTIONAL_FLAGS[field], [v is not None for v in values])

    observations = [obs for u in users for obs in u.observations]
    periods = [obs.period for obs in observations]
    networks = [p.network for p in periods]
    for field in _NETWORK_STRINGS:
        rows[field] = [_encode_str(getattr(n, field), field) for n in networks]
    for field in _PERIOD_FLOATS:
        rows[field] = [getattr(p, field) for p in periods]
    for field in _OBSERVATION_VALUES:
        rows[field] = [getattr(obs, field) for obs in observations]
    for field in _OBSERVATION_OPTIONALS:
        values = [getattr(obs, field) for obs in observations]
        absent = _NAN_HOURLY if field == "hourly_mean_mbps" else np.nan
        rows[field] = [absent if v is None else v for v in values]
        rows[OPTIONAL_FLAGS[field]] = [v is not None for v in values]
    return rows


def _decoded(rows: np.ndarray, field: str) -> list[str]:
    return [value.decode("utf-8") for value in rows[field].tolist()]


def _optional(rows: np.ndarray, field: str) -> list:
    return [
        value if present else None
        for value, present in zip(
            rows[field].tolist(), rows[OPTIONAL_FLAGS[field]].tolist()
        )
    ]


def _record_from_rows(block: np.ndarray, counts: np.ndarray) -> list[UserRecord]:
    """Rebuild the records of a batch of users from their contiguous row
    block (``counts`` rows per user, in order).

    Every field is read with one ``tolist()`` over the block; user-level
    fields come from each user's first row.
    """
    firsts = block[np.cumsum(counts) - counts]
    user_ids = _decoded(firsts, "user_id")
    isp, prefix, city = (_decoded(block, f) for f in _NETWORK_STRINGS)
    start_day, end_day, capacity, mean, peak, mean_no_bt, peak_no_bt = (
        block[f].tolist() for f in _PERIOD_FLOATS
    )
    latency, loss, capacity_up, n_ndt, n_samples = (
        block[f].tolist() for f in _OBSERVATION_VALUES
    )
    hourly = [
        None if values is None else tuple(values)
        for values in _optional(block, "hourly_mean_mbps")
    ]
    mean_up = _optional(block, "mean_up_mbps")
    peak_up = _optional(block, "peak_up_mbps")
    source, country, region, development, vantage, technology = (
        _decoded(firsts, f) for f in _USER_STRINGS[1:]
    )
    price, upgrade_cost, data_cap, web_latency, ndt_2014_latency = (
        _optional(firsts, f) for f in _USER_OPTIONALS
    )
    bt_user = firsts["bt_user"].tolist()
    gdp = firsts["gdp_per_capita_usd"].tolist()

    records = []
    stop = 0
    for i, count in enumerate(counts.tolist()):
        start, stop = stop, stop + count
        user_id = user_ids[i]
        observations = tuple(
            PeriodObservation(
                period=ServicePeriod(
                    user_id=user_id,
                    network=NetworkId(isp=isp[r], prefix=prefix[r], city=city[r]),
                    start_day=start_day[r],
                    end_day=end_day[r],
                    capacity_mbps=capacity[r],
                    mean_mbps=mean[r],
                    peak_mbps=peak[r],
                    mean_no_bt_mbps=mean_no_bt[r],
                    peak_no_bt_mbps=peak_no_bt[r],
                ),
                latency_ms=latency[r],
                loss_fraction=loss[r],
                capacity_up_mbps=capacity_up[r],
                n_ndt_tests=n_ndt[r],
                n_usage_samples=n_samples[r],
                hourly_mean_mbps=hourly[r],
                mean_up_mbps=mean_up[r],
                peak_up_mbps=peak_up[r],
            )
            for r in range(start, stop)
        )
        records.append(
            UserRecord(
                user_id=user_id,
                source=source[i],
                country=country[i],
                region=region[i],
                development=development[i],
                vantage=vantage[i],
                technology=technology[i],
                bt_user=bt_user[i],
                observations=observations,
                price_of_access_usd=price[i],
                upgrade_cost_usd_per_mbps=upgrade_cost[i],
                gdp_per_capita_usd=gdp[i],
                plan_data_cap_gb=data_cap[i],
                web_latency_ms=web_latency[i],
                ndt_2014_latency_ms=ndt_2014_latency[i],
            )
        )
    return records


def rows_to_records(rows: np.ndarray) -> list[UserRecord]:
    """Materialize records from a structured array (inverse of
    :func:`records_to_rows`)."""
    return list(UserColumns(rows).iter_records())


class _ColumnRecords(tuple):
    """Every record of a :class:`UserColumns`, in row order, remembering
    the columns they were read from so that
    :meth:`UserColumns.from_records` hands those back instead of
    converting again. Pickles as a plain tuple: the columns stay
    behind."""

    def __new__(cls, columns: "UserColumns") -> "_ColumnRecords":
        records = super().__new__(cls, columns.iter_records())
        records.columns = columns
        return records

    def __reduce__(self):
        return (tuple, (tuple(self),))


class UserColumns:
    """A dataset of user records held as one structured array.

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
    def from_records(cls, users: Sequence[UserRecord]) -> "UserColumns":
        """Columns holding ``users``; records read by :meth:`to_records`
        return the columns they came from, unconverted."""
        if isinstance(users, _ColumnRecords):
            return users.columns
        return cls(records_to_rows(users))

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
        """Per-user current-period demand, as :meth:`UserRecord.demand`."""
        if metric not in ("peak", "mean"):
            raise DatasetError(f"unknown demand metric {metric!r}")
        field = f"{metric}_mbps" if include_bt else f"{metric}_no_bt_mbps"
        return self.current(field)

    @property
    def peak_utilization(self) -> np.ndarray:
        """Per-user peak utilization, clipped to 1, as
        :meth:`UserRecord.peak_utilization` (``fmin``: a NaN peak clips
        to 1, like the scalar ``min``)."""
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

    # -- object views -----------------------------------------------------

    def iter_records(self) -> Iterator[UserRecord]:
        """Stream the records in row order, converting
        ``_RECORD_BATCH_USERS`` users at a time (memory bounded by the
        batch)."""
        starts, counts = self._index()
        for first in range(0, starts.size, _RECORD_BATCH_USERS):
            batch = counts[first : first + _RECORD_BATCH_USERS]
            start = int(starts[first])
            yield from _record_from_rows(
                self._rows[start : start + int(batch.sum())], batch
            )

    def to_records(self) -> tuple[UserRecord, ...]:
        """Every record, as a tuple that remembers these columns (see
        :meth:`from_records`)."""
        return _ColumnRecords(self)
