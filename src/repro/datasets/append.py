"""Incremental world ingest: fold new households into a cached world.

A cold :func:`~repro.datasets.builder.build_world` pays for every
household in the configuration; a measurement panel that grows by a few
hundred vantage points per ingest batch should not. Because every
household owns an independent random stream derived from
``SeedSequence([seed, source_stream, country_index, user_index])``, the
households of a *larger* configuration are a strict superset of the
smaller one's — existing users' draws never depend on how many users
come after them. :func:`append_world` exploits this: it loads the base
world from the :class:`~repro.datasets.cache.WorldCache`, simulates only
the household index ranges the delta adds (through the builder's own
chunk machinery, so the new rows are jobs-invariant and byte-identical
to a cold build's), splices them into each country's block, merges the
sanitization accounting via its additive form, and publishes the
extended world as a normal cache entry.

The result is **byte-identical** to ``build_world(extended_config)`` in
every persisted artifact except ``trace.jsonl``: a cold build's ledger
records per-chunk spans whose boundaries depend on the full population,
which a base + delta replay cannot reproduce, so appended entries carry
no trace (the cache already tolerates its absence).

One wrinkle is the country allocation.
:func:`~repro.datasets.builder._allocate_counts` is a largest-remainder
apportionment, which is not monotone in the total (the Alabama paradox):
growing the population can *shrink* one country's share. When that
happens the delta is not a superset and :func:`append_world` falls back
to a full build of the extended configuration — correctness first, the
shortcut only when it is exact.

Append operations themselves are recorded as content-addressed delta
records in a :class:`DeltaLog` beside the base entry, so a restarted
service replays the chain deterministically and lands on the same
extended configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.executor import resolve_jobs, run_sharded
from ..exceptions import DatasetError
from ..obs.ledger import RunLedger
from .builder import (
    _DASU_STREAM,
    _DEFAULT_CHUNK_SIZE,
    _FCC_STREAM,
    _allocate_counts,
    _BuildContext,
    _ChunkSpec,
    _worker_chunk,
    _worker_init,
)
from .cache import WorldCache, build_or_load_world, cache_key, payload_key
from .columns import UserColumns
from .sanitize import SanitizationReport, sanitize_columns
from .world import DasuDataset, FccDataset, World, WorldConfig

__all__ = ["AppendDelta", "AppendResult", "DeltaLog", "append_world"]

#: Bump when the delta-record schema changes (invalidates stored logs).
APPEND_FORMAT_VERSION = 1

_DELTA_DIR_PREFIX = ".deltas-"


@dataclass(frozen=True)
class AppendDelta:
    """One ingest batch: additional households per data source.

    Semantically this is a new measurement period folding new vantage
    points into the panel. Extending the *time* axis is deliberately not
    expressible: entry/exit years are drawn inside each household's
    stream, so changing ``years`` perturbs every existing household and
    can never be a pure append.
    """

    n_dasu_users: int = 0
    n_fcc_users: int = 0

    def __post_init__(self) -> None:
        for name in ("n_dasu_users", "n_fcc_users"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DatasetError(f"append delta {name} must be an int")
            if value < 0:
                raise DatasetError(
                    f"append delta {name} must be non-negative, got {value}"
                )

    @property
    def is_empty(self) -> bool:
        return self.n_dasu_users == 0 and self.n_fcc_users == 0

    def payload(self) -> dict:
        return {
            "n_dasu_users": self.n_dasu_users,
            "n_fcc_users": self.n_fcc_users,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "AppendDelta":
        """The delta a spool file or log record holds, validated as is:
        a non-object payload or an unknown key raises
        :class:`DatasetError`, and so does any value the constructor
        rejects (nothing is coerced to an int)."""
        if not isinstance(payload, dict):
            raise DatasetError(
                f"an append delta must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"n_dasu_users", "n_fcc_users"})
        if unknown:
            raise DatasetError(f"unknown append delta keys: {unknown}")
        return cls(**payload)

    def apply(self, config: WorldConfig) -> WorldConfig:
        """The extended configuration this delta produces from ``config``."""
        return dataclasses.replace(
            config,
            n_dasu_users=config.n_dasu_users + self.n_dasu_users,
            n_fcc_users=config.n_fcc_users + self.n_fcc_users,
        )


@dataclass(frozen=True)
class AppendResult:
    """What :func:`append_world` did and produced."""

    world: World
    config: WorldConfig
    #: The extended entry already existed; nothing was simulated.
    from_cache: bool = False
    #: The delta was not a pure superset (allocation shrank a country)
    #: and the extended world came from a full build instead.
    rebuilt: bool = False


class DeltaLog:
    """Content-addressed append records beside a base cache entry.

    The log for a chain rooted at ``base_config`` lives in
    ``<cache root>/.deltas-<base key>/`` — a hidden name that can never
    collide with an entry (keys are 64 hex characters) nor be mistaken
    for staging residue. Each record is one JSON file named by the hash
    of ``(base key, parent key, delta payload)``, linking parent entry
    to extended entry, and is published with the same temp-file +
    ``os.replace`` discipline as every other artifact: a reader sees a
    complete record or none.

    Records form a chain followed from the base key. Concurrent appends
    of *different* deltas onto the same parent fork the chain; both
    extended worlds exist in the cache (they have distinct keys), but
    :meth:`replay` deterministically follows the lexicographically
    smallest record at each fork, so every process that replays the log
    lands on the same tip. Re-recording an identical append is a no-op
    by construction — same content, same filename.
    """

    def __init__(
        self, base_config: WorldConfig, cache: WorldCache | None = None
    ) -> None:
        self.cache = cache if cache is not None else WorldCache()
        self.base_config = base_config
        self.base_key = cache_key(base_config)
        self.root = self.cache.root / f"{_DELTA_DIR_PREFIX}{self.base_key}"

    @staticmethod
    def record_key(base_key: str, parent_key: str, delta: AppendDelta) -> str:
        return payload_key(
            {
                "__append_format__": APPEND_FORMAT_VERSION,
                "base": base_key,
                "parent": parent_key,
                "delta": delta.payload(),
            }
        )

    def record(self, parent_config: WorldConfig, delta: AppendDelta) -> Path:
        """Persist one append atomically; returns the record path."""
        parent_key = cache_key(parent_config)
        extended_key = cache_key(delta.apply(parent_config))
        key = self.record_key(self.base_key, parent_key, delta)
        payload = {
            "append_format": APPEND_FORMAT_VERSION,
            "base_key": self.base_key,
            "parent_key": parent_key,
            "extended_key": extended_key,
            "delta": delta.payload(),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.root / f"{key}.json"
        fd, tmp = tempfile.mkstemp(
            prefix=".record-", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return target

    def _records(self) -> list[dict]:
        """Every readable, current-format record (unreadable ones skip)."""
        try:
            paths = sorted(self.root.glob("*.json"))
        except OSError:
            return []
        records = []
        for path in paths:
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            if payload.get("append_format") != APPEND_FORMAT_VERSION:
                continue
            if payload.get("base_key") != self.base_key:
                continue
            records.append(payload)
        return records

    def replay(self) -> list[AppendDelta]:
        """The chain of deltas from the base, in application order.

        Follows ``parent_key`` links starting at the base key; at a fork
        (concurrent appends of different deltas onto one parent) the
        record with the smallest content key wins, deterministically.
        Each step's extended key is derived from the parent's config and
        the delta, never read from the record, so a record whose
        ``extended_key`` is missing or wrong cannot stop or misroute the
        chain.
        """
        by_parent: dict[str, list[tuple[str, AppendDelta]]] = {}
        for record in self._records():
            try:
                delta = AppendDelta.from_payload(record.get("delta", {}))
            except DatasetError:
                continue  # an invalid delta skips like a corrupt record
            parent = str(record.get("parent_key"))
            key = self.record_key(self.base_key, parent, delta)
            by_parent.setdefault(parent, []).append((key, delta))
        chain: list[AppendDelta] = []
        config = self.base_config
        cursor = self.base_key
        seen = {cursor}
        while cursor in by_parent:
            _, delta = min(by_parent[cursor], key=lambda item: item[0])
            chain.append(delta)
            config = delta.apply(config)
            cursor = cache_key(config)
            if cursor in seen:  # an empty delta leaves the key unchanged
                break
            seen.add(cursor)
        return chain

    def tip_config(self) -> WorldConfig:
        """The extended configuration after replaying the whole chain."""
        config = self.base_config
        for delta in self.replay():
            config = delta.apply(config)
        return config


def _dasu_counts(
    context: _BuildContext, n_dasu_users: int
) -> np.ndarray:
    weights = np.array(
        [p.dasu_user_weight for p in context.profiles], dtype=float
    )
    return _allocate_counts(weights, n_dasu_users)


def _delta_chunks(
    context: _BuildContext,
    base_config: WorldConfig,
    extended: WorldConfig,
    chunk_size: int,
) -> list[_ChunkSpec] | None:
    """Chunk specs covering exactly the added household index ranges.

    Returns ``None`` when the extended allocation is not a superset of
    the base's (largest-remainder apportionment is not monotone), in
    which case the caller must rebuild from scratch. Chunk boundaries
    differ from a cold build's — harmless, the build is invariant to
    chunking because every household owns its own seed stream.
    """
    old_counts = _dasu_counts(context, base_config.n_dasu_users)
    new_counts = _dasu_counts(context, extended.n_dasu_users)
    if np.any(new_counts < old_counts):
        return None
    specs: list[_ChunkSpec] = []
    for country_index, profile in enumerate(context.profiles):
        old, new = int(old_counts[country_index]), int(new_counts[country_index])
        for start in range(old, new, chunk_size):
            specs.append(
                _ChunkSpec(
                    source="dasu",
                    country=profile.name,
                    country_index=country_index,
                    stream=_DASU_STREAM,
                    start=start,
                    count=min(chunk_size, new - start),
                )
            )
    if extended.n_fcc_users > base_config.n_fcc_users:
        us_index = next(
            (i for i, p in enumerate(context.profiles) if p.name == "US"),
            None,
        )
        if us_index is None:
            raise DatasetError("the FCC panel requires a US market")
        for start in range(
            base_config.n_fcc_users, extended.n_fcc_users, chunk_size
        ):
            specs.append(
                _ChunkSpec(
                    source="fcc",
                    country="US",
                    country_index=us_index,
                    stream=_FCC_STREAM,
                    start=start,
                    count=min(
                        chunk_size, extended.n_fcc_users - start
                    ),
                )
            )
    return specs


def _merge_columns(
    context: _BuildContext,
    base: World,
    new_parts: dict[tuple[str, str], UserColumns],
) -> tuple[UserColumns, UserColumns]:
    """Splice new per-country blocks into the base world's row order.

    A cold build lays dasu rows out by country in profile enumeration
    order, users ascending within a country, then all fcc rows. The
    base world (built, or loaded from its cached shard) is already in
    that order; selecting each country's block explicitly and following
    it with that country's new users keeps the order canonical for the
    extended world too.
    """
    base_dasu, base_fcc = base.dasu.columns, base.fcc.columns
    dasu_parts: list[UserColumns] = []
    for profile in context.profiles:
        name = profile.name.encode("utf-8")
        mask = base_dasu.current("country") == name
        if mask.any():
            dasu_parts.append(base_dasu.select_users(mask))
        part = new_parts.get(("dasu", profile.name))
        if part is not None and part.n_rows:
            dasu_parts.append(part)
    fcc_parts: list[UserColumns] = [base_fcc]
    part = new_parts.get(("fcc", "US"))
    if part is not None and part.n_rows:
        fcc_parts.append(part)
    return UserColumns.concat(dasu_parts), UserColumns.concat(fcc_parts)


def append_world(
    config: WorldConfig,
    delta: AppendDelta,
    *,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    use_cache: bool = True,
    log: DeltaLog | None = None,
) -> AppendResult:
    """Fold ``delta``'s new households into ``config``'s cached world.

    Simulates only the added household index ranges and publishes the
    extended world as a normal cache entry whose persisted datasets are
    byte-identical to a cold ``build_world`` of the extended
    configuration (for any ``jobs``), except that appended entries carry
    no ``trace.jsonl``. Passing a :class:`DeltaLog` additionally records
    the append so the chain replays after a restart.

    The base world is loaded from the cache, or built (and cached) on a
    miss. An empty delta returns the base world unchanged.
    """
    if config.trace_user_fraction != 0.0:
        raise DatasetError(
            "cannot append to a trace-bearing configuration; raw traces "
            "are never cached, so there is no base entry to extend"
        )
    store = cache if cache is not None else WorldCache()
    n_jobs = resolve_jobs(jobs)
    if delta.is_empty:
        world, from_cache = build_or_load_world(
            config, jobs=n_jobs, cache=store, use_cache=use_cache,
            ground_truth=False,
        )
        return AppendResult(world=world, config=config, from_cache=from_cache)
    extended = delta.apply(config)

    def _finish(world: World, **flags) -> AppendResult:
        if log is not None:
            log.record(config, delta)
        return AppendResult(world=world, config=extended, **flags)

    if use_cache:
        cached = store.load(extended)
        if cached is not None:
            return _finish(cached, from_cache=True)

    base_world, _ = build_or_load_world(
        config, jobs=n_jobs, cache=store, use_cache=use_cache,
        ground_truth=False,
    )
    context = _BuildContext(extended, ground_truth=False)
    specs = _delta_chunks(context, config, extended, _DEFAULT_CHUNK_SIZE)
    if specs is None:
        # Alabama paradox: some country's allocation shrank, so the
        # extension is not a pure append. Build the extended world
        # from scratch — the result contract holds either way.
        world, from_cache = build_or_load_world(
            extended, jobs=n_jobs, cache=store, use_cache=use_cache,
            ground_truth=False,
        )
        return _finish(world, from_cache=from_cache, rebuilt=True)

    chunk_results = run_sharded(
        _worker_chunk,
        specs,
        jobs=n_jobs,
        initializer=_worker_init,
        initargs=(extended, False),
        ledger=RunLedger(),
    )

    delta_report = SanitizationReport() if extended.sanitize else None
    grouped: dict[tuple[str, str], list[np.ndarray]] = {}
    for spec, ((rows, _latents, _traces), chunk_report) in zip(
        specs, chunk_results
    ):
        if delta_report is not None and chunk_report is not None:
            delta_report.merge(chunk_report)
        grouped.setdefault((spec.source, spec.country), []).append(rows)

    new_parts: dict[tuple[str, str], UserColumns] = {}
    for group, parts in grouped.items():
        columns = UserColumns.concat(parts)
        if delta_report is not None:
            # Record-level rules are per-user independent, so cleaning
            # each new block separately and adding the counters equals
            # the cold build's single pass over the full dataset.
            columns, delta_report = sanitize_columns(
                columns,
                dasu_interval_s=extended.sample_interval_s,
                report=delta_report,
            )
        new_parts[group] = columns

    report = None
    if extended.sanitize:
        report = SanitizationReport()
        if base_world.sanitization is not None:
            report.merge(base_world.sanitization)
        report.merge(delta_report)

    dasu_columns, fcc_columns = _merge_columns(context, base_world, new_parts)
    world = World.with_survey(
        context.survey,
        config=extended,
        dasu=DasuDataset(columns=dasu_columns),
        fcc=FccDataset(columns=fcc_columns),
        ground_truth={},
        traces={},
        sanitization=report,
        ledger=None,
    )
    if use_cache:
        try:
            store.store(world)
        except OSError:
            pass
    return _finish(world)
