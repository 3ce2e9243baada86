"""On-disk world cache keyed by configuration and code version.

Building a paper-scale world is by far the most expensive step of the
pipeline, and every benchmark session and CLI invocation used to repeat
it from scratch. Because a :class:`WorldConfig` fully determines a world
(the builder is bit-reproducible, see :mod:`repro.datasets.builder`),
the persisted datasets can be reused safely: the cache key is a SHA-256
over every configuration field **plus the package version**, so any
change to either the knobs or the generator code invalidates the entry.

Each entry is a directory ``<root>/<key>/`` holding the columnar
``users.npy`` shard, its ``users.npy.json`` manifest, ``survey.csv`` and
``config.json`` (plus ``sanitization.json`` and the ``trace.jsonl``
build ledger), written atomically via a temp directory + rename. Hits
load through the memory-mapped shard; the manifest ties it to its
schema version, row count and byte size. A missing, truncated, foreign
or mismatched shard — like any other unreadable file — is a miss, and
the caller falls back to a clean build, never crashes.

``users.csv`` is an export, not part of the entry:
:meth:`WorldCache.fetch_into` renders it from the entry's columns, so a
cache hit writes exactly the files a fresh ``build --out`` writes.

Cached worlds carry **measured rows only**: latent ground-truth users
and raw traces are not persisted, so :func:`WorldCache.load` returns a
:class:`World` with empty ``ground_truth``/``traces`` mappings, and
configurations with ``trace_user_fraction > 0`` bypass the cache
entirely. No analysis reads ground truth, so cached worlds are
indistinguishable for every figure, table, and report.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .._version import __version__
from ..core.staging import (
    clear_heartbeat,
    sweep_stale_staging,
    touch_heartbeat,
)
from ..exceptions import DatasetError, ReproError
from ..market.countries import build_profiles
from ..market.survey import PlanSurvey
from ..obs.ledger import RunLedger
from .builder import build_world
from .columns import COLUMNS_FORMAT_VERSION, UserColumns
from .io import (
    config_payload,
    read_config_json,
    read_survey_csv,
    read_users_npy,
    write_config_json,
    write_survey_csv,
    write_users_csv,
    write_users_npy,
)
from .sanitize import SanitizationReport
from .world import DasuDataset, FccDataset, World, WorldConfig

__all__ = [
    "WorldCache",
    "build_or_load_world",
    "cache_key",
    "default_cache_root",
    "payload_key",
]

#: Hashed into every cache key, and so into run manifests and served
#: ETags. Bump it only for a layout change an old entry could pass
#: validation under; entries that fail validation are misses anyway.
CACHE_FORMAT_VERSION = 1

#: The columnar users shard, loadable as an mmap, and the manifest that
#: ties it to its schema version, row count and byte size.
_COLUMNS_FILE = "users.npy"
_COLUMNS_META = "users.npy.json"
#: Entry files a ``build --out`` directory carries byte for byte.
_ENTRY_FILES = (_COLUMNS_FILE, "survey.csv", "config.json")
#: Present only in entries built with ``config.sanitize`` enabled.
_REPORT_FILE = "sanitization.json"
#: The build-stage run ledger (see :mod:`repro.obs`), serialized as the
#: same JSONL stream ``build --trace`` writes. Entries stored since the
#: ledger existed always carry it (the package-version component of the
#: cache key invalidated older entries); its absence is tolerated for
#: hand-assembled worlds stored without one.
_TRACE_FILE = "trace.jsonl"
#: Staging directories are hidden and can never collide with an entry
#: (cache keys are 64 hex characters); ones untouched longer than this
#: belong to killed stores and are swept.
_STAGING_PREFIX = ".staging-"
_STAGING_MAX_AGE_S = 3600.0


def payload_key(payload: dict) -> str:
    """SHA-256 over the canonical JSON rendering of ``payload``.

    The single content-addressing primitive of the package: world cache
    keys and :mod:`repro.dag` stage keys both hash through here, so
    every key shares one canonicalization (sorted keys, JSON-native
    values only — callers must canonicalize first, see
    :func:`~repro.datasets.io.config_payload`).
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(config: WorldConfig) -> str:
    """Content hash of every world knob plus the generator version.

    Built over :func:`~repro.datasets.io.config_payload`, which omits
    ``faults``/``sanitize`` when they sit at their defaults — so keys of
    fault-free configurations are unchanged from before fault injection
    existed, and warm caches survive the upgrade.
    """
    payload = config_payload(config)
    payload["__package_version__"] = __version__
    payload["__cache_format__"] = CACHE_FORMAT_VERSION
    # No default= fallback: config_payload canonicalizes to JSON-native
    # types and raises on anything else, so a key can never be built
    # from an unstable str() rendering.
    return payload_key(payload)


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/worlds``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "worlds"


def _world_from_columns(
    config: WorldConfig,
    columns: UserColumns,
    survey: PlanSurvey,
    sanitization: SanitizationReport | None = None,
    ledger: RunLedger | None = None,
) -> World:
    """Reassemble a :class:`World` (no ground truth, no traces) from a
    columnar shard.

    Rows keep the builder's order (dasu first), so the datasets are
    byte-identical to the world that was stored.
    """
    profiles = build_profiles(
        np.random.default_rng([config.seed, 1]),
        include_synthetic=config.include_synthetic_countries,
    )
    return World(
        config=config,
        profiles={p.name: p for p in profiles},
        survey=survey,
        dasu=DasuDataset(columns=columns.select_users(columns.source_mask("dasu"))),
        fcc=FccDataset(columns=columns.select_users(columns.source_mask("fcc"))),
        ground_truth={},
        traces={},
        sanitization=sanitization,
        ledger=ledger,
    )


def _read_shard(entry: Path) -> UserColumns:
    """The entry's memory-mapped ``users.npy``, checked against its
    manifest (schema version, byte size, row count).

    Raises :class:`DatasetError` (or ``OSError``/``ValueError`` for an
    unreadable manifest) on any disagreement, so a truncated, foreign or
    swapped shard never serves rows. Entries stored beside a
    ``users.csv`` carry no ``users_npy_bytes`` and fail here too; the
    next store replaces them.
    """
    shard = entry / _COLUMNS_FILE
    meta = json.loads((entry / _COLUMNS_META).read_text())
    if (
        not isinstance(meta, dict)
        or meta.get("columns_format") != COLUMNS_FORMAT_VERSION
        or meta.get("users_npy_bytes") != shard.stat().st_size
    ):
        raise DatasetError(f"{shard}: does not match {_COLUMNS_META}")
    columns = read_users_npy(shard)
    if columns.n_rows != meta.get("rows"):
        raise DatasetError(
            f"{shard}: row count does not match {_COLUMNS_META}"
        )
    return columns


class WorldCache:
    """A directory of persisted worlds, one entry per cache key."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def entry_dir(self, config: WorldConfig) -> Path:
        return self.root / cache_key(config)

    def _cacheable(self, config: WorldConfig) -> bool:
        # Raw traces are not persisted; trace-bearing worlds must always
        # be rebuilt so their traces exist.
        return config.trace_user_fraction == 0.0

    def load(self, config: WorldConfig) -> World | None:
        """The cached world for ``config``, or ``None`` on miss.

        Any unreadable, truncated, or mismatched entry is a miss: the
        caller falls back to a clean build.
        """
        if not self._cacheable(config):
            return None
        entry = self.entry_dir(config)
        try:
            stored = read_config_json(entry / "config.json")
            if stored != config:
                return None
            columns = _read_shard(entry)
            survey = read_survey_csv(entry / "survey.csv")
            report = None
            if config.sanitize:
                report = SanitizationReport.from_payload(
                    json.loads((entry / _REPORT_FILE).read_text())
                )
            ledger = None
            trace_path = entry / _TRACE_FILE
            if trace_path.exists():
                ledger = RunLedger.from_jsonl(trace_path.read_text())
        except (ReproError, OSError, ValueError, KeyError, TypeError):
            # Unreadable, truncated, or schema-mismatched entry: a miss.
            return None
        return _world_from_columns(config, columns, survey, report, ledger)

    def fetch_into(
        self, config: WorldConfig, out_dir: str | Path
    ) -> World | None:
        """Export a validated entry into ``out_dir``; returns its world.

        Returns ``None`` on a miss (including corruption). ``out_dir``
        receives exactly the files a fresh ``build --out`` writes, with
        the same bytes: ``users.csv`` rendered from the entry's columns,
        the rest copied. The build ledger stays behind — ``build
        --trace`` writes it from the returned world, as a miss does.
        """
        world = self.load(config)
        if world is None:
            return None
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_users_csv(world.all_columns, out / "users.csv")
        entry = self.entry_dir(config)
        names = _ENTRY_FILES + ((_REPORT_FILE,) if config.sanitize else ())
        for name in names:
            shutil.copyfile(entry / name, out / name)
        return world

    def store(self, world: World) -> Path | None:
        """Persist a world atomically; returns the entry path.

        Returns ``None`` (stores nothing) for trace-bearing worlds.

        **Atomicity under interruption.** Every file is written into a
        hidden ``.staging-*`` directory and published in one
        ``os.replace`` — the only step that makes the entry visible.
        A process killed at any earlier point leaves nothing but a
        staging directory whose name can never collide with a cache key
        (keys are 64 hex characters; staging names start with a dot), so
        a concurrent :meth:`load` observes either no entry or a complete
        one, never a partial write. Orphaned staging directories from
        killed stores are swept opportunistically once they are clearly
        abandoned. (The guarantee covers process interruption; a power
        loss may still lose buffered writes — entries are validated on
        load and any damage reads as a miss.)

        Safe under concurrent stores of the same config: the build is
        deterministic, so losing the publish race to another process is
        a benign success — if a valid entry already occupies the path,
        the staging copy is discarded and the existing entry returned.
        Only an *invalid* occupant (stale format, corruption) is
        replaced.
        """
        if not self._cacheable(world.config):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_staging()
        staging = Path(
            tempfile.mkdtemp(prefix=_STAGING_PREFIX, dir=self.root)
        )
        try:
            touch_heartbeat(staging)
            shard = staging / _COLUMNS_FILE
            n_rows = write_users_npy(world.all_columns, shard)
            (staging / _COLUMNS_META).write_text(
                json.dumps(
                    {
                        "columns_format": COLUMNS_FORMAT_VERSION,
                        "rows": n_rows,
                        "users_npy_bytes": shard.stat().st_size,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            touch_heartbeat(staging)
            write_survey_csv(world.survey, staging / "survey.csv")
            write_config_json(world.config, staging / "config.json")
            if world.sanitization is not None:
                (staging / _REPORT_FILE).write_text(
                    json.dumps(
                        world.sanitization.to_payload(),
                        indent=2,
                        sort_keys=True,
                    )
                )
            if world.ledger is not None:
                (staging / _TRACE_FILE).write_text(world.ledger.to_jsonl())
            clear_heartbeat(staging)
            entry = self.entry_dir(world.config)
            try:
                os.replace(staging, entry)
            except OSError:
                # The entry path is occupied (concurrent store, or a
                # stale/corrupt leftover). Validate before touching it.
                if self.load(world.config) is not None:
                    # Lost the race to an equivalent valid entry.
                    shutil.rmtree(staging, ignore_errors=True)
                    return entry
                shutil.rmtree(entry, ignore_errors=True)
                try:
                    os.replace(staging, entry)
                except OSError:
                    # A concurrent storer re-published between the
                    # rmtree and the replace. Deterministic builds make
                    # a valid occupant equivalent to ours; anything
                    # else is a real failure.
                    if self.load(world.config) is None:
                        raise
                    shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    def _sweep_stale_staging(self) -> None:
        """Drop abandoned ``.staging-*`` directories (killed stores).

        Delegates to :func:`repro.core.staging.sweep_stale_staging`,
        which ages a candidate by the newest mtime anywhere inside it
        (heartbeat file included) and tolerates clock steps in either
        direction — an in-flight concurrent store is never disturbed.
        """
        sweep_stale_staging(
            self.root, prefix=_STAGING_PREFIX, max_age_s=_STAGING_MAX_AGE_S
        )

    def invalidate(self, config: WorldConfig) -> bool:
        """Drop the entry for ``config``; returns whether one existed."""
        entry = self.entry_dir(config)
        if not entry.exists():
            return False
        shutil.rmtree(entry)
        return True


def build_or_load_world(
    config: WorldConfig,
    *,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    use_cache: bool = True,
    ground_truth: bool = True,
) -> tuple[World, bool]:
    """Load ``config``'s world from cache, or build and persist it.

    Returns ``(world, from_cache)``. Cache write failures are
    non-fatal — the freshly built world is returned regardless.
    ``ground_truth=False`` skips retaining latent users on a build
    (cached worlds never carry them anyway).
    """
    store = cache if cache is not None else WorldCache()
    if use_cache:
        cached = store.load(config)
        if cached is not None:
            return cached, True
    world = build_world(config, jobs=jobs, ground_truth=ground_truth)
    if use_cache:
        try:
            store.store(world)
        except OSError:
            pass
    return world, False
