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
schema version, row count and byte size, and records the SHA-256 of
``survey.csv``. A hit reads the survey's bytes and checks them against
that digest, but decodes them into a :class:`~repro.market.survey.
PlanSurvey` only when something first reads ``world.survey`` — most
analyses never do. A missing, truncated, foreign or mismatched shard or
survey — like any other unreadable file — is a miss, and the caller
falls back to a clean build, never crashes.

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
from pathlib import Path

from .._version import __version__
from ..core.staging import publish, touch_heartbeat
from ..exceptions import DatasetError, ReproError
from ..obs.ledger import RunLedger
from .builder import build_world
from .columns import COLUMNS_FORMAT_VERSION, UserColumns
from .io import (
    config_payload,
    read_config_json,
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
#: The plan survey's canonical bytes; the manifest records their SHA-256.
_SURVEY_FILE = "survey.csv"
#: Entry files a ``build --out`` directory carries byte for byte.
_ENTRY_FILES = (_COLUMNS_FILE, _SURVEY_FILE, "config.json")
#: Present only in entries built with ``config.sanitize`` enabled.
_REPORT_FILE = "sanitization.json"
#: The build-stage run ledger (see :mod:`repro.obs`), serialized as the
#: same JSONL stream ``build --trace`` writes. Entries stored since the
#: ledger existed always carry it (the package-version component of the
#: cache key invalidated older entries); its absence is tolerated for
#: hand-assembled worlds stored without one.
_TRACE_FILE = "trace.jsonl"


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
    survey_csv: bytes,
    sanitization: SanitizationReport | None = None,
    ledger: RunLedger | None = None,
) -> World:
    """Reassemble a :class:`World` (no ground truth, no traces) from a
    columnar shard and the survey's bytes.

    Rows keep the builder's order (dasu first), so the datasets are
    byte-identical to the world that was stored.
    """
    return World(
        config=config,
        survey_csv=survey_csv,
        dasu=DasuDataset(columns=columns.select_users(columns.source_mask("dasu"))),
        fcc=FccDataset(columns=columns.select_users(columns.source_mask("fcc"))),
        ground_truth={},
        traces={},
        sanitization=sanitization,
        ledger=ledger,
    )


def _read_entry(entry: Path) -> tuple[UserColumns, bytes]:
    """The entry's memory-mapped ``users.npy`` and its ``survey.csv``
    bytes, both checked against the manifest: the shard's schema
    version, byte size and row count, the survey's SHA-256.

    Raises :class:`DatasetError` (or ``OSError``/``ValueError`` for an
    unreadable manifest) on any disagreement, so a truncated, foreign or
    swapped shard never serves rows, and a damaged survey never serves
    prices. Entries stored beside a ``users.csv`` carry no
    ``users_npy_bytes``, and older ones no ``survey_sha256``; they fail
    here too, and the next store replaces them.
    """
    shard = entry / _COLUMNS_FILE
    meta = json.loads((entry / _COLUMNS_META).read_text())
    if (
        not isinstance(meta, dict)
        or meta.get("columns_format") != COLUMNS_FORMAT_VERSION
        or meta.get("users_npy_bytes") != shard.stat().st_size
    ):
        raise DatasetError(f"{shard}: does not match {_COLUMNS_META}")
    survey = entry / _SURVEY_FILE
    survey_csv = survey.read_bytes()
    if hashlib.sha256(survey_csv).hexdigest() != meta.get("survey_sha256"):
        raise DatasetError(f"{survey}: does not match {_COLUMNS_META}")
    columns = read_users_npy(shard)
    if columns.n_rows != meta.get("rows"):
        raise DatasetError(
            f"{shard}: row count does not match {_COLUMNS_META}"
        )
    return columns, survey_csv


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
            columns, survey_csv = _read_entry(entry)
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
        return _world_from_columns(config, columns, survey_csv, report, ledger)

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

        **Atomicity under interruption.** The entry is published through
        :func:`repro.core.staging.publish`: a process killed before its
        single ``os.replace`` leaves nothing but a hidden staging
        directory, so a concurrent :meth:`load` observes either no entry
        or a complete one, never a partial write. (The guarantee covers
        process interruption; a power loss may still lose buffered
        writes — entries are validated on load and any damage reads as a
        miss.) A valid occupant of the entry path wins a concurrent
        store; only an *invalid* one (stale format, corruption) is
        replaced.
        """
        if not self._cacheable(world.config):
            return None

        def write(staging: Path) -> None:
            shard = staging / _COLUMNS_FILE
            n_rows = write_users_npy(world.all_columns, shard)
            (staging / _COLUMNS_META).write_text(
                json.dumps(
                    {
                        "columns_format": COLUMNS_FORMAT_VERSION,
                        "rows": n_rows,
                        "survey_sha256": hashlib.sha256(
                            world.survey_csv
                        ).hexdigest(),
                        "users_npy_bytes": shard.stat().st_size,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            touch_heartbeat(staging)
            write_survey_csv(world.survey_csv, staging / _SURVEY_FILE)
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

        return publish(
            self.root,
            self.entry_dir(world.config),
            write,
            lambda: self.load(world.config) is not None,
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
