"""The warm report service: resident worlds, fragment-level refresh.

A :class:`ReportService` owns one append chain rooted at a base
:class:`~repro.datasets.world.WorldConfig`. Its :meth:`~ReportService.refresh`
replays the chain's :class:`~repro.datasets.append.DeltaLog` to the
current tip configuration and runs the fragment-level report DAG
(:func:`~repro.dag.pipelines.report_spec`) against a persistent
:class:`~repro.dag.store.DagStore`, so only fragments whose input
content digests changed re-execute — appending households recomputes the
Dasu-driven fragments while survey-only ones reload, and the assembled
``report.txt`` stays byte-identical to a cold full rebuild. ``/iqb.json``
is the barometer fragment's payload, and a grid's sweep (``sweep_spec``)
runs against the same store.

Each refresh publishes an immutable :class:`Snapshot` swapped under a
lock: HTTP handlers read whole snapshots, never partially updated state,
so a refresh racing a request can never serve a torn report. The
snapshot's ETag is the SHA-256 of its provenance manifest — it changes
exactly when the served configuration (base + append chain) or the code
version does, which is exactly when the report bytes may change.

Ingest arrives through a *spool directory*: drop ``<name>.json`` files
holding an append-delta payload (``{"n_dasu_users": N, "n_fcc_users":
M}``) to fold new households into the resident world, or
``<name>.grid.json`` files holding a scenario grid to re-run the
verdict sweep. :meth:`~ReportService.process_spool` consumes them in
sorted order; files that fail to parse or apply are renamed to
``*.rejected`` (never silently dropped, never retried in a loop).
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from .. import dag
from ..datasets.append import AppendDelta, DeltaLog, append_world
from ..datasets.cache import WorldCache, cache_key
from ..datasets.world import WorldConfig
from ..exceptions import ReproError
from ..obs.ledger import RunLedger
from ..obs.manifest import run_manifest
from ..sweep import SWEEP_EXPERIMENTS, ScenarioGrid

__all__ = ["ReportService", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One consistent, immutable view of everything the service serves.

    Handlers grab the whole snapshot once per request; the service only
    ever replaces the reference, so a reader sees either the old state
    or the new one, never a mix of both.
    """

    #: The tip configuration the snapshot was rendered from.
    config: WorldConfig
    #: Cache key of the tip configuration.
    config_hash: str
    #: SHA-256 of ``manifest_text`` — the HTTP ETag.
    etag: str
    report_text: str
    manifest_text: str
    trace_text: str
    #: ``/iqb.json``: the payload of the ``fragment/iqb`` stage.
    iqb_json: str
    #: The ``sweep-report`` stage's files; ``None`` without a grid.
    sweep_json: str | None
    sweep_report: str | None
    #: Stage names the refresh executed / reloaded from the stage store.
    executed: tuple[str, ...]
    cached: tuple[str, ...]


class ReportService:
    """Keep one world chain resident and its report warm.

    The service is deliberately storage-shaped rather than
    request-shaped: all state lives in the world cache, the delta log,
    and the stage store, so killing the process loses nothing —
    a restarted service replays the log and reloads every unchanged
    fragment and sweep cell from disk.
    """

    def __init__(
        self,
        base_config: WorldConfig,
        *,
        state_dir: str | Path,
        cache: WorldCache | None = None,
        jobs: int = 1,
        use_cache: bool = True,
        grid=None,
    ) -> None:
        self.base_config = base_config
        self.cache = cache if cache is not None else WorldCache()
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs
        self.use_cache = use_cache
        self.grid = grid
        self.log = DeltaLog(base_config, cache=self.cache)
        self._lock = threading.Lock()
        self._snapshot: Snapshot | None = None
        self.refreshes = 0
        self.appends = 0
        self.rejected = 0

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> Snapshot | None:
        """The current snapshot, or ``None`` before the first refresh."""
        with self._lock:
            return self._snapshot

    def status_payload(self) -> dict:
        """Operational state for ``/status.json`` (not byte-stable)."""
        snapshot = self.snapshot()
        payload = {
            "base_config_hash": self.log.base_key,
            "refreshes": self.refreshes,
            "appends": self.appends,
            "rejected": self.rejected,
            "has_sweep": self.grid is not None,
            "ready": snapshot is not None,
        }
        if snapshot is not None:
            payload.update(
                {
                    "config_hash": snapshot.config_hash,
                    "etag": snapshot.etag,
                    "n_dasu_users": snapshot.config.n_dasu_users,
                    "n_fcc_users": snapshot.config.n_fcc_users,
                    "executed": list(snapshot.executed),
                    "cached": list(snapshot.cached),
                }
            )
        return payload

    # -- refreshing ------------------------------------------------------

    def refresh(self) -> Snapshot:
        """Re-render every body for the current chain tip and publish.

        Runs the fragment DAG, and the sweep DAG when a grid is set,
        against the persistent stage store: unchanged stages reload
        (they land in the snapshot's ``cached``), changed ones execute.
        The swap at the end is the only mutation readers can observe.
        """
        config = self.log.tip_config()
        store = dag.DagStore(self.state_dir / "stages")
        context = dag.RunContext(
            jobs=self.jobs,
            cache_root=str(self.cache.root),
            use_cache=self.use_cache,
        )
        ledger = RunLedger()
        result = dag.run_dag(
            dag.report_spec(config), store=store, ledger=ledger, context=context
        )
        report_text = result.artifact("paper-report").files["report.txt"]
        iqb = result.artifact("fragment/iqb")["payload"]
        iqb_json = json.dumps(iqb, indent=2, sort_keys=True) + "\n"
        executed, cached = result.executed, result.cached
        sweep_files: dict[str, str] = {}
        if self.grid is not None:
            # Cells fan out over ``jobs`` workers, as in ``run_sweep``.
            sweep = dag.run_dag(
                self._sweep_spec(self.grid, config),
                backend=dag.ProcessPoolBackend(self.jobs),
                store=store,
                context=context,
            )
            sweep_files = sweep.artifact("sweep-report").files
            executed += sweep.executed
            cached += sweep.cached
        manifest = run_manifest(
            config,
            command="serve",
            extras={
                "append_chain": [d.payload() for d in self.log.replay()],
                "base_config_hash": self.log.base_key,
                "sweep_grid": (
                    self.grid.to_payload() if self.grid is not None else None
                ),
            },
        )
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        snapshot = Snapshot(
            config=config,
            config_hash=cache_key(config),
            etag=hashlib.sha256(manifest_text.encode("utf-8")).hexdigest(),
            report_text=report_text,
            manifest_text=manifest_text,
            trace_text=ledger.to_jsonl(),
            iqb_json=iqb_json,
            sweep_json=sweep_files.get("sweep.json"),
            sweep_report=sweep_files.get("report.txt"),
            executed=executed,
            cached=cached,
        )
        with self._lock:
            self._snapshot = snapshot
            self.refreshes += 1
        return snapshot

    @staticmethod
    def _sweep_spec(grid: ScenarioGrid, config: WorldConfig):
        """Every sweep experiment, at the grid's seeds or the tip's."""
        seeds = grid.seeds if grid.seeds else (config.seed,)
        return dag.sweep_spec(config, grid, seeds, SWEEP_EXPERIMENTS)

    # -- ingest ----------------------------------------------------------

    def append(self, delta: AppendDelta) -> None:
        """Fold one ingest batch into the resident chain (no refresh)."""
        parent = self.log.tip_config()
        append_world(
            parent,
            delta,
            jobs=self.jobs,
            cache=self.cache,
            use_cache=self.use_cache,
            log=self.log,
        )
        self.appends += 1

    def process_spool(self, spool_dir: str | Path) -> int:
        """Consume every spool file once; returns how many applied.

        ``*.grid.json`` replaces the scenario grid once its cells expand
        against the tip; every other
        ``*.json`` is an append-delta payload. Files are processed in
        sorted order so two appends spooled together apply
        deterministically. A file that fails to parse or apply is
        renamed to ``<name>.rejected`` with the reason on stderr —
        visible, out of the way, and never retried every poll.
        """
        spool = Path(spool_dir)
        try:
            paths = sorted(p for p in spool.glob("*.json") if p.is_file())
        except OSError:
            return 0
        applied = 0
        for path in paths:
            try:
                payload = json.loads(path.read_text())
                if path.name.endswith(".grid.json"):
                    grid = ScenarioGrid.from_payload(payload)
                    # Expanding the cells checks every override value,
                    # so a bad grid cannot fail every later refresh.
                    self._sweep_spec(grid, self.log.tip_config())
                    self.grid = grid
                else:
                    self.append(AppendDelta.from_payload(payload))
            except (OSError, ValueError, TypeError, ReproError) as exc:
                self.rejected += 1
                print(
                    f"serve: rejected spool file {path.name}: {exc}",
                    file=sys.stderr,
                )
                try:
                    path.rename(path.with_name(path.name + ".rejected"))
                except OSError:
                    pass
                continue
            applied += 1
            try:
                path.unlink()
            except OSError:
                pass
        return applied
