"""The DAG scheduler: content-addressed, resumable stage execution.

:func:`run_dag` walks a validated :class:`~repro.dag.spec.DagSpec` in
dependency waves. Each stage is content-addressed **before** it runs:

    stage key = H(kind, config, {dep name: upstream output hash},
                  package version, key format)

via :func:`repro.datasets.cache.payload_key` — the same canonical-JSON
SHA-256 the world cache hashes through. A stage whose key already has a
valid artifact in the run's :class:`~repro.dag.store.DagStore` is
*skipped*: its artifact and its original run-ledger shard are reloaded
instead of recomputed. Because stage execution is deterministic, a run
killed at any point resumes by re-invoking the same command — finished
stages reload, unfinished ones re-execute, and the final artifacts (and
the serialized trace, which replays stored shards on hits) are
byte-identical to an uninterrupted run's.

Ready stages within a wave fan out through a pluggable
:mod:`~repro.dag.backends` executor. A wave's input artifacts reach the
executing process once, through the backend's worker initializer, not
pickled into every task: the 19 fragment stages of the report all read
the same three world slices. Shard ledgers merge into the run
ledger in deterministic wave order; counters add, gauges union, and
spans serialize in canonical order, so ``trace.jsonl`` is byte-identical
for any backend, any worker count, and any resume point. Which stages
*actually executed* this invocation is scheduling state — it is reported
on the :class:`DagRunResult` (and to stderr by the CLI), never recorded
in the ledger.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .._version import __version__
from ..datasets.cache import payload_key
from ..exceptions import DagError
from ..obs.ledger import RunLedger, count, span
from .backends import ExecutorBackend, InProcessBackend
from .spec import DagSpec, StageSpec, stage_kind
from .store import DagStore, hash_artifact

__all__ = ["DagRunResult", "RunContext", "run_dag", "stage_key"]

#: Bump when the key derivation changes (invalidates stored stages).
DAG_KEY_FORMAT = 1


@dataclass(frozen=True)
class RunContext:
    """Scheduling knobs handed to every stage kind.

    Everything here is excluded from stage keys by construction: a
    stage's output bytes must not depend on worker counts or cache
    locations, only its config and inputs — the same contract the
    world cache and sweep engine already honor.
    """

    #: Intra-stage parallelism for kinds that shard internally (a world
    #: build). Wave-level parallelism across stages is the backend's
    #: job, not the context's.
    jobs: int = 1
    #: World-cache root for kinds that build worlds (``None`` — default
    #: resolution, as everywhere else).
    cache_root: str | None = None
    use_cache: bool = True
    #: Pre-built dataset directory for the ``load-data`` kind.
    data_dir: str | None = None


@dataclass(frozen=True)
class _StageTask:
    """One stage execution, picklable for the process-pool backend."""

    name: str
    fn: Callable
    config: Mapping
    #: Dependency names; the artifacts themselves are the wave's shared
    #: inputs (:func:`_share_wave_inputs`).
    inputs: tuple[str, ...]
    ctx: RunContext


#: The running wave's input artifacts, ``{stage name: artifact}``. A pool
#: worker gets them once, from its initializer; in-process they are set
#: for the length of one wave, per thread, so runs in concurrent threads
#: never see each other's inputs.
_wave = threading.local()


def _share_wave_inputs(inputs: Mapping[str, Any] | None) -> None:
    _wave.inputs = inputs


def _execute_stage(task: _StageTask) -> Any:
    """Run one stage under its ambient ledger scope.

    The ``dag/stage/<name>`` span and completion counter are recorded
    *inside* the scope, so they ride back in the stage's shard, are
    persisted with its artifact, and replay identically on a resume hit
    — the trace cannot tell a cached stage from an executed one.
    """
    inputs = {dep: _wave.inputs[dep] for dep in task.inputs}
    with span(f"dag/stage/{task.name}"):
        result = task.fn(dict(task.config), inputs, task.ctx)
    count("dag.stages.completed")
    return result


def stage_key(stage: StageSpec, upstream_hashes: Mapping[str, str]) -> str:
    """The content address of one stage's output.

    Hashes the stage kind, its canonical config, its dependencies'
    output hashes (by dependency name — renaming an edge re-keys, as it
    changes what the kind receives), and the package version, through
    the world cache's canonicalization. Scheduling knobs never enter.
    """
    payload = {
        "__dag_key_format__": DAG_KEY_FORMAT,
        "__package_version__": __version__,
        "kind": stage.kind,
        "config": dict(stage.config),
        "inputs": {dep: upstream_hashes[dep] for dep in stage.depends_on},
    }
    return payload_key(payload)


@dataclass(frozen=True)
class DagRunResult:
    """A completed DAG run: artifacts, keys, and resume accounting."""

    spec: DagSpec
    artifacts: dict[str, Any]
    keys: dict[str, str]
    output_hashes: dict[str, str]
    #: Stage names that executed this invocation, in execution order.
    executed: tuple[str, ...]
    #: Stage names reloaded from the store, in schedule order. Like the
    #: sweep's cache-hit count this is scheduling state: excluded from
    #: comparisons and never serialized into artifacts.
    cached: tuple[str, ...] = field(default=(), compare=False)

    def artifact(self, name: str) -> Any:
        try:
            return self.artifacts[name]
        except KeyError:
            raise DagError(f"run produced no stage {name!r}") from None


def run_dag(
    spec: DagSpec,
    *,
    backend: ExecutorBackend | None = None,
    store: DagStore | None = None,
    ledger: RunLedger | None = None,
    context: RunContext | None = None,
) -> DagRunResult:
    """Execute (or resume) ``spec``; returns every stage's artifact.

    ``store=None`` runs fully in memory — nothing persists and nothing
    resumes, which is how the sweep engine and the report CLI ride the
    scheduler without changing their artifacts. With a store, completed
    stages are skipped on re-invocation (key match) and artifacts
    publish atomically, so killing the process at any point never
    corrupts the run directory.
    """
    backend = backend if backend is not None else InProcessBackend()
    ctx = context if context is not None else RunContext()
    order = spec.topological_order()
    artifacts: dict[str, Any] = {}
    keys: dict[str, str] = {}
    hashes: dict[str, str] = {}
    executed: list[str] = []
    cached: list[str] = []
    pending = list(order)
    while pending:
        wave = [s for s in pending if all(d in hashes for d in s.depends_on)]
        if not wave:  # unreachable on a validated spec
            raise DagError(f"DAG {spec.name!r} stalled; remaining: "
                           f"{[s.name for s in pending]}")
        to_run: list[StageSpec] = []
        for stage in wave:
            key = stage_key(stage, hashes)
            keys[stage.name] = key
            kind = stage_kind(stage.kind)
            if store is not None and kind.cacheable:
                stored = store.load(stage.name, key)
                if stored is not None:
                    artifacts[stage.name] = stored.artifact
                    hashes[stage.name] = stored.output_hash
                    if ledger is not None and stored.ledger is not None:
                        ledger.merge(stored.ledger)
                    cached.append(stage.name)
                    continue
            to_run.append(stage)
        tasks = [
            _StageTask(
                name=stage.name,
                fn=stage_kind(stage.kind).fn,
                config=stage.config,
                inputs=stage.depends_on,
                ctx=ctx,
            )
            for stage in to_run
        ]
        shared = {
            dep: artifacts[dep] for stage in to_run for dep in stage.depends_on
        }
        wave_hashes: dict[int, str] = {}

        def publish(index: int, outcome) -> None:
            # Runs in this process the moment a stage completes (in
            # completion order), so a kill between stages of one wave
            # never loses already-finished work — the resume contract
            # is per *stage*, not per wave.
            stage = to_run[index]
            value, shard = outcome
            kind = stage_kind(stage.kind)
            if kind.fingerprint is not None:
                blob, output_hash = None, str(kind.fingerprint(value))
            else:
                blob, output_hash = hash_artifact(value)
            wave_hashes[index] = output_hash
            if store is not None and kind.cacheable:
                store.store(
                    stage.name,
                    keys[stage.name],
                    value,
                    ledger=shard,
                    artifact_blob=blob,
                    output_hash=output_hash,
                )

        try:
            outcomes = backend.run(
                _execute_stage,
                tasks,
                on_result=publish,
                initializer=_share_wave_inputs,
                initargs=(shared,),
            )
        finally:
            # Hold no artifact past its wave: a resident service must not
            # keep the last refresh's slices alive from module state.
            _wave.inputs = None
        for index, (stage, (value, shard)) in enumerate(
            zip(to_run, outcomes)
        ):
            artifacts[stage.name] = value
            hashes[stage.name] = wave_hashes[index]
            if ledger is not None:
                ledger.merge(shard)
            executed.append(stage.name)
        done = {s.name for s in wave}
        pending = [s for s in pending if s.name not in done]
    return DagRunResult(
        spec=spec,
        artifacts=artifacts,
        keys=keys,
        output_hashes=hashes,
        executed=tuple(executed),
        cached=tuple(cached),
    )
