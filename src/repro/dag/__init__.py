"""Declarative, resumable experiment DAGs.

The package turns the study's pipelines into data: a :class:`DagSpec`
declares named stages (registered *kinds* plus per-stage config and
``depends_on`` edges), :func:`run_dag` schedules them in deterministic
dependency waves over a pluggable executor backend, and a
:class:`DagStore` content-addresses every stage output so a killed run
resumes — re-invoking the same command reloads finished stages and
re-executes only the rest, with final artifacts byte-identical to an
uninterrupted run.

Layers:

* :mod:`~repro.dag.spec` — specs, parse-time validation, the stage-kind
  registry;
* :mod:`~repro.dag.schedule` — content-addressed keys, wave scheduling,
  resume semantics;
* :mod:`~repro.dag.store` — crash-safe artifact persistence;
* :mod:`~repro.dag.backends` — in-process and process-pool executors;
* :mod:`~repro.dag.pipelines` — the built-in kinds and the ``report``/
  ``sweep`` pipeline templates (importing this package registers them).
"""

from .backends import (
    BACKENDS,
    ExecutorBackend,
    InProcessBackend,
    ProcessPoolBackend,
    get_backend,
)
from .pipelines import (
    CellOutcome,
    DatasetTriple,
    FileBundle,
    WorldSlice,
    expand_pipeline,
    report_spec,
    sweep_spec,
)
from .schedule import DagRunResult, RunContext, run_dag, stage_key
from .spec import DagSpec, StageKind, StageSpec, register_stage_kind, stage_kind
from .store import DagStore, StoredStage, hash_artifact

__all__ = [
    "BACKENDS",
    "CellOutcome",
    "DagRunResult",
    "DagSpec",
    "DagStore",
    "DatasetTriple",
    "ExecutorBackend",
    "FileBundle",
    "InProcessBackend",
    "ProcessPoolBackend",
    "RunContext",
    "StageKind",
    "StageSpec",
    "StoredStage",
    "WorldSlice",
    "expand_pipeline",
    "get_backend",
    "hash_artifact",
    "register_stage_kind",
    "report_spec",
    "run_dag",
    "stage_key",
    "stage_kind",
    "sweep_spec",
]
