"""Pluggable executor backends for DAG stage waves.

The scheduler hands a backend one *wave* of independent, ready stages at
a time; the backend runs them and returns ``(result, ledger shard)``
pairs in task-submission order. Both built-in backends delegate to
:func:`repro.core.executor.run_sharded`, which already guarantees the
two properties the DAG contract needs:

* results (and shard ledgers) come back in submission order, whatever
  the completion order was — with an ``on_result`` hook fired per task
  at *completion* time, which is how the scheduler publishes each
  stage's artifact as soon as that stage finishes;
* every stage runs under its own ambient
  :class:`~repro.obs.ledger.RunLedger` scope, so its events ride back
  with its result and can be persisted next to its artifact.

Because stage functions are deterministic and self-seeded, the two
backends produce **identical bytes** — same artifacts, same hashes,
same serialized ledgers — for any worker count. The backend choice is
purely a scheduling decision (``repro dag run --backend``); a future
multi-host backend only has to honor the same interface.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from ..core.executor import resolve_jobs, run_sharded
from ..exceptions import DagError
from ..obs.ledger import RunLedger

__all__ = [
    "BACKENDS",
    "ExecutorBackend",
    "InProcessBackend",
    "ProcessPoolBackend",
    "get_backend",
]


class ExecutorBackend(Protocol):
    """The one seam a stage executor must implement."""

    name: str

    def run(
        self,
        worker: Callable,
        tasks: Sequence,
        on_result: Callable[[int, object], None] | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: Sequence = (),
    ) -> list[tuple[object, RunLedger]]:
        """Run ``worker`` over ``tasks``; ``(result, shard)`` pairs in
        task order. ``on_result(task_index, pair)`` fires in the
        calling process as each task completes (completion order), so
        the scheduler can publish artifacts incrementally.
        ``initializer(*initargs)`` runs once in every process that runs
        tasks, before the first of them: the scheduler ships a wave's
        input artifacts through it."""
        ...


class InProcessBackend:
    """Execute every stage serially in the calling process.

    The default for library callers and the CLI report path: no pickling
    of tasks or artifacts, no pool startup, and stage kinds may be
    arbitrary callables (closures included).
    """

    name = "inprocess"

    def run(self, worker, tasks, on_result=None, initializer=None, initargs=()):
        return run_sharded(
            worker, tasks, jobs=1, with_ledgers=True, on_result=on_result,
            initializer=initializer, initargs=initargs,
        )


class ProcessPoolBackend:
    """Fan each wave across a process pool (``core.executor`` sharding).

    Tasks — stage configs, dependency names, and the kind callable — are
    pickled into workers, so kinds must be module-level functions. A
    wave's input artifacts travel once per worker, as initializer
    arguments (inherited, not pickled, where the pool forks).
    Output is byte-identical to :class:`InProcessBackend` for any
    ``jobs`` value.
    """

    name = "pool"

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)

    def run(self, worker, tasks, on_result=None, initializer=None, initargs=()):
        return run_sharded(
            worker, tasks, jobs=self.jobs, with_ledgers=True,
            on_result=on_result, initializer=initializer, initargs=initargs,
        )


#: Backend names accepted by ``repro dag run --backend``.
BACKENDS = ("inprocess", "pool")


def get_backend(name: str, *, jobs: int | None = None) -> ExecutorBackend:
    """Construct a backend by name (the CLI's ``--backend`` seam)."""
    if name == "inprocess":
        return InProcessBackend()
    if name == "pool":
        return ProcessPoolBackend(jobs)
    known = ", ".join(BACKENDS)
    raise DagError(f"unknown executor backend {name!r} (expected: {known})")
