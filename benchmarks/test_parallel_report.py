"""Analysis throughput: the report DAG on a process pool vs in-process.

Records the wall-clock speedup of running the full paper-vs-measured
report DAG (:func:`repro.dag.report_spec`) on a 4-worker
:class:`~repro.dag.ProcessPoolBackend` over the in-process backend, on
the paper-scale world. The report's fragments (every natural
experiment, table, and binned curve) are independent stages of one wave,
so the pooled report is byte-identical to the in-process one — this
benchmark measures only how much faster it arrives, and the equality
assertion doubles as an end-to-end determinism check at scale. Skipped
on machines with fewer than 4 CPUs, where a 4-worker measurement would
be meaningless.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.dag import (
    InProcessBackend,
    ProcessPoolBackend,
    RunContext,
    report_spec,
    run_dag,
)
from repro.obs.ledger import RunLedger

from conftest import PAPER_WORLD_CONFIG, emit

_N_WORKERS = 4
_MIN_SPEEDUP = 1.8


#: The ledger spans of the fragment stages.
_FRAGMENT_SPANS = "dag/stage/fragment/"


def _render(backend, ledger: RunLedger | None = None) -> str:
    """The report DAG over the cached paper world on ``backend``."""
    run = run_dag(
        report_spec(PAPER_WORLD_CONFIG),
        backend=backend,
        ledger=ledger,
        context=RunContext(),
    )
    return run.artifact("paper-report").files["report.txt"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < _N_WORKERS,
    reason=f"needs >= {_N_WORKERS} CPUs to measure a {_N_WORKERS}-worker speedup",
)
def test_parallel_report_speedup(paper_world):
    dasu, fcc = paper_world.dasu.columns, paper_world.fcc.columns

    ledger = RunLedger()
    start = time.perf_counter()
    serial = _render(InProcessBackend(), ledger)
    serial_s = time.perf_counter() - start
    fragments = [s for s in ledger.spans if s.name.startswith(_FRAGMENT_SPANS)]

    start = time.perf_counter()
    parallel = _render(ProcessPoolBackend(_N_WORKERS))
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    slowest = max(fragments, key=lambda s: s.wall_s)
    emit(
        f"Parallel report ({dasu.n_users + fcc.n_users} users, "
        f"{len(fragments)} fragments)",
        [
            f"serial:            {serial_s:6.2f} s",
            f"{_N_WORKERS} workers:         {parallel_s:6.2f} s",
            f"speedup:           x{speedup:.2f}",
            f"critical fragment: {slowest.name.removeprefix(_FRAGMENT_SPANS)} "
            f"({slowest.wall_s:.2f} s)",
        ],
    )
    assert parallel == serial, "parallel report drifted from serial output"
    assert speedup >= _MIN_SPEEDUP, (
        f"expected >= x{_MIN_SPEEDUP} speedup from {_N_WORKERS} workers, "
        f"got x{speedup:.2f}"
    )
