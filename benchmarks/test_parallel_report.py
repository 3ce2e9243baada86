"""Analysis throughput: the parallel report engine vs the serial baseline.

Records the wall-clock speedup of rendering the full paper-vs-measured
report with 4 workers over the serial path on the paper-scale world.
The report's fragments (every natural experiment, table, and binned
curve) are independent and run through the same process pool as the
world builder, so the parallel report is byte-identical to the serial
one — this benchmark measures only how much faster it arrives, and the
equality assertion doubles as an end-to-end determinism check at scale.
Skipped on machines with fewer than 4 CPUs, where a 4-worker
measurement would be meaningless.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.paper_report import full_report
from repro.obs.ledger import scoped

from conftest import emit

_N_WORKERS = 4
_MIN_SPEEDUP = 1.8


@pytest.mark.skipif(
    (os.cpu_count() or 1) < _N_WORKERS,
    reason=f"needs >= {_N_WORKERS} CPUs to measure a {_N_WORKERS}-worker speedup",
)
def test_parallel_report_speedup(paper_world):
    dasu, fcc, survey = (
        paper_world.dasu.users,
        paper_world.fcc.users,
        paper_world.survey,
    )

    with scoped() as ledger:
        start = time.perf_counter()
        serial = full_report(dasu, fcc, survey, jobs=1)
        serial_s = time.perf_counter() - start
    fragments = [s for s in ledger.spans if s.name.startswith("report/")]

    start = time.perf_counter()
    parallel = full_report(dasu, fcc, survey, jobs=_N_WORKERS)
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    slowest = max(fragments, key=lambda s: s.wall_s)
    emit(
        f"Parallel report ({len(dasu) + len(fcc)} users, "
        f"{len(fragments)} fragments)",
        [
            f"serial:            {serial_s:6.2f} s",
            f"{_N_WORKERS} workers:         {parallel_s:6.2f} s",
            f"speedup:           x{speedup:.2f}",
            f"critical fragment: {slowest.name.removeprefix('report/')} "
            f"({slowest.wall_s:.2f} s)",
        ],
    )
    assert parallel == serial, "parallel report drifted from serial output"
    assert speedup >= _MIN_SPEEDUP, (
        f"expected >= x{_MIN_SPEEDUP} speedup from {_N_WORKERS} workers, "
        f"got x{speedup:.2f}"
    )
