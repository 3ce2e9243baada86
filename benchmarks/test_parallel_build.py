"""Build throughput: sharded world building vs the serial baseline.

Records the wall-clock speedup of a 4-worker ``build_world`` over the
serial path on a paper-scale (2,400-household) configuration. The
per-user seed-stream design means the parallel world is bit-identical
to the serial one — this benchmark measures only how much faster it
arrives. Skipped on machines with fewer than 4 CPUs, where a 4-worker
measurement would be meaningless.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datasets import WorldConfig, build_world

from conftest import emit

BENCH_CONFIG = WorldConfig(
    seed=99, n_dasu_users=2_000, n_fcc_users=400, days_per_year=1.0
)

_N_WORKERS = 4


@pytest.mark.skipif(
    (os.cpu_count() or 1) < _N_WORKERS,
    reason=f"needs >= {_N_WORKERS} CPUs to measure a {_N_WORKERS}-worker speedup",
)
def test_parallel_build_speedup():
    start = time.perf_counter()
    serial = build_world(BENCH_CONFIG, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = build_world(BENCH_CONFIG, jobs=_N_WORKERS)
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    emit(
        f"Parallel build ({BENCH_CONFIG.n_dasu_users + BENCH_CONFIG.n_fcc_users}"
        " households)",
        [
            f"serial:     {serial_s:6.2f} s",
            f"{_N_WORKERS} workers:  {parallel_s:6.2f} s",
            f"speedup:    x{speedup:.2f}",
        ],
    )
    assert parallel.all_columns.n_users == serial.all_columns.n_users
    assert speedup >= 2.0, (
        f"expected >= 2x speedup from {_N_WORKERS} workers, got x{speedup:.2f}"
    )
