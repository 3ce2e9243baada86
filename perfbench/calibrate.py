"""Host-speed calibration.

The benchmark shares its machine with other tenants, and their load
changes how fast the same code runs by tens of percent over seconds to
minutes (CPU time inflates with it, so measuring CPU instead does not
help). Every timed operation is therefore bracketed by three runs of
this fixed probe in the same process right before and three right
after it, and
reported times are scaled by ``REFERENCE_S / probe``: seconds at the
host speed at which the probe takes ``REFERENCE_S``. A change to the
program moves the scaled time exactly as it moves the raw one; a busier
host moves both the operation and its probe.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's time on a quiet 2-core Intel Xeon VM.
REFERENCE_S = 0.045


def probe() -> float:
    """Seconds for a fixed mix of interpreter-bound and numpy work,
    like the program's own."""
    start = time.perf_counter()
    total = 0
    for k in range(600_000):
        total += k % 7
    values = np.random.default_rng(0).random(500_000)
    np.sort(values)
    np.cumsum(values)
    return time.perf_counter() - start


def probes(n: int = 3) -> list[float]:
    return [probe() for _ in range(n)]


def scale(samples) -> float:
    """Factor from raw seconds to reference-speed seconds, from the
    probes taken around one measurement."""
    return REFERENCE_S / (sum(samples) / len(samples))
