"""The observation calendar and the builder's hourly-profile kernel.

:data:`EPOCH_YEAR` dates the observation windows; :func:`hourly_profile`
summarizes one period's samples per local hour. Datasets themselves are
row blocks (:mod:`repro.datasets.columns`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import DatasetError

__all__ = ["EPOCH_YEAR", "hourly_profile"]

#: Day 0 of every observation window is January 1st of this year.
EPOCH_YEAR = 2011
_DAYS_PER_YEAR = 365.0


# Module and name stay because perfbench/tracer.py wraps it by name.
def hourly_profile(
    rates_mbps: Sequence[float] | np.ndarray,
    hours: Sequence[float] | np.ndarray,
    min_samples_per_hour: int = 1,
) -> tuple[float, ...] | None:
    """Mean rate per local hour-of-day over collected samples.

    Returns a 24-tuple (NaN for hours with fewer than
    ``min_samples_per_hour`` samples — a peak-hour-biased collector like
    Dasu genuinely has sparse overnight coverage), or ``None`` when fewer
    than half the hours are covered at all.
    """
    rates = np.asarray(rates_mbps, dtype=float)
    hrs = np.asarray(hours, dtype=float)
    if rates.shape != hrs.shape:
        raise DatasetError("rates and hours must align")
    if rates.size == 0:
        return None
    buckets = (np.floor(hrs).astype(int) % 24).astype(np.uint8)
    # A stable sort keeps each hour's samples in their original order,
    # so each contiguous slice sums exactly as ``rates[mask].mean()``
    # would (``np.add.reduceat`` and weighted ``bincount`` sum in a
    # different order and drift by an ulp).
    ordered = rates[np.argsort(buckets, kind="stable")]
    counts = np.bincount(buckets, minlength=24).tolist()
    profile = [math.nan] * 24
    end = 0
    for hour, count in enumerate(counts):
        start, end = end, end + count
        if count >= min_samples_per_hour:
            profile[hour] = float(np.add.reduce(ordered[start:end]) / count)
    if sum(v == v for v in profile) < 12:
        return None
    return tuple(profile)
