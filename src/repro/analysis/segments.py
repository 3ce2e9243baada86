"""User segmentation — the paper's closing future-work item.

The paper ends by noting it treated users as one homogeneous consumer
group and that studying categories (gamers, movie-watchers, ...) would be
interesting. This module implements that extension using **measured**
behavior only (no ground-truth profiles): users are segmented by their
observed traffic shape, and each segment's market behavior is compared.

Segments (by measured features of the current period):

* ``bulk``     — BitTorrent was observed on the connection;
* ``sustained``— high mean-to-peak ratio: long steady sessions
  (streaming-like workloads);
* ``bursty``   — low mean-to-peak ratio: short intense bursts
  (browsing/gaming-like workloads);
* ``light``    — negligible demand altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.stats import percentile
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError

__all__ = [
    "SEGMENTS",
    "SegmentProfile",
    "SegmentationResult",
    "classify_users",
    "segment_users",
]

SEGMENTS = ("light", "bursty", "sustained", "bulk")

#: Peak demand below this (Mbps) marks a light user.
_LIGHT_PEAK_MBPS = 0.05
#: Mean/peak ratio above this marks sustained usage.
_SUSTAINED_RATIO = 0.25


def classify_users(users: UserColumns) -> np.ndarray:
    """Assign every user to a segment from measured behavior only."""
    peak = users.current("peak_no_bt_mbps")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = users.current("mean_no_bt_mbps") / peak
    # The first condition that holds wins: BitTorrent, light, sustained.
    conditions = [
        users.current("bt_user"),
        peak < _LIGHT_PEAK_MBPS,
        ratio >= _SUSTAINED_RATIO,
    ]
    return np.select(conditions, ["bulk", "light", "sustained"], "bursty")


def _switched_service(users: UserColumns) -> np.ndarray:
    """Per user: seen on more than one network (ISP, prefix, city)."""
    rows = users.rows
    starts = np.repeat(users.user_starts, users.user_counts)
    differs = np.zeros(users.n_rows, dtype=bool)
    for field in ("isp", "prefix", "city"):
        differs |= rows[field] != rows[field][starts]
    owner = np.repeat(np.arange(users.n_users), users.user_counts)
    return np.bincount(owner[differs], minlength=users.n_users) > 0


@dataclass(frozen=True)
class SegmentProfile:
    """Aggregate behavior of one segment."""

    segment: str
    n_users: int
    median_capacity_mbps: float
    median_peak_mbps: float
    mean_peak_utilization: float
    share_switched_service: float


@dataclass(frozen=True)
class SegmentationResult:
    profiles: tuple[SegmentProfile, ...]
    assignments: Mapping[str, str]  # user_id -> segment

    def profile(self, segment: str) -> SegmentProfile:
        for entry in self.profiles:
            if entry.segment == segment:
                return entry
        raise AnalysisError(f"no profile for segment {segment!r}")

    @property
    def shares(self) -> dict[str, float]:
        total = sum(p.n_users for p in self.profiles)
        return {p.segment: p.n_users / total for p in self.profiles}


def segment_users(users: UserColumns) -> SegmentationResult:
    """Segment a population and profile each segment."""
    if users.n_users == 0:
        raise AnalysisError("cannot segment an empty population")
    segments = classify_users(users)
    assignments = dict(zip(users.user_ids.tolist(), segments.tolist()))
    switched = _switched_service(users)
    profiles = []
    for segment in SEGMENTS:
        members = segments == segment
        if not members.any():
            continue
        profiles.append(
            SegmentProfile(
                segment=segment,
                n_users=int(np.count_nonzero(members)),
                median_capacity_mbps=percentile(
                    users.capacity_down_mbps[members], 50.0
                ),
                median_peak_mbps=percentile(
                    users.current("peak_no_bt_mbps")[members], 50.0
                ),
                mean_peak_utilization=float(
                    np.mean(users.peak_utilization[members])
                ),
                share_switched_service=float(np.mean(switched[members])),
            )
        )
    return SegmentationResult(
        profiles=tuple(profiles), assignments=assignments
    )
