"""Upload-direction analysis — an extension over the paper.

The paper's datasets recorded bytes sent as well as received but its
evaluation uses the download direction only. With both directions in the
records, two structural facts are checkable:

* residential traffic is heavily **asymmetric** — the typical household
  uploads a small fraction of what it downloads;
* **BitTorrent seeding breaks the asymmetry**: P2P households saturate
  their thin uplinks, so matched BT households upload far more than
  non-BT ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from .common import MatchedExperimentResult, matched_experiment

__all__ = ["UploadAsymmetry", "seeding_experiment", "upload_asymmetry"]


@dataclass(frozen=True)
class UploadAsymmetry:
    """Distribution of the uplink-to-downlink mean-rate ratio."""

    n_users: int
    median_ratio: float
    p90_ratio: float
    median_ratio_bt: float | None
    median_ratio_non_bt: float | None


def upload_asymmetry(users: UserColumns) -> UploadAsymmetry:
    """Summarize the up/down volume asymmetry of a population."""
    up = users.current("mean_up_mbps")
    down = users.current("mean_mbps")
    # A NaN downlink mean (dirty data) is not <= 0: it stays, as NaN.
    measured = users.current("has_mean_up") & ~(down <= 0)
    if not measured.any():
        raise AnalysisError("no users carry upload measurements")
    values = up[measured] / down[measured]
    bt_user = users.current("bt_user")[measured]
    bt, non_bt = values[bt_user], values[~bt_user]
    return UploadAsymmetry(
        n_users=int(values.size),
        median_ratio=float(np.median(values)),
        p90_ratio=float(np.percentile(values, 90)),
        median_ratio_bt=float(np.median(bt)) if bt.size else None,
        median_ratio_non_bt=float(np.median(non_bt)) if non_bt.size else None,
    )


def seeding_experiment(
    users: UserColumns,
    confounders: Sequence[str] = ("capacity", "latency", "loss"),
) -> MatchedExperimentResult:
    """Do BitTorrent households upload more than matched non-BT ones?"""
    measured = users.current("has_mean_up")
    bt_user = users.current("bt_user")
    non_bt = users.select_users(measured & ~bt_user)
    bt = users.select_users(measured & bt_user)
    if non_bt.n_users == 0 or bt.n_users == 0:
        raise AnalysisError("need both BT and non-BT users with uploads")
    return matched_experiment(
        "non-BT (control) vs BT (treatment) upload",
        control=non_bt,
        treatment=bt,
        confounders=confounders,
        outcome=lambda pool: pool.current("mean_up_mbps"),
        hypothesis="BitTorrent seeding raises upload volume",
    )
