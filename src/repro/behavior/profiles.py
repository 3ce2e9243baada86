"""Application profiles: what kind of traffic a household generates.

The paper treats users as a homogeneous consumer group and flags the
finer categorization (gamers, shoppers, movie-watchers) as future work;
we model a small profile mix anyway because it provides the within-class
demand variance the matching experiments need, and it makes the
"future work" analysis possible (see ``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DatasetError

__all__ = ["APPLICATION_PROFILES", "ApplicationProfile", "sample_profile"]


@dataclass(frozen=True)
class ApplicationProfile:
    """Traffic-shape parameters for one household archetype.

    ``activity_level`` scales the fraction of time the household is
    actively using the network; ``burstiness_sigma`` is the log-space
    spread of per-session rates; ``rate_median_share`` is the median
    session rate as a share of the household's latent peak need;
    ``bt_propensity`` the probability such a household runs BitTorrent;
    ``upload_share`` the typical uplink-to-downlink volume ratio of the
    household's non-BitTorrent traffic (requests, ACKs, uploads).
    """

    name: str
    activity_level: float
    burstiness_sigma: float
    rate_median_share: float
    bt_propensity: float
    upload_share: float = 0.06

    def __post_init__(self) -> None:
        if not 0.0 < self.activity_level <= 1.0:
            raise DatasetError(f"{self.name}: bad activity level")
        if self.burstiness_sigma <= 0:
            raise DatasetError(f"{self.name}: bad burstiness")
        if not 0.0 < self.rate_median_share <= 1.0:
            raise DatasetError(f"{self.name}: bad rate share")
        if not 0.0 <= self.bt_propensity <= 1.0:
            raise DatasetError(f"{self.name}: bad BT propensity")
        if not 0.0 < self.upload_share <= 1.0:
            raise DatasetError(f"{self.name}: bad upload share")


#: The household archetype mix: (profile, population share).
APPLICATION_PROFILES: tuple[tuple[ApplicationProfile, float], ...] = (
    (
        ApplicationProfile(
            name="browser",
            activity_level=0.45,
            burstiness_sigma=1.1,
            rate_median_share=0.30,
            bt_propensity=0.55,
            upload_share=0.06,
        ),
        0.40,
    ),
    (
        ApplicationProfile(
            name="streamer",
            activity_level=0.65,
            burstiness_sigma=0.8,
            rate_median_share=0.50,
            bt_propensity=0.60,
            upload_share=0.03,
        ),
        0.30,
    ),
    (
        ApplicationProfile(
            name="gamer",
            activity_level=0.60,
            burstiness_sigma=1.0,
            rate_median_share=0.25,
            bt_propensity=0.70,
            upload_share=0.12,
        ),
        0.15,
    ),
    (
        ApplicationProfile(
            name="downloader",
            activity_level=0.55,
            burstiness_sigma=1.5,
            rate_median_share=0.42,
            bt_propensity=0.92,
            upload_share=0.10,
        ),
        0.15,
    ),
)


def _mix_cdf() -> np.ndarray:
    """The archetype mix's CDF, computed as ``Generator.choice(p=)`` does."""
    shares = np.array([share for _, share in APPLICATION_PROFILES])
    cdf = (shares / shares.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


_MIX_CDF = _mix_cdf()


def sample_profile(rng: np.random.Generator) -> ApplicationProfile:
    """Draw a household archetype according to the population mix.

    One uniform draw looked up in the mix's CDF: the draw and the index
    ``rng.choice(len(APPLICATION_PROFILES), p=shares)`` would make.
    """
    index = int(_MIX_CDF.searchsorted(rng.random(), side="right"))
    return APPLICATION_PROFILES[index][0]
