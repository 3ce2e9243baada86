"""Detection of per-user service switches (Sec. 3.2, "User upgrades").

The paper identifies users observed on two networks of different capacities
— a "slow" and a "fast" network, each identified by the tuple (ISP name,
network prefix, geolocated city) — and compares the demand the same user
generated on each. This module provides the data model for a user's stay on
one service (:class:`ServicePeriod`), switch detection between consecutive
stays, and the slow/fast pairing used by Table 1 and Figs. 4-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import AnalysisError

__all__ = [
    "MIN_CAPACITY_RATIO",
    "NetworkId",
    "ServicePeriod",
    "ServiceSwitch",
    "UpgradeObservation",
    "detect_switches",
    "slow_fast_observation",
    "slow_fast_stays",
]

#: Minimum capacity ratio between two stays for the pair to count as a
#: genuine service change rather than measurement noise.
MIN_CAPACITY_RATIO = 1.25


@dataclass(frozen=True)
class NetworkId:
    """The paper's network identity tuple: (ISP name, prefix, city)."""

    isp: str
    prefix: str
    city: str

    def __str__(self) -> str:
        return f"{self.isp}/{self.prefix}/{self.city}"


@dataclass(frozen=True)
class ServicePeriod:
    """One user's contiguous stay on one broadband service.

    Demand summaries are carried both with and without BitTorrent-active
    intervals, since the paper reports the upgrade analyses for both.
    Times are in days since the start of the observation window.
    """

    user_id: str
    network: NetworkId
    start_day: float
    end_day: float
    capacity_mbps: float
    mean_mbps: float
    peak_mbps: float
    mean_no_bt_mbps: float
    peak_no_bt_mbps: float

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise AnalysisError(
                f"service period for {self.user_id} has non-positive duration"
            )
        if self.capacity_mbps <= 0:
            raise AnalysisError(
                f"service period for {self.user_id} has non-positive capacity"
            )

    @property
    def duration_days(self) -> float:
        return self.end_day - self.start_day


@dataclass(frozen=True)
class ServiceSwitch:
    """A transition between two consecutive service periods of one user."""

    before: ServicePeriod
    after: ServicePeriod

    @property
    def user_id(self) -> str:
        return self.before.user_id

    @property
    def capacity_ratio(self) -> float:
        return self.after.capacity_mbps / self.before.capacity_mbps

    @property
    def is_upgrade(self) -> bool:
        return self.capacity_ratio >= MIN_CAPACITY_RATIO

    @property
    def is_downgrade(self) -> bool:
        return self.capacity_ratio <= 1.0 / MIN_CAPACITY_RATIO

    def delta_mean(self, include_bt: bool = True) -> float:
        """Change in average demand (after − before), in Mbps."""
        if include_bt:
            return self.after.mean_mbps - self.before.mean_mbps
        return self.after.mean_no_bt_mbps - self.before.mean_no_bt_mbps

    def delta_peak(self, include_bt: bool = True) -> float:
        """Change in peak (95th-percentile) demand, in Mbps."""
        if include_bt:
            return self.after.peak_mbps - self.before.peak_mbps
        return self.after.peak_no_bt_mbps - self.before.peak_no_bt_mbps


@dataclass(frozen=True)
class UpgradeObservation:
    """One user's slow-network vs fast-network demand comparison.

    This is the unit of Table 1's natural experiment: the control is the
    user's own behavior on the slower network, the treatment the behavior
    on the faster one.
    """

    user_id: str
    slow: ServicePeriod
    fast: ServicePeriod

    @property
    def capacity_ratio(self) -> float:
        return self.fast.capacity_mbps / self.slow.capacity_mbps


def detect_switches(
    periods: Sequence[ServicePeriod],
    min_capacity_ratio: float = MIN_CAPACITY_RATIO,
) -> list[ServiceSwitch]:
    """Find service changes in one user's time-ordered stays.

    Consecutive stays must belong to the same user, be time-ordered, and
    differ in network identity; a switch is emitted when the capacity ratio
    between them (either direction) reaches ``min_capacity_ratio``.
    """
    if min_capacity_ratio <= 1.0:
        raise AnalysisError(
            f"min capacity ratio must exceed 1, got {min_capacity_ratio}"
        )
    switches: list[ServiceSwitch] = []
    for before, after in zip(periods, periods[1:]):
        if before.user_id != after.user_id:
            raise AnalysisError(
                "detect_switches expects periods of a single user; got "
                f"{before.user_id!r} then {after.user_id!r}"
            )
        if after.start_day < before.end_day:
            raise AnalysisError(
                f"service periods of {before.user_id!r} overlap in time"
            )
        if before.network == after.network:
            continue
        ratio = after.capacity_mbps / before.capacity_mbps
        if ratio >= min_capacity_ratio or ratio <= 1.0 / min_capacity_ratio:
            switches.append(ServiceSwitch(before, after))
    return switches


def slow_fast_stays(
    capacities: Sequence[float],
    networks: Sequence[object],
    min_capacity_ratio: float = MIN_CAPACITY_RATIO,
) -> tuple[int, int] | None:
    """Indices of one user's slowest and fastest stays (the first of
    each), if meaningfully different.

    ``capacities`` and ``networks`` describe the stays in order; returns
    ``None`` when there are fewer than two, when the slowest and fastest
    share a network, or when their capacity spread does not reach
    ``min_capacity_ratio``.
    """
    if len(capacities) < 2:
        return None
    slow = capacities.index(min(capacities))
    fast = capacities.index(max(capacities))
    if networks[slow] == networks[fast]:
        return None
    if capacities[fast] / capacities[slow] < min_capacity_ratio:
        return None
    return slow, fast


def slow_fast_observation(
    periods: Iterable[ServicePeriod],
    min_capacity_ratio: float = MIN_CAPACITY_RATIO,
) -> UpgradeObservation | None:
    """Pair one user's slowest and fastest stays, if meaningfully different.

    Returns ``None`` when the user was seen on fewer than two networks or
    the capacity spread does not reach ``min_capacity_ratio``.
    """
    stays = list(periods)
    users = {p.user_id for p in stays}
    if len(users) > 1:
        raise AnalysisError(f"periods span multiple users: {sorted(users)}")
    pair = slow_fast_stays(
        [p.capacity_mbps for p in stays],
        [p.network for p in stays],
        min_capacity_ratio,
    )
    if pair is None:
        return None
    slow, fast = stays[pair[0]], stays[pair[1]]
    return UpgradeObservation(user_id=slow.user_id, slow=slow, fast=fast)
