"""Bin definitions used throughout the paper's evaluation.

The central one is the exponential *capacity class*: class ``k`` holds every
user whose download capacity lies in ``(100 kbps * 2^(k-1), 100 kbps * 2^k]``
(Sec. 3.1). Other analyses reuse the same machinery with explicit bin edges:
the case-study tiers (<1, 1-8, 8-16, 16-32, >32 Mbps), price-of-access bins,
latency bins, and packet-loss bins.
"""

from __future__ import annotations

import bisect
import decimal
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import BinningError

__all__ = [
    "CAPACITY_CLASS_BASE_MBPS",
    "CASE_STUDY_TIERS",
    "LATENCY_BINS_MS",
    "LOSS_BINS_FRACTION",
    "PRICE_OF_ACCESS_BINS_USD",
    "UPGRADE_COST_BINS_USD",
    "UPGRADE_TIERS_MBPS",
    "Bin",
    "BinSpec",
    "capacity_class",
    "capacity_class_bounds",
    "capacity_class_spec",
    "explicit_bins",
    "geometric_bins",
]

#: Base of the paper's capacity classes: 100 kbps, expressed in Mbps.
CAPACITY_CLASS_BASE_MBPS = 0.1

#: Case-study tiers of Sec. 5 (lower-exclusive, upper-inclusive, in Mbps).
CASE_STUDY_TIERS: tuple[tuple[float, float], ...] = (
    (0.0, 1.0),
    (1.0, 8.0),
    (8.0, 16.0),
    (16.0, 32.0),
    (32.0, math.inf),
)

#: Initial-service tiers of the Fig. 5 upgrade analysis, in Mbps.
UPGRADE_TIERS_MBPS: tuple[tuple[float, float], ...] = (
    (0.25, 1.0),
    (1.0, 4.0),
    (4.0, 16.0),
    (16.0, 64.0),
    (64.0, 256.0),
)

#: Price-of-access groups of Sec. 5 (USD PPP per month).
PRICE_OF_ACCESS_BINS_USD: tuple[tuple[float, float], ...] = (
    (0.0, 25.0),
    (25.0, 60.0),
    (60.0, math.inf),
)

#: Cost-of-upgrade classes of Sec. 6 (USD PPP per +1 Mbps per month).
UPGRADE_COST_BINS_USD: tuple[tuple[float, float], ...] = (
    (0.0, 0.5),
    (0.5, 1.0),
    (1.0, math.inf),
)

#: Latency bins of Table 7, in milliseconds.
LATENCY_BINS_MS: tuple[tuple[float, float], ...] = (
    (0.0, 64.0),
    (64.0, 128.0),
    (128.0, 256.0),
    (256.0, 512.0),
    (512.0, 2048.0),
)

#: Packet-loss bins of Table 8, as fractions (the paper prints percentages).
LOSS_BINS_FRACTION: tuple[tuple[float, float], ...] = (
    (0.0, 0.0001),
    (0.0001, 0.001),
    (0.001, 0.01),
    (0.01, 0.15),
)


#: Types a bin can place on the line (see :meth:`Bin.__contains__`).
_REAL_TYPES = (numbers.Real, decimal.Decimal)


@dataclass(frozen=True)
class Bin:
    """A half-open interval ``(low, high]``.

    The lower edge is exclusive and the upper edge inclusive, matching the
    paper's class definition ``(100 kbps * 2^(k-1), 100 kbps * 2^k]``.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise BinningError(f"empty bin ({self.low}, {self.high}]")

    def __contains__(self, value: object) -> bool:
        # Any real number can be placed on the line: builtin ints/floats,
        # numpy scalars (numbers.Real), and Decimal (a Real in behavior
        # but deliberately unregistered with the ABC). NaN compares
        # False on both sides and so is never a member.
        if not isinstance(value, _REAL_TYPES):
            return False
        return self.low < value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    def label(self, unit: str = "Mbps") -> str:
        """Human-readable label, e.g. ``"(3.2, 6.4] Mbps"``."""
        hi = "inf" if math.isinf(self.high) else f"{self.high:g}"
        return f"({self.low:g}, {hi}] {unit}".strip()


class BinSpec:
    """An ordered, non-overlapping sequence of :class:`Bin` objects.

    Provides membership queries and grouping of values into bins; values
    falling outside every bin map to ``None`` (and are excluded from group
    results), mirroring how the paper drops out-of-range users.
    """

    def __init__(self, bins: Sequence[Bin]):
        if not bins:
            raise BinningError("a BinSpec needs at least one bin")
        ordered = sorted(bins, key=lambda b: b.low)
        for left, right in zip(ordered, ordered[1:]):
            if right.low < left.high:
                raise BinningError(
                    f"bins overlap: {left.label()} and {right.label()}"
                )
        self._bins = tuple(ordered)
        # Edge lists for the scalar lookup, kept as given (not coerced to
        # float) so comparisons match Bin.__contains__ exactly.
        self._low_edges = [b.low for b in ordered]
        self._high_edges = [b.high for b in ordered]
        # Precomputed edge arrays for the vectorized lookup.
        self._lows = np.array(self._low_edges, dtype=float)
        self._highs = np.array(self._high_edges, dtype=float)

    @property
    def bins(self) -> tuple[Bin, ...]:
        return self._bins

    def __len__(self) -> int:
        return len(self._bins)

    def __iter__(self):
        return iter(self._bins)

    def __getitem__(self, index: int) -> Bin:
        return self._bins[index]

    def index_of(self, value: float) -> int | None:
        """Index of the bin containing ``value``, or ``None``.

        Equal to the first ``i`` with ``value in self[i]``: ``bisect_left``
        finds the last bin whose (exclusive) lower edge lies below
        ``value`` — no other bin can contain it, since the bins are
        sorted and non-overlapping — and one upper-edge comparison
        decides membership. NaN compares False everywhere and lands
        before the first bin.
        """
        if not isinstance(value, _REAL_TYPES):
            return None
        i = bisect.bisect_left(self._low_edges, value) - 1
        if i >= 0 and value <= self._high_edges[i]:
            return i
        return None

    def index_of_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`: bin index per value, ``-1`` for
        values outside every bin (gaps, NaN, out of range).

        Agrees with the scalar path on every input, including exact bin
        edges — ``searchsorted(side="left")`` locates the candidate bin
        for the ``(low, high]`` convention (a value equal to ``low``
        belongs to the previous bin), and an explicit membership check
        handles gaps between bins, ±inf, and NaN (all comparisons
        False ⇒ -1).
        """
        values = np.asarray(values, dtype=float)
        candidate = np.searchsorted(self._lows, values, side="left") - 1
        clipped = np.clip(candidate, 0, len(self._bins) - 1)
        inside = (values > self._lows[clipped]) & (
            values <= self._highs[clipped]
        )
        return np.where(inside & (candidate >= 0), clipped, -1)

    def bin_of(self, value: float) -> Bin | None:
        """The bin containing ``value``, or ``None``."""
        idx = self.index_of(value)
        return None if idx is None else self._bins[idx]

    def group(self, pairs: Iterable[tuple[float, object]]) -> dict[Bin, list]:
        """Group ``(key_value, payload)`` pairs by the bin of the key.

        Only bins that received at least one payload appear in the result.
        """
        out: dict[Bin, list] = {}
        for key, payload in pairs:
            b = self.bin_of(key)
            if b is not None:
                out.setdefault(b, []).append(payload)
        return out


def explicit_bins(edges: Sequence[tuple[float, float]]) -> BinSpec:
    """Build a :class:`BinSpec` from explicit ``(low, high)`` edge pairs."""
    return BinSpec([Bin(low, high) for low, high in edges])


def geometric_bins(base: float, count: int, ratio: float = 2.0) -> BinSpec:
    """``count`` geometric bins ``(base*ratio^(k-1), base*ratio^k]``, k=1..count."""
    if base <= 0 or ratio <= 1 or count < 1:
        raise BinningError(
            f"invalid geometric bin spec base={base} ratio={ratio} count={count}"
        )
    return BinSpec(
        [Bin(base * ratio ** (k - 1), base * ratio**k) for k in range(1, count + 1)]
    )


def capacity_class(capacity_mbps: float) -> int:
    """The paper's capacity class ``k`` for a download capacity in Mbps.

    Class ``k`` covers ``(100 kbps * 2^(k-1), 100 kbps * 2^k]``; capacities
    at or below 100 kbps fall in class 1 by convention (the paper's datasets
    contain essentially no sub-100 kbps broadband users).
    """
    if capacity_mbps <= 0:
        raise BinningError(f"capacity must be positive, got {capacity_mbps}")
    ratio = capacity_mbps / CAPACITY_CLASS_BASE_MBPS
    if ratio <= 1.0:
        return 1
    k = max(1, math.ceil(math.log2(ratio)))
    # log2 rounds edge-adjacent values (within an ulp of a class edge) onto
    # the edge itself, so repair the estimate against the exact bounds the
    # bins use; this keeps capacity_class consistent with
    # capacity_class_bounds / BinSpec membership at every edge.
    while capacity_mbps > CAPACITY_CLASS_BASE_MBPS * 2**k:
        k += 1
    while k > 1 and capacity_mbps <= CAPACITY_CLASS_BASE_MBPS * 2 ** (k - 1):
        k -= 1
    return k


def capacity_class_bounds(k: int) -> Bin:
    """The ``(low, high]`` bounds, in Mbps, of capacity class ``k``."""
    if k < 1:
        raise BinningError(f"capacity classes start at 1, got {k}")
    return Bin(CAPACITY_CLASS_BASE_MBPS * 2 ** (k - 1), CAPACITY_CLASS_BASE_MBPS * 2**k)


def capacity_class_spec(max_class: int = 14) -> BinSpec:
    """A :class:`BinSpec` covering classes 1..``max_class``.

    The default of 14 reaches ``(819.2, 1638.4]`` Mbps, beyond any capacity
    in the datasets this library generates.
    """
    return BinSpec([capacity_class_bounds(k) for k in range(1, max_class + 1)])
