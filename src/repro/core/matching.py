"""Nearest-neighbor matching with a relative caliper.

The paper pairs each user in the "treatment" group with a similar user in
the "control" group, requiring the pair to be *within 25% of each other on
every confounding factor* (Sec. 3.2). Matching is 1:1 without replacement.

This module implements a deterministic, globally-greedy variant: all
caliper-compatible (control, treatment) candidate pairs are ranked by a
scale-free distance (the sum of absolute log-ratios over the confounders)
and accepted in order, skipping candidates whose endpoints were already
matched. Global greediness avoids the order-dependence of per-unit greedy
matching and makes results reproducible.
The accepted pairs come back as index arrays into the two pools
(:class:`MatchingSummary`), which callers use to index their own
outcome and covariate columns.

Candidates are enumerated by a sorted band join rather than a dense
cross product. The treatment pool is sorted on its most selective
confounder (the column whose caliper bands hold the fewest pairs), each
control's band on that column is found by binary search, and only the
gathered band pairs face the exact per-pair caliper test. That test
runs one confounder column at a time, most selective first, and each
column gathers only the pairs the columns before it kept; only the
survivors have their distance summed. This costs at worst
O((n_c + n_t) log n_t + band pairs * k) instead of O(n_c * n_t * k).
It cannot change which pairs match: the band is a superset of the
caliper window by construction, the exact test and the distance are
the dense enumeration's own expressions, and the final ``lexsort`` is
a total order on pairs, so the order in which they were gathered is
irrelevant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..exceptions import MatchingError
from ..obs import ledger as obs

__all__ = [
    "DEFAULT_CALIPER",
    "LOSS_MATCH_FLOOR",
    "MatchingSummary",
    "ZERO_FLOOR",
    "match_pairs",
    "match_pairs_arrays",
]

#: The paper's caliper: members of a pair must be within 25% of each other.
DEFAULT_CALIPER = 0.25

#: Values at or below this magnitude are treated as "zero" for ratio
#: comparisons (e.g. unmeasurably small packet-loss rates).
ZERO_FLOOR = 1e-6

#: Floor applied to *loss rates* before they enter the matching space, so
#: that two effectively loss-free lines count as similar. This is the
#: single source of truth for the loss floor — the confounder columns
#: in :mod:`repro.analysis.common` import it from here. It must dominate
#: :data:`ZERO_FLOOR`: the matcher floors every confounder at
#: ``ZERO_FLOOR`` as a last resort, and a loss floor below it would be
#: silently overridden, changing caliper semantics for near-zero loss.
LOSS_MATCH_FLOOR = 1e-4

assert LOSS_MATCH_FLOOR >= ZERO_FLOOR, (
    "the loss floor must dominate the generic zero floor, or the "
    "matcher's own flooring would silently change caliper semantics"
)

#: Memory budget for one candidate-enumeration block, in float64 cells of
#: the gathered (candidate pair, confounder) difference array (~32 MB).
CANDIDATE_CELL_BUDGET = 4_000_000


def _check_limits(caliper: float, max_pairs: int | None) -> None:
    """Reject a caliper that is not finite and positive, and a
    ``max_pairs`` that is not ``None`` or a non-negative int."""
    if (
        not isinstance(caliper, numbers.Real)
        or not math.isfinite(caliper)
        or caliper <= 0
    ):
        raise MatchingError(
            f"caliper must be finite and positive, got {caliper!r}"
        )
    if max_pairs is not None and (
        isinstance(max_pairs, bool)
        or not isinstance(max_pairs, numbers.Integral)
        or max_pairs < 0
    ):
        raise MatchingError(
            f"max_pairs must be a non-negative int or None, got {max_pairs!r}"
        )


@dataclass(frozen=True, eq=False)
class MatchingSummary:
    """The result of a matching run.

    The accepted pairs are three parallel arrays in acceptance order:
    ``control`` and ``treatment`` (``intp``) index the two pools, and
    ``distance`` (``float64``) is each pair's sum of absolute log-ratios.
    """

    control: np.ndarray
    treatment: np.ndarray
    distance: np.ndarray
    n_control: int
    n_treatment: int
    caliper: float

    @property
    def n_matched(self) -> int:
        return int(self.control.size)

    @property
    def match_rate(self) -> float:
        """Fraction of the smaller group that found a partner."""
        smaller = min(self.n_control, self.n_treatment)
        if smaller == 0:
            return 0.0
        return self.n_matched / smaller


def _log_matrix(arrays: Sequence[np.ndarray], pool: str) -> np.ndarray:
    """One pool's confounder columns, validated (1-D, one length,
    finite, non-negative) and taken to log space: one row per unit."""
    columns: list[np.ndarray] = []
    for i, values in enumerate(arrays):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise MatchingError(f"{pool} confounder column {i} must be 1-D")
        if columns and values.size != columns[0].size:
            raise MatchingError(
                f"{pool} confounder columns disagree on pool size"
            )
        invalid = ~np.isfinite(values) | (values < 0)
        if invalid.any():
            value = float(values[int(np.argmax(invalid))])
            raise MatchingError(
                f"confounder column {i} ({pool}) produced invalid value "
                f"{value!r}"
            )
        columns.append(np.log(np.maximum(values, ZERO_FLOOR)))
    return np.column_stack(columns)


def match_pairs(
    control: Sequence,
    treatment: Sequence,
    confounders: Sequence[Callable],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary:
    """:func:`match_pairs_arrays` on unit objects: each extractor in
    ``confounders`` is read into one column per pool."""
    return match_pairs_arrays(
        [np.array([f(u) for u in control], dtype=float) for f in confounders],
        [np.array([f(u) for u in treatment], dtype=float) for f in confounders],
        caliper=caliper,
        max_pairs=max_pairs,
    )


def match_pairs_arrays(
    control_confounders: Sequence[np.ndarray],
    treatment_confounders: Sequence[np.ndarray],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary:
    """Match two pools on shared confounders: the analyses' entry point.

    Each sequence holds one 1-D array of non-negative floats per
    confounder (all the same length within a pool), and a pair must
    pass the ``caliper`` on every one. ``max_pairs`` optionally caps the
    accepted pairs (the cheapest are kept).
    """
    _check_limits(caliper, max_pairs)
    if not control_confounders or not treatment_confounders:
        raise MatchingError("at least one confounder is required")
    if len(control_confounders) != len(treatment_confounders):
        raise MatchingError(
            "control and treatment must share the same confounder set"
        )
    log_c = _log_matrix(control_confounders, "control")
    log_t = _log_matrix(treatment_confounders, "treatment")
    control, treatment, distance, n_candidates = _greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    summary = MatchingSummary(
        control=control,
        treatment=treatment,
        distance=distance,
        n_control=log_c.shape[0],
        n_treatment=log_t.shape[0],
        caliper=caliper,
    )
    # Run-ledger accounting (no-op outside a traced run): pool sizes,
    # caliper-compatible candidates, and accepted pairs.
    obs.count("matching.runs")
    obs.count("matching.pool.control", summary.n_control)
    obs.count("matching.pool.treatment", summary.n_treatment)
    obs.count("matching.candidates", n_candidates)
    obs.count("matching.pairs", summary.n_matched)
    return summary


def _band_windows(
    log_c: np.ndarray, log_t: np.ndarray, bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Candidate windows on the most selective confounder column.

    Returns ``(by_key, lo, counts, test_order)``: ``by_key`` sorts the
    treatment pool on the chosen column, and control ``i``'s candidates
    are the treatment units ``by_key[lo[i] : lo[i] + counts[i]]``. The
    column is the one whose windows hold the fewest pairs in total.
    ``test_order`` lists the columns for the exact test: the others by
    how few pairs their own windows hold, then the band column, whose
    test the window has all but done.

    Every pair that passes the exact test ``fl(|c - t|) <= bound`` lies
    in its control's window, because rounding is monotone. A passing
    pair has ``|c - t| <= reach = nextafter(bound, inf)`` in exact
    arithmetic (a larger difference would round to at least ``reach``),
    and a float ``t`` inside the exact interval ``[c - reach, c + reach]``
    is also inside its rounded edges. The one-ulp widening of the bound
    is needed: ``|c - t|`` can be coarser-spaced than ``t``, so values
    several ulps of ``t`` beyond ``c - bound`` still round onto
    ``bound``.
    """
    reach = np.nextafter(bound, np.inf)
    windows = []
    for j in range(log_c.shape[1]):
        by_key = np.argsort(log_t[:, j], kind="stable")
        keys = log_t[by_key, j]
        lo = np.searchsorted(keys, log_c[:, j] - reach, side="left")
        hi = np.searchsorted(keys, log_c[:, j] + reach, side="right")
        # A negative caliper gives inverted windows: no candidates.
        counts = np.maximum(hi - lo, 0)
        windows.append((int(counts.sum()), j, by_key, lo, counts))
    windows.sort(key=lambda window: window[:2])
    _, band, by_key, lo, counts = windows[0]
    test_order = [window[1] for window in windows[1:]] + [band]
    return by_key, lo, counts, test_order


def _candidate_blocks(
    counts: np.ndarray, n_confounders: int, cell_budget: int
) -> Iterator[tuple[int, int]]:
    """Consecutive control-row ranges ``(start, stop)`` whose gathered
    windows fill at most ``cell_budget`` difference cells.

    A block always holds at least one row, so a single row whose window
    alone exceeds the budget forms a block of its own.
    """
    ends = np.cumsum(counts, dtype=np.int64) * n_confounders
    start = 0
    while start < counts.size:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + cell_budget, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _greedy_index_pairs(
    log_c: np.ndarray,
    log_t: np.ndarray,
    caliper: float,
    max_pairs: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The deterministic globally-greedy core, over log-space matrices.

    Returns the accepted pairs as ``(control, treatment, distance)``
    arrays in acceptance order, and the caliper-compatible candidate
    count. The ``lexsort`` tie-break on (distance, control, treatment)
    makes the result a pure function of the matrices.
    """
    limit = math.log(1.0 + caliper)
    bound = limit + 1e-12
    n_confounders = log_c.shape[1]
    control_columns = np.ascontiguousarray(log_c.T)
    treatment_columns = np.ascontiguousarray(log_t.T)

    # Gather each control's band window in blocks of control rows so peak
    # memory stays bounded, then apply the exact caliper test one
    # confounder at a time, gathering only the pairs every earlier
    # column passed.
    by_key, lo, counts, test_order = _band_windows(log_c, log_t, bound)
    ci_parts: list[np.ndarray] = []
    ti_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    blocks = _candidate_blocks(counts, n_confounders, CANDIDATE_CELL_BUDGET)
    for start, stop in blocks:
        block_counts = counts[start:stop]
        rows = np.repeat(np.arange(start, stop), block_counts)
        # Rank of each gathered slot in the sorted treatment pool: its
        # row's window start plus the slot's offset inside the window.
        first_slot = np.cumsum(block_counts) - block_counts
        ranks = np.arange(rows.size) + np.repeat(
            lo[start:stop] - first_slot, block_counts
        )
        cols = by_key[ranks]
        for j in test_order:
            # |log a - log b| on confounder j.
            diff = np.abs(control_columns[j][rows] - treatment_columns[j][cols])
            keep = diff <= bound
            rows, cols = rows[keep], cols[keep]
            if not rows.size:
                break
        if rows.size:
            ci_parts.append(rows)
            ti_parts.append(cols)
            # The dense enumeration's distance expression, on the
            # survivors only.
            dist_parts.append(np.abs(log_c[rows] - log_t[cols]).sum(axis=1))
    if not ci_parts:
        none = np.empty(0, dtype=np.intp)
        return none, none, np.empty(0, dtype=np.float64), 0
    ci = np.concatenate(ci_parts)
    ti = np.concatenate(ti_parts)
    pair_distance = np.concatenate(dist_parts)
    order = np.lexsort((ti, ci, pair_distance))
    ci, ti, pair_distance = ci[order], ti[order], pair_distance[order]

    # The scalar greedy over plain Python values: one ``tolist`` per
    # column instead of a numpy scalar lookup per candidate.
    used_control = [False] * log_c.shape[0]
    used_treatment = [False] * log_t.shape[0]
    accepted: list[int] = []
    budget = ci.size if max_pairs is None else max_pairs
    for rank, (c, t) in enumerate(zip(ci.tolist(), ti.tolist())):
        if len(accepted) >= budget:
            break
        if used_control[c] or used_treatment[t]:
            continue
        used_control[c] = used_treatment[t] = True
        accepted.append(rank)
    return ci[accepted], ti[accepted], pair_distance[accepted], int(ci.size)
