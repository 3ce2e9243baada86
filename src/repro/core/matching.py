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
from typing import Callable, Generic, Iterator, Sequence, TypeVar

import numpy as np

from ..exceptions import MatchingError
from ..obs import ledger as obs

__all__ = [
    "DEFAULT_CALIPER",
    "LOSS_MATCH_FLOOR",
    "MatchedPair",
    "MatchingSummary",
    "ZERO_FLOOR",
    "caliper_compatible",
    "match_pairs",
    "match_pairs_arrays",
]

T = TypeVar("T")
U = TypeVar("U")

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


def caliper_compatible(a: float, b: float, caliper: float = DEFAULT_CALIPER) -> bool:
    """Whether two confounder values are within ``caliper`` of each other.

    "Within 25% of each other" is interpreted multiplicatively and
    symmetrically: ``max(a, b) <= (1 + caliper) * min(a, b)``, after flooring
    both values at :data:`ZERO_FLOOR` so that pairs of effectively-zero
    values (e.g. two loss-free lines) are compatible.

    Non-finite confounders are rejected with :class:`MatchingError`
    rather than silently falling through the comparisons: a NaN here
    means an upstream eligibility filter failed (missing market
    covariates surface as NaN — see
    :func:`repro.analysis.common.eligibility_mask` — and must be excluded
    *before* matching), and an infinity is equally meaningless — two
    ``inf`` values would satisfy ``inf <= 1.25 * inf`` and "match"
    despite carrying no information about similarity.
    """
    _check_limits(caliper, None)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise MatchingError(
            f"confounders must be finite, got {a}, {b} "
            "(exclude users with missing covariates before matching)"
        )
    if a < 0 or b < 0:
        raise MatchingError(f"confounders must be non-negative, got {a}, {b}")
    lo = max(min(a, b), ZERO_FLOOR)
    hi = max(max(a, b), ZERO_FLOOR)
    return hi <= (1.0 + caliper) * lo


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


@dataclass(frozen=True)
class MatchedPair(Generic[T, U]):
    """A matched (control, treatment) pair and its confounder distance."""

    control: T
    treatment: U
    distance: float


@dataclass(frozen=True)
class MatchingSummary(Generic[T, U]):
    """The result of a matching run."""

    pairs: tuple[MatchedPair[T, U], ...]
    n_control: int
    n_treatment: int
    caliper: float

    @property
    def n_matched(self) -> int:
        return len(self.pairs)

    @property
    def match_rate(self) -> float:
        """Fraction of the smaller group that found a partner."""
        smaller = min(self.n_control, self.n_treatment)
        if smaller == 0:
            return 0.0
        return self.n_matched / smaller


def _confounder_matrix(
    units: Sequence[T],
    confounders: Sequence[Callable[[T], float]],
) -> np.ndarray:
    """Log-space confounder matrix, one row per unit.

    Extraction is necessarily one Python call per (unit, confounder),
    but validation and the log transform run vectorized per column.
    """
    columns = []
    for extract in confounders:
        values = np.fromiter(
            (float(extract(unit)) for unit in units),
            dtype=float,
            count=len(units),
        )
        columns.append(_log_confounder_column(values, repr(extract)))
    return np.column_stack(columns).reshape(len(units), len(confounders))


def _log_confounder_column(values: np.ndarray, label: str) -> np.ndarray:
    """Validate one confounder column (finite, non-negative) and take it
    to log space; shared by both matching entry points."""
    invalid = ~np.isfinite(values) | (values < 0)
    if invalid.any():
        value = float(values[int(np.argmax(invalid))])
        raise MatchingError(
            f"confounder {label} produced invalid value {value!r}"
        )
    return np.log(np.maximum(values, ZERO_FLOOR))


def match_pairs(
    control: Sequence[T],
    treatment: Sequence[U],
    confounders: Sequence[Callable],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary[T, U]:
    """Match control and treatment units on shared confounders.

    Parameters
    ----------
    control, treatment:
        The two unit pools; elements are arbitrary objects.
    confounders:
        Callables extracting one non-negative float per unit (applied to
        units of both pools). Every confounder must pass the caliper check
        for a pair to be eligible.
    caliper:
        Maximum relative difference per confounder (default 25%).
    max_pairs:
        Optional cap on the number of accepted pairs (cheapest-distance
        pairs are kept).
    """
    _check_limits(caliper, max_pairs)
    if not confounders:
        raise MatchingError("at least one confounder is required")

    def _accounted(summary: MatchingSummary, n_candidates: int) -> MatchingSummary:
        # Run-ledger accounting (no-op outside a traced run): pool
        # sizes, caliper-compatible candidates, and accepted pairs.
        obs.count("matching.runs")
        obs.count("matching.pool.control", summary.n_control)
        obs.count("matching.pool.treatment", summary.n_treatment)
        obs.count("matching.candidates", n_candidates)
        obs.count("matching.pairs", summary.n_matched)
        return summary

    summary_empty = MatchingSummary(
        pairs=(), n_control=len(control), n_treatment=len(treatment), caliper=caliper
    )
    if not control or not treatment:
        return _accounted(summary_empty, 0)

    log_c = _confounder_matrix(control, confounders)
    log_t = _confounder_matrix(treatment, confounders)
    accepted, n_candidates = _greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    return _accounted(
        MatchingSummary(
            pairs=tuple(
                MatchedPair(control[c], treatment[t], dist)
                for c, t, dist in accepted
            ),
            n_control=len(control),
            n_treatment=len(treatment),
            caliper=caliper,
        ),
        n_candidates,
    )


def match_pairs_arrays(
    control_confounders: Sequence[np.ndarray],
    treatment_confounders: Sequence[np.ndarray],
    caliper: float = DEFAULT_CALIPER,
    max_pairs: int | None = None,
) -> MatchingSummary[int, int]:
    """Match two pools given as confounder columns: the analyses' entry
    point.

    Each sequence holds one 1-D float array per confounder (all the same
    length within a pool); the returned pairs carry *indices* into the
    pools. :func:`match_pairs` is the same matcher over unit objects and
    extractor callables: given the same values in the same order, both
    accept the same (control, treatment) pairs with the same run-ledger
    accounting, because both run the same validated log-space greedy
    core.
    """
    _check_limits(caliper, max_pairs)
    if not control_confounders or not treatment_confounders:
        raise MatchingError("at least one confounder is required")
    if len(control_confounders) != len(treatment_confounders):
        raise MatchingError(
            "control and treatment must share the same confounder set"
        )

    def _matrix(arrays: Sequence[np.ndarray], pool: str) -> np.ndarray:
        columns = []
        n_units = None
        for i, values in enumerate(arrays):
            values = np.asarray(values, dtype=float)
            if values.ndim != 1:
                raise MatchingError(
                    f"{pool} confounder column {i} must be 1-D"
                )
            if n_units is None:
                n_units = values.size
            elif values.size != n_units:
                raise MatchingError(
                    f"{pool} confounder columns disagree on pool size"
                )
            columns.append(
                _log_confounder_column(values, f"column {i} ({pool})")
            )
        return np.column_stack(columns).reshape(n_units, len(arrays))

    log_c = _matrix(control_confounders, "control")
    log_t = _matrix(treatment_confounders, "treatment")
    n_control, n_treatment = log_c.shape[0], log_t.shape[0]

    def _accounted(summary: MatchingSummary, n_candidates: int) -> MatchingSummary:
        obs.count("matching.runs")
        obs.count("matching.pool.control", summary.n_control)
        obs.count("matching.pool.treatment", summary.n_treatment)
        obs.count("matching.candidates", n_candidates)
        obs.count("matching.pairs", summary.n_matched)
        return summary

    if n_control == 0 or n_treatment == 0:
        return _accounted(
            MatchingSummary(
                pairs=(), n_control=n_control, n_treatment=n_treatment,
                caliper=caliper,
            ),
            0,
        )
    accepted, n_candidates = _greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    return _accounted(
        MatchingSummary(
            pairs=tuple(
                MatchedPair(c, t, dist) for c, t, dist in accepted
            ),
            n_control=n_control,
            n_treatment=n_treatment,
            caliper=caliper,
        ),
        n_candidates,
    )


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
) -> tuple[list[tuple[int, int, float]], int]:
    """The deterministic globally-greedy core, over log-space matrices.

    Returns accepted ``(control_index, treatment_index, distance)``
    triples (in acceptance order) and the caliper-compatible candidate
    count. The ``lexsort`` tie-break on (distance, control, treatment)
    makes the result a pure function of the matrices, which is what lets
    both matching entry points guarantee identical pairs.
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
        return [], 0
    ci = np.concatenate(ci_parts)
    ti = np.concatenate(ti_parts)
    pair_distance = np.concatenate(dist_parts)
    order = np.lexsort((ti, ci, pair_distance))

    # The scalar greedy over plain Python values: one ``tolist`` per
    # column instead of a numpy scalar lookup per candidate.
    used_control = [False] * log_c.shape[0]
    used_treatment = [False] * log_t.shape[0]
    accepted: list[tuple[int, int, float]] = []
    budget = ci.size if max_pairs is None else max_pairs
    for c, t, distance in zip(
        ci[order].tolist(), ti[order].tolist(), pair_distance[order].tolist()
    ):
        if len(accepted) >= budget:
            break
        if used_control[c] or used_treatment[t]:
            continue
        used_control[c] = used_treatment[t] = True
        accepted.append((c, t, distance))
    return accepted, int(ci.size)
