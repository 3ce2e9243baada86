"""The band-join matching core against the dense reference.

The library enumerates candidate pairs with a sorted band join on one
confounder and tests the caliper one column at a time;
:mod:`tests.core.dense_matching` keeps the original dense cross-product
enumeration. The core returns the accepted pairs as three index and
distance arrays; read as ``(control, treatment, distance)`` triples,
they must equal the reference's — distances bit for bit — with the
same caliper-compatible candidate count on every input.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matching

from .dense_matching import dense_greedy_index_pairs

def core_pairs(log_c, log_t, caliper, max_pairs):
    """The core's arrays as the reference's ``(triples, count)``, after
    checking their dtypes; distances as ``float.hex`` bits."""
    control, treatment, distance, n_candidates = matching._greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    assert control.dtype == treatment.dtype == np.intp
    assert distance.dtype == np.float64
    assert control.size == treatment.size == distance.size
    assert isinstance(n_candidates, int)
    return (
        list(zip(control.tolist(), treatment.tolist(),
                 [d.hex() for d in distance.tolist()])),
        n_candidates,
    )


def dense_pairs(log_c, log_t, caliper, max_pairs):
    """The dense reference's ``(triples, count)``, distances as bits."""
    accepted, n_candidates = dense_greedy_index_pairs(
        log_c, log_t, caliper, max_pairs
    )
    return [(c, t, d.hex()) for c, t, d in accepted], n_candidates


LIMIT = math.log(1.0 + matching.DEFAULT_CALIPER)
BOUND = LIMIT + 1e-12

#: Raw confounder values: zeros and values floored at ZERO_FLOOR, the
#: loss floor, and ratios at and one ulp around the 25% caliper.
RAW_VALUES = (
    0.0,
    matching.ZERO_FLOOR / 10.0,
    matching.ZERO_FLOOR,
    matching.ZERO_FLOOR * 1.25,
    matching.LOSS_MATCH_FLOOR,
    1.0,
    1.25,
    math.nextafter(1.25, 0.0),
    math.nextafter(1.25, 2.0),
    0.8,
    50.0,
    62.5,
)

#: Log-space offsets at the caliper edge: the limit itself, the test's
#: bound (limit + 1e-12), and a few ulps on either side of each.
EDGE_OFFSETS = tuple(
    sign * edge
    for sign in (1.0, -1.0)
    for base in (LIMIT, BOUND)
    for edge in (
        base,
        math.nextafter(base, 0.0),
        math.nextafter(base, 1.0),
        math.nextafter(math.nextafter(base, 1.0), 1.0),
    )
)

raw_cell = st.one_of(
    st.sampled_from(RAW_VALUES),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def log_pools(draw):
    """Log-space control and treatment matrices with ties, floors and
    caliper-edge differences."""
    k = draw(st.integers(1, 5))
    n_c = draw(st.integers(0, 12))
    n_t = draw(st.integers(0, 12))
    raw_c = draw(
        st.lists(st.lists(raw_cell, min_size=k, max_size=k),
                 min_size=n_c, max_size=n_c)
    )
    log_c = np.array(
        [np.log(np.maximum(row, matching.ZERO_FLOOR)) for row in raw_c],
        dtype=float,
    ).reshape(n_c, k)
    rows = []
    for _ in range(n_t):
        row = []
        for j in range(k):
            if n_c and draw(st.booleans()):
                # A control's value shifted to the caliper edge.
                anchor = log_c[draw(st.integers(0, n_c - 1)), j]
                row.append(anchor + draw(st.sampled_from(EDGE_OFFSETS)))
            else:
                row.append(
                    math.log(max(draw(raw_cell), matching.ZERO_FLOOR))
                )
        rows.append(row)
    log_t = np.array(rows, dtype=float).reshape(n_t, k)
    return log_c, log_t


@settings(max_examples=300, deadline=None)
@given(
    pools=log_pools(),
    caliper=st.sampled_from((0.25, 0.25, 0.1, 0.6)),
    max_pairs=st.one_of(st.none(), st.integers(0, 6)),
    cell_budget=st.sampled_from(
        (matching.CANDIDATE_CELL_BUDGET, 1, 2, 7, 64)
    ),
)
def test_band_join_matches_dense_reference(
    pools, caliper, max_pairs, cell_budget
):
    log_c, log_t = pools
    with mock.patch.object(matching, "CANDIDATE_CELL_BUDGET", cell_budget):
        band = core_pairs(log_c, log_t, caliper, max_pairs)
    # Bit-identical distances, not merely equal ones.
    assert band == dense_pairs(log_c, log_t, caliper, max_pairs)


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(min_value=-15.0, max_value=15.0),
    n_ulps=st.integers(0, 8),
)
def test_window_edge_rounding(value, n_ulps):
    # A treatment value a few ulps outside value - BOUND can still pass
    # the exact test, because |c - t| rounds to BOUND at BOUND's coarser
    # spacing; the band window must still include it.
    edge = value - BOUND
    candidates = [edge]
    for _ in range(n_ulps):
        candidates.append(math.nextafter(candidates[-1], -math.inf))
    candidates += [value + BOUND, math.nextafter(value + BOUND, math.inf)]
    log_c = np.array([[value]])
    log_t = np.array(candidates)[:, None]
    assert core_pairs(
        log_c, log_t, matching.DEFAULT_CALIPER, None
    ) == dense_pairs(log_c, log_t, matching.DEFAULT_CALIPER, None)


def test_rounding_gap_wider_than_one_ulp():
    # Why the bound is widened: at c = 0.25, |c - t| has four times
    # the spacing of t near c - BOUND, so a value three ulps below
    # c - BOUND still rounds onto the bound and is a candidate.
    c = 0.25
    below = [c - BOUND]
    for _ in range(3):
        below.append(math.nextafter(below[-1], -math.inf))
    assert abs(c - below[-1]) <= BOUND
    log_c = np.array([[c]])
    log_t = np.array(below)[:, None]
    _, n_candidates = core_pairs(log_c, log_t, matching.DEFAULT_CALIPER, None)
    assert n_candidates == 4


def test_empty_and_single_unit_pools():
    one = np.zeros((1, 2))
    none = np.zeros((0, 2))
    for log_c, log_t in ((none, one), (one, none), (none, none), (one, one)):
        assert core_pairs(
            log_c, log_t, matching.DEFAULT_CALIPER, None
        ) == dense_pairs(log_c, log_t, matching.DEFAULT_CALIPER, None)


def test_negative_caliper_matches_nothing():
    log_c = np.zeros((3, 1))
    assert core_pairs(log_c, log_c, -0.5, None) == ([], 0)
    assert dense_greedy_index_pairs(log_c, log_c, -0.5, None) == ([], 0)


def _assert_same_as_dense(log_c, log_t, caliper, max_pairs):
    core = core_pairs(log_c, log_t, caliper, max_pairs)
    assert core == dense_pairs(log_c, log_t, caliper, max_pairs)
    return core


def _chain(n_pairs):
    """One confounder laid out as control, treatment, control, ... with
    gaps that grow along the line and stay inside the caliper, while
    two consecutive gaps never do. Each candidate then ranks just after
    its left neighbour, and the greedy accepts every other link."""
    gaps = np.linspace(0.12, 0.2, 2 * n_pairs - 1)
    points = np.concatenate(([0.0], np.cumsum(gaps)))
    return points[0::2, None], points[1::2, None]


def test_chain():
    # Each candidate ranks just after its left neighbour, so every
    # acceptance rules out the next link.
    log_c, log_t = _chain(2_000)
    accepted, n_candidates = _assert_same_as_dense(
        log_c, log_t, matching.DEFAULT_CALIPER, None
    )
    assert n_candidates == 3_999
    assert [(c, t) for c, t, _ in accepted] == [(i, i) for i in range(2_000)]
    log_c, log_t = _chain(150)
    for max_pairs in (0, 1, 75, 150):
        _assert_same_as_dense(log_c, log_t, matching.DEFAULT_CALIPER, max_pairs)


def test_all_equal_distances_tie_break_on_units():
    # Every distance is 0, so the rank order is (control, treatment)
    # alone and the greedy pairs control i with treatment i.
    log_c, log_t = np.zeros((9, 2)), np.zeros((6, 2))
    for max_pairs in (None, 0, 1, 6, 9):
        accepted, n_candidates = _assert_same_as_dense(
            log_c, log_t, matching.DEFAULT_CALIPER, max_pairs
        )
        assert n_candidates == 54
        kept = 6 if max_pairs is None else min(max_pairs, 6)
        assert accepted == [(i, i, (0.0).hex()) for i in range(kept)]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 8, 9))
def test_every_confounder_count(k):
    # Clustered pools with ties: many candidates per unit. From eight
    # confounders on, numpy's row sum adds pairwise rather than left to
    # right.
    rng = np.random.default_rng(k)
    log_c = np.round(rng.normal(0.0, 0.15, size=(70, k)), 2)
    log_t = np.round(rng.normal(0.02, 0.15, size=(90, k)), 2)
    for max_pairs in (None, 0, 1, 70):
        accepted, _ = _assert_same_as_dense(
            log_c, log_t, matching.DEFAULT_CALIPER, max_pairs
        )
    assert accepted


def test_candidates_beyond_the_cell_budget():
    # 900 x 900 pairs, nearly all within the caliper on six
    # confounders: more difference cells than one block holds.
    rng = np.random.default_rng(3)
    log_c = rng.uniform(0.0, 0.1, size=(900, 6))
    log_t = rng.uniform(0.0, 0.1, size=(900, 6))
    blocks = list(
        matching._candidate_blocks(
            matching._band_windows(log_c, log_t, BOUND)[2], 6,
            matching.CANDIDATE_CELL_BUDGET,
        )
    )
    assert len(blocks) > 1
    accepted, n_candidates = _assert_same_as_dense(
        log_c, log_t, matching.DEFAULT_CALIPER, None
    )
    assert n_candidates * 6 > matching.CANDIDATE_CELL_BUDGET
    assert len(accepted) == 900
