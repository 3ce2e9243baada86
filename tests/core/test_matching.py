"""Nearest-neighbor matching with a caliper."""

import math

import numpy as np
import pytest

from repro.core import matching
from repro.exceptions import MatchingError

from .scalar_reference import caliper_compatible


def compatible(a, b, caliper=matching.DEFAULT_CALIPER):
    """The caliper reference's verdict on ``(a, b)``, after checking
    that the matcher pairs two one-unit pools exactly when it is True."""
    verdict = caliper_compatible(a, b, caliper=caliper)
    summary = matching.match_pairs_arrays(
        [np.array([a])], [np.array([b])], caliper=caliper
    )
    assert summary.n_matched == int(verdict)
    return verdict


def rejected(a, b, caliper=matching.DEFAULT_CALIPER):
    """Both the caliper reference and the matcher reject ``(a, b)``."""
    with pytest.raises(MatchingError):
        caliper_compatible(a, b, caliper=caliper)
    with pytest.raises(MatchingError):
        matching.match_pairs_arrays(
            [np.array([a])], [np.array([b])], caliper=caliper
        )
    return True


def triples(summary):
    """The accepted pairs as ``(control, treatment, distance bits)``."""
    return list(
        zip(
            summary.control.tolist(),
            summary.treatment.tolist(),
            [d.hex() for d in summary.distance.tolist()],
        )
    )


class TestCaliperCompatible:
    def test_within_25_percent(self):
        # The paper's example: 50 ms and 62 ms are similar.
        assert compatible(50.0, 62.0)

    def test_beyond_25_percent(self):
        assert not compatible(50.0, 63.0)

    def test_symmetric(self):
        assert compatible(62.0, 50.0)

    def test_equal_values(self):
        assert compatible(3.0, 3.0)

    def test_both_zero_compatible(self):
        assert compatible(0.0, 0.0)

    def test_zero_vs_large_incompatible(self):
        assert not compatible(0.0, 1.0)

    def test_tiny_values_treated_as_zero(self):
        assert compatible(1e-9, 1e-8)

    def test_custom_caliper(self):
        assert compatible(10.0, 14.0, caliper=0.5)
        assert not compatible(10.0, 16.0, caliper=0.5)

    def test_invalid_caliper_rejected(self):
        assert rejected(1.0, 1.0, caliper=0.0)

    def test_negative_value_rejected(self):
        assert rejected(-1.0, 1.0)

    def test_nan_rejected(self):
        # NaN marks a missing covariate and must be excluded *before*
        # matching; silently falling through the comparisons would make
        # every NaN pair "incompatible" without ever surfacing the bug.
        for a, b in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
            assert rejected(a, b)


class TestFloorConstants:
    """The zero floors are pinned: analysis code imports them from here."""

    def test_loss_floor_single_source(self):
        from repro.analysis.common import CONFOUNDER_COLUMNS

        users = type("U", (), {"loss_fraction": np.array([0.0, 0.5])})()
        assert CONFOUNDER_COLUMNS["loss"](users).tolist() == [
            matching.LOSS_MATCH_FLOOR, 0.5
        ]

    def test_loss_floor_dominates_zero_floor(self):
        # The matcher floors every confounder at ZERO_FLOOR as a last
        # resort; a loss floor below it would be silently overridden.
        assert matching.LOSS_MATCH_FLOOR >= matching.ZERO_FLOOR

    def test_caliper_behavior_at_loss_floor(self):
        # Two loss-free lines floored at LOSS_MATCH_FLOOR are similar;
        # a floored line vs. 1% loss is not.
        floor = matching.LOSS_MATCH_FLOOR
        assert compatible(floor, floor)
        assert compatible(floor, floor * 1.25)
        assert not compatible(floor, floor * 1.26)
        assert not compatible(floor, 0.01)

    def test_caliper_behavior_at_zero_floor(self):
        # Values at or below ZERO_FLOOR collapse to "zero": mutually
        # compatible, incompatible with anything materially larger.
        floor = matching.ZERO_FLOOR
        assert compatible(floor, floor / 10.0)
        assert compatible(0.0, floor)
        assert compatible(floor, floor * 1.25)
        assert not compatible(floor, floor * 1.26)

    def test_pinned_values(self):
        # Regression pin: changing either floor changes which users the
        # paper's experiments can pair, so it must be a conscious edit.
        assert matching.LOSS_MATCH_FLOOR == 1e-4
        assert matching.ZERO_FLOOR == 1e-6


def by_value(unit):
    return unit["v"]


def by_weight(unit):
    return unit["w"]


class TestMatchPairs:
    def test_exact_partners_matched(self):
        control = [{"v": 1.0}, {"v": 10.0}]
        treatment = [{"v": 10.0}, {"v": 1.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 2
        for c, t in zip(summary.control, summary.treatment):
            assert control[c]["v"] == treatment[t]["v"]

    def test_caliper_blocks_distant_pairs(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 2.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 0

    def test_one_to_one_without_replacement(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 1.0}, {"v": 1.01}, {"v": 1.02}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 1

    def test_greedy_prefers_closest(self):
        control = [{"v": 1.0}]
        treatment = [{"v": 1.2}, {"v": 1.01}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert treatment[summary.treatment[0]]["v"] == 1.01

    def test_multiple_confounders_all_must_match(self):
        control = [{"v": 1.0, "w": 1.0}]
        treatment = [{"v": 1.0, "w": 5.0}, {"v": 1.1, "w": 1.1}]
        summary = matching.match_pairs(
            control, treatment, [by_value, by_weight]
        )
        assert summary.n_matched == 1
        assert treatment[summary.treatment[0]]["w"] == 1.1

    def test_empty_pools(self):
        assert matching.match_pairs([], [{"v": 1.0}], [by_value]).n_matched == 0
        assert matching.match_pairs([{"v": 1.0}], [], [by_value]).n_matched == 0

    def test_max_pairs_cap(self):
        control = [{"v": 1.0 + i * 1e-4} for i in range(10)]
        treatment = [{"v": 1.0 + i * 1e-4} for i in range(10)]
        summary = matching.match_pairs(
            control, treatment, [by_value], max_pairs=3
        )
        assert summary.n_matched == 3

    def test_deterministic(self):
        control = [{"v": 1.0 + 0.01 * i} for i in range(20)]
        treatment = [{"v": 1.0 + 0.011 * i} for i in range(20)]
        a = matching.match_pairs(control, treatment, [by_value])
        b = matching.match_pairs(control, treatment, [by_value])
        assert triples(a) == triples(b)

    def test_all_pairs_respect_caliper(self):
        control = [{"v": float(i)} for i in range(1, 50)]
        treatment = [{"v": float(i) * 1.2} for i in range(1, 50)]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched
        for c, t in zip(summary.control, summary.treatment):
            assert caliper_compatible(control[c]["v"], treatment[t]["v"])

    def test_match_rate(self):
        control = [{"v": 1.0}, {"v": 100.0}]
        treatment = [{"v": 1.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.match_rate == 1.0

    def test_no_confounders_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs([{"v": 1}], [{"v": 1}], [])

    def test_nan_confounder_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs(
                [{"v": float("nan")}], [{"v": 1.0}], [by_value]
            )

    def test_distance_is_log_scale(self):
        # 10 vs 12 (ratio 1.2) is closer than 10 vs 8 (ratio 1.25).
        control = [{"v": 10.0}]
        treatment = [{"v": 8.1}, {"v": 12.0}]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert treatment[summary.treatment[0]]["v"] == 12.0

    def test_chunked_path_equivalent(self):
        # Large-ish pools exercise the chunked candidate enumeration.
        control = [{"v": 1.0 + (i % 37) * 0.001} for i in range(300)]
        treatment = [{"v": 1.0 + (i % 41) * 0.001} for i in range(300)]
        summary = matching.match_pairs(control, treatment, [by_value])
        assert summary.n_matched == 300


def _five_confounder_pools(n=40):
    keys = ("a", "b", "c", "d", "e")
    control = [
        {k: 1.0 + ((i * 7 + j) % 11) * 0.01 for j, k in enumerate(keys)}
        for i in range(n)
    ]
    treatment = [
        {k: 1.0 + ((i * 5 + j) % 13) * 0.01 for j, k in enumerate(keys)}
        for i in range(n)
    ]
    extractors = [lambda u, k=k: u[k] for k in keys]
    return control, treatment, extractors


def _spy_blocks(monkeypatch):
    """Record the difference cells each enumeration block gathers."""
    gathered = []
    real = matching._candidate_blocks

    def spy(counts, n_confounders, cell_budget):
        for start, stop in real(counts, n_confounders, cell_budget):
            gathered.append(
                (stop - start, int(counts[start:stop].sum()) * n_confounders)
            )
            yield start, stop

    monkeypatch.setattr(matching, "_candidate_blocks", spy)
    return gathered


class TestCandidateCellBudget:
    """Peak memory of the band join is bounded by the cell budget: each
    block gathers at most CANDIDATE_CELL_BUDGET (candidate, confounder)
    difference cells, and the block size never changes the result."""

    def test_block_respects_cell_budget_five_confounders(self, monkeypatch):
        # All-identical pools: every window is the whole treatment pool,
        # so the band is the full 1,000 x 1,000 cross product — 5M cells
        # with five confounders, more than one block may hold.
        gathered = _spy_blocks(monkeypatch)
        n, n_confounders = 1_000, 5
        cols = [np.full(n, 2.0)] * n_confounders
        summary = matching.match_pairs_arrays(cols, cols, max_pairs=3)
        assert summary.n_matched == 3
        assert sum(cells for _, cells in gathered) == n * n * n_confounders
        assert len(gathered) > 1
        assert all(
            cells <= matching.CANDIDATE_CELL_BUDGET for _, cells in gathered
        )

    def test_bound_holds_across_pool_shapes(self):
        rng = np.random.default_rng(7)
        for n_rows in (1, 10, 1_000):
            for n_confounders in (1, 2, 5):
                for budget in (1, 50, 10_000):
                    counts = rng.integers(0, 40, size=n_rows)
                    blocks = list(
                        matching._candidate_blocks(
                            counts, n_confounders, budget
                        )
                    )
                    # Blocks tile the control rows in order ...
                    assert [start for start, _ in blocks] == [0] + [
                        stop for _, stop in blocks[:-1]
                    ]
                    assert blocks[-1][1] == n_rows
                    # ... and only a lone row may exceed the budget.
                    for start, stop in blocks:
                        cells = int(counts[start:stop].sum()) * n_confounders
                        assert cells <= budget or stop - start == 1

    def test_scales_inversely_with_confounder_count(self):
        # The budget counts confounder cells, not just candidate pairs.
        counts = np.full(1_000, 10)
        one = list(matching._candidate_blocks(counts, 1, 1_000))
        five = list(matching._candidate_blocks(counts, 5, 1_000))
        assert {stop - start for start, stop in one} == {100}
        assert {stop - start for start, stop in five} == {20}

    def test_floor_of_one_row(self, monkeypatch):
        # A budget below one row's window still makes progress, one
        # control row per block, and finds the same pairs.
        control, treatment, extractors = _five_confounder_pools()
        baseline = matching.match_pairs(control, treatment, extractors)
        monkeypatch.setattr(matching, "CANDIDATE_CELL_BUDGET", 1)
        gathered = _spy_blocks(monkeypatch)
        tiny = matching.match_pairs(control, treatment, extractors)
        assert {rows for rows, _ in gathered} == {1}
        assert len(gathered) == len(control)
        assert triples(tiny) == triples(baseline)

    def test_chunked_five_confounder_matching_equivalent(self, monkeypatch):
        control, treatment, extractors = _five_confounder_pools()
        baseline = matching.match_pairs(control, treatment, extractors)
        monkeypatch.setattr(matching, "CANDIDATE_CELL_BUDGET", 40)
        gathered = _spy_blocks(monkeypatch)
        chunked = matching.match_pairs(control, treatment, extractors)
        assert len(gathered) > 1
        assert triples(chunked) == triples(baseline)


class TestNonFiniteConfounders:
    """Non-finite covariates must be rejected, never silently matched.

    The original guard caught only NaN: two users whose extractor
    produced ``inf`` satisfied ``inf <= 1.25 * inf`` and were "matched"
    on a meaningless covariate. Every non-finite value now raises
    :class:`MatchingError`, from the caliper reference all the way
    through :func:`match_pairs` / :func:`match_pairs_arrays`.
    """

    NON_FINITE = (math.inf, -math.inf, math.nan)

    def test_caliper_compatible_rejects_every_non_finite_pair(self):
        for bad in self.NON_FINITE:
            for a, b in ((bad, 1.0), (1.0, bad), (bad, bad)):
                with pytest.raises(MatchingError, match="finite"):
                    caliper_compatible(a, b)

    def test_two_infinities_never_compatible(self):
        # The exact regression: inf <= 1.25 * inf is True, so the
        # ratio test alone would call two infinite covariates similar.
        with pytest.raises(MatchingError, match="finite"):
            caliper_compatible(math.inf, math.inf)

    def test_match_pairs_rejects_inf_confounder(self):
        for bad in self.NON_FINITE:
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs(
                    [{"v": bad}], [{"v": 1.0}], [by_value]
                )
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs(
                    [{"v": 1.0}], [{"v": bad}], [by_value]
                )

    def test_match_pairs_rejects_mixed_finite_and_infinite_pool(self):
        control = [{"v": 1.0}, {"v": math.inf}, {"v": 2.0}]
        with pytest.raises(MatchingError, match="invalid value"):
            matching.match_pairs(control, [{"v": 1.0}], [by_value])

    def test_match_pairs_arrays_rejects_non_finite(self):
        import numpy as np

        for bad in self.NON_FINITE:
            with pytest.raises(MatchingError, match="invalid value"):
                matching.match_pairs_arrays(
                    [np.array([1.0, bad])], [np.array([1.0, 2.0])]
                )


class TestMatchPairsArrays:
    """The object matcher is the columnar matcher on extracted columns."""

    def _pools(self, n=60):
        control, treatment, extractors = _five_confounder_pools(n)
        import numpy as np

        control_cols = [
            np.array([e(u) for u in control]) for e in extractors
        ]
        treatment_cols = [
            np.array([e(u) for u in treatment]) for e in extractors
        ]
        return control, treatment, extractors, control_cols, treatment_cols

    def test_identical_pairs_and_distances(self):
        control, treatment, extractors, ccols, tcols = self._pools()
        by_object = matching.match_pairs(control, treatment, extractors)
        by_column = matching.match_pairs_arrays(ccols, tcols)
        assert by_column.n_matched
        assert triples(by_object) == triples(by_column)
        assert by_object.n_control == by_column.n_control
        assert by_object.n_treatment == by_column.n_treatment

    def test_pairs_are_indices(self):
        import numpy as np

        summary = matching.match_pairs_arrays(
            [np.array([1.0, 50.0])], [np.array([50.0, 1.0])]
        )
        assert summary.n_matched == 2
        assert set(zip(summary.control.tolist(), summary.treatment.tolist())) == {
            (0, 1), (1, 0)
        }
        assert summary.control.dtype == summary.treatment.dtype == np.intp
        assert summary.distance.dtype == np.float64

    def test_pairs_in_acceptance_order(self):
        # Ascending distance; equal distances by control, then treatment.
        summary = matching.match_pairs_arrays(
            [np.array([10.0, 1.0, 5.0])], [np.array([5.0, 1.1, 10.5])]
        )
        assert summary.control.tolist() == [2, 0, 1]
        assert summary.treatment.tolist() == [0, 2, 1]
        assert summary.distance.tolist() == sorted(summary.distance.tolist())

    def test_empty_pool(self):
        import numpy as np

        summary = matching.match_pairs_arrays(
            [np.array([])], [np.array([1.0])]
        )
        assert summary.n_matched == 0
        assert (summary.n_control, summary.n_treatment) == (0, 1)
        assert summary.control.dtype == summary.treatment.dtype == np.intp
        assert summary.distance.dtype == np.float64
        assert summary.match_rate == 0.0

    def test_mismatched_lengths_rejected(self):
        import numpy as np

        with pytest.raises(MatchingError):
            matching.match_pairs_arrays(
                [np.array([1.0]), np.array([1.0, 2.0])],
                [np.array([1.0]), np.array([1.0])],
            )

    def test_no_confounders_rejected(self):
        with pytest.raises(MatchingError):
            matching.match_pairs_arrays([], [])


class TestLimitsChecked:
    """Both entry points check the caliper and ``max_pairs`` before
    anything else, empty pools included."""

    BAD_CALIPERS = (0.0, -0.5, -2.0, math.nan, math.inf, -math.inf, "0.25")
    BAD_MAX_PAIRS = (-1, 1.5, "3", True)

    def _entry_points(self, control, treatment):
        yield lambda **kw: matching.match_pairs(
            [{"v": v} for v in control], [{"v": v} for v in treatment],
            [by_value], **kw,
        )
        yield lambda **kw: matching.match_pairs_arrays(
            [np.array(control, dtype=float)],
            [np.array(treatment, dtype=float)], **kw,
        )

    @pytest.mark.parametrize("caliper", BAD_CALIPERS)
    @pytest.mark.parametrize("pools", [([1.0, 2.0], [1.0]), ([], [1.0]), ([], [])])
    def test_bad_caliper_rejected(self, caliper, pools):
        for match in self._entry_points(*pools):
            with pytest.raises(MatchingError, match="caliper"):
                match(caliper=caliper)

    @pytest.mark.parametrize("max_pairs", BAD_MAX_PAIRS)
    @pytest.mark.parametrize("pools", [([1.0, 2.0], [1.0]), ([], [])])
    def test_bad_max_pairs_rejected(self, max_pairs, pools):
        for match in self._entry_points(*pools):
            with pytest.raises(MatchingError, match="max_pairs"):
                match(max_pairs=max_pairs)

    def test_checked_before_the_confounder_set(self):
        with pytest.raises(MatchingError, match="caliper"):
            matching.match_pairs([], [], [], caliper=math.nan)
        with pytest.raises(MatchingError, match="caliper"):
            matching.match_pairs_arrays([], [], caliper=-1.0)

    def test_caliper_compatible_rejects_a_nan_caliper(self):
        with pytest.raises(MatchingError, match="caliper"):
            caliper_compatible(1.0, 1.0, caliper=math.nan)

    def test_valid_limits_accepted(self):
        control = [1.0, 1.1, 5.0]
        treatment = [1.05, 5.2, 9.0]
        for match in self._entry_points(control, treatment):
            assert match(caliper=np.float64(0.25)).n_matched == 2
            assert match(max_pairs=np.int64(1)).n_matched == 1
            assert match(max_pairs=0).n_matched == 0
            assert match(max_pairs=None).n_matched == 2
