"""The natural-experiment framework."""

import math

import numpy as np
import pytest

from repro.core import experiments
from repro.exceptions import ExperimentError


def outcomes(pairs):
    """``(control, treatment)`` pairs as the two outcome arrays."""
    return (
        np.array([c for c, _ in pairs], dtype=float),
        np.array([t for _, t in pairs], dtype=float),
    )


class TestPairedOutcome:
    """Each pair's outcome, counted by the array sign test."""

    def test_holds_when_treatment_greater(self):
        result = experiments.NaturalExperiment("x").evaluate([1.0], [2.0])
        assert (result.n_pairs, result.n_holds, result.n_ties) == (1, 1, 0)

    def test_does_not_hold_when_smaller(self):
        result = experiments.NaturalExperiment("x").evaluate([2.0], [1.0])
        assert (result.n_pairs, result.n_holds, result.n_ties) == (1, 0, 0)

    def test_tie_detection(self):
        result = experiments.NaturalExperiment("x").evaluate([1.0], [1.0])
        assert (result.n_pairs, result.n_holds, result.n_ties) == (0, 0, 1)

    def test_signed_zeros_tie(self):
        result = experiments.NaturalExperiment("x").evaluate([0.0], [-0.0])
        assert result.n_ties == 1

    def test_nan_pair_counts_against_h(self):
        # Neither a tie nor a hold, as the per-pair comparison had it.
        result = experiments.NaturalExperiment("x").evaluate(
            [math.nan, 1.0], [1.0, math.nan]
        )
        assert (result.n_pairs, result.n_holds, result.n_ties) == (2, 0, 0)

    def test_counts_are_python_ints(self):
        result = experiments.NaturalExperiment("x").evaluate(
            *outcomes([(1, 2), (1, 1), (2, 1)])
        )
        for count in (result.n_pairs, result.n_holds, result.n_ties):
            assert type(count) is int


class TestNaturalExperiment:
    def test_counts(self):
        exp = experiments.NaturalExperiment("test")
        result = exp.evaluate(*outcomes([(1, 2), (1, 2), (2, 1), (1, 1)]))
        assert result.n_pairs == 3  # tie dropped
        assert result.n_holds == 2
        assert result.n_ties == 1
        assert result.fraction_holds == pytest.approx(2 / 3)

    def test_paper_table1_analogue(self):
        # 70.3% of 520 pairs: decisively significant and important.
        exp = experiments.NaturalExperiment("peak usage")
        result = exp.evaluate(
            *outcomes([(0, 1)] * 366 + [(1, 0)] * 154)
        )
        assert result.statistically_significant
        assert result.practically_important
        assert result.rejects_null

    def test_chance_level_not_significant(self):
        exp = experiments.NaturalExperiment("chance")
        result = exp.evaluate(*outcomes([(0, 1), (1, 0)] * 50))
        assert not result.statistically_significant
        assert not result.rejects_null

    def test_practical_margin_blocks_tiny_effects(self):
        # 51% of 100,000 pairs: statistically significant but below the
        # 2% practical margin — the Paxson critique the paper guards
        # against.
        exp = experiments.NaturalExperiment("tiny effect")
        result = exp.evaluate(
            *outcomes([(0, 1)] * 51_000 + [(1, 0)] * 49_000)
        )
        assert result.statistically_significant
        assert not result.practically_important
        assert not result.rejects_null

    def test_exactly_52_percent_is_practically_important(self):
        exp = experiments.NaturalExperiment("margin")
        result = exp.evaluate(*outcomes([(0, 1)] * 52 + [(1, 0)] * 48))
        assert result.practically_important

    def test_empty_outcomes(self):
        exp = experiments.NaturalExperiment("empty")
        result = exp.evaluate([], [])
        assert result.n_pairs == 0
        assert not result.rejects_null

    def test_all_ties(self):
        exp = experiments.NaturalExperiment("ties")
        result = exp.evaluate(*outcomes([(1, 1)] * 10))
        assert result.n_pairs == 0
        assert result.n_ties == 10

    def test_evaluate_values(self):
        exp = experiments.NaturalExperiment("values")
        result = exp.evaluate([1.0, 1.0], [2.0, 0.5])
        assert result.n_pairs == 2
        assert result.n_holds == 1

    def test_evaluate_values_length_mismatch(self):
        exp = experiments.NaturalExperiment("bad")
        with pytest.raises(ExperimentError):
            exp.evaluate([1.0], [2.0, 3.0])

    def test_evaluate_rejects_non_vectors(self):
        exp = experiments.NaturalExperiment("bad")
        with pytest.raises(ExperimentError):
            exp.evaluate(1.0, 2.0)
        with pytest.raises(ExperimentError):
            exp.evaluate([[1.0]], [[2.0]])

    def test_row_marks_insignificance(self):
        exp = experiments.NaturalExperiment("row")
        result = exp.evaluate(*outcomes([(0, 1), (1, 0)] * 10))
        assert "*" in result.row()

    def test_row_plain_when_significant(self):
        exp = experiments.NaturalExperiment("row")
        result = exp.evaluate(*outcomes([(0, 1)] * 100))
        assert "*" not in result.row()

    def test_invalid_null_probability(self):
        with pytest.raises(ExperimentError):
            experiments.NaturalExperiment("x", null_probability=1.0)

    def test_invalid_alpha(self):
        with pytest.raises(ExperimentError):
            experiments.NaturalExperiment("x", alpha=0.0)

    def test_invalid_margin(self):
        # A NaN margin fails every comparison: it used to construct, and
        # then no result could ever be practically important.
        for margin in (0.5, -0.01, math.nan):
            with pytest.raises(ExperimentError):
                experiments.NaturalExperiment("x", practical_margin=margin)

    def test_fraction_nan_when_empty(self):
        result = experiments.NaturalExperiment("x").evaluate([], [])
        assert math.isnan(result.fraction_holds)
