"""Scalar references for the matcher's caliper and the sign test.

The library tests the caliper on whole log-space columns and counts the
sign test's holds and ties with one vectorized comparison each. The
functions here are the one-pair-at-a-time originals, kept as the
references those array paths are held to: :func:`caliper_compatible`
is the caliper on two plain floats, and :func:`sign_test` is the
original per-pair loop of ``NaturalExperiment.evaluate``.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.experiments import ExperimentResult, NaturalExperiment
from repro.core.matching import DEFAULT_CALIPER, ZERO_FLOOR, _check_limits
from repro.core.stats import binomial_test_greater
from repro.exceptions import MatchingError


def caliper_compatible(a: float, b: float, caliper: float = DEFAULT_CALIPER) -> bool:
    """Whether two confounder values are within ``caliper`` of each other.

    "Within 25% of each other" is interpreted multiplicatively and
    symmetrically: ``max(a, b) <= (1 + caliper) * min(a, b)``, after
    flooring both values at :data:`ZERO_FLOOR` so that pairs of
    effectively-zero values (e.g. two loss-free lines) are compatible.

    Non-finite confounders raise :class:`MatchingError` rather than
    falling through the comparisons: two ``inf`` values would satisfy
    ``inf <= 1.25 * inf`` and "match" despite carrying no information
    about similarity, and a NaN means an eligibility filter failed.
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


def sign_test(
    experiment: NaturalExperiment, pairs: Iterable[tuple[float, float]]
) -> ExperimentResult:
    """The sign test over ``(control, treatment)`` pairs, one pair at a
    time: a tie is dropped, and H holds when treatment > control."""
    n_holds = 0
    n_ties = 0
    n_total = 0
    for control, treatment in pairs:
        n_total += 1
        if treatment == control:
            n_ties += 1
        elif treatment > control:
            n_holds += 1
    n_pairs = n_total - n_ties
    test = binomial_test_greater(n_holds, n_pairs, experiment.null_probability)
    return ExperimentResult(
        name=experiment.name,
        n_pairs=n_pairs,
        n_holds=n_holds,
        n_ties=n_ties,
        p_value=test.p_value,
        alpha=experiment.alpha,
        practical_margin=experiment.practical_margin,
    )
