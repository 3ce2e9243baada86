"""The natural-experiment study design (Sec. 2.3 of the paper).

A *natural experiment* here is a sign test over matched pairs: each pair
contributes one Bernoulli observation — whether the "treated" unit's outcome
exceeds the "control" unit's outcome. If neither variable affects the other,
treated beats control about 50% of the time; significant deviations suggest
a causal relationship. The pairs arrive as two parallel outcome arrays
(control and treatment, one entry per pair), so the holds and the ties
are one vectorized comparison each.

Two safeguards from the paper are built in:

* significance is assessed with a **one-tailed exact binomial test** at
  ``alpha = 0.05``;
* because with enough pairs even a trivially biased coin looks significant
  (the Paxson critique), deviations must additionally exceed a **practical
  margin of 2%** — the hypothesis must hold at least 52% of the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ExperimentError
from .stats import BinomialTestResult, binomial_test_greater

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_PRACTICAL_MARGIN",
    "ExperimentResult",
    "NaturalExperiment",
]

DEFAULT_ALPHA = 0.05
DEFAULT_PRACTICAL_MARGIN = 0.02


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one natural experiment, as the paper tabulates it."""

    name: str
    n_pairs: int
    n_holds: int
    n_ties: int
    p_value: float
    alpha: float
    practical_margin: float

    @property
    def fraction_holds(self) -> float:
        """'% H holds' — fraction of non-tied pairs supporting H."""
        if self.n_pairs == 0:
            return float("nan")
        return self.n_holds / self.n_pairs

    @property
    def statistically_significant(self) -> bool:
        return self.n_pairs > 0 and self.p_value < self.alpha

    @property
    def practically_important(self) -> bool:
        """Whether the deviation clears the 2% practical-importance margin."""
        return (
            self.n_pairs > 0
            and self.fraction_holds >= 0.5 + self.practical_margin
        )

    @property
    def rejects_null(self) -> bool:
        """The paper's overall verdict: significant *and* practically important."""
        return self.statistically_significant and self.practically_important

    def row(self) -> str:
        """One table row in the paper's format (asterisk = not significant)."""
        star = "" if self.statistically_significant else "*"
        return (
            f"{self.name}: {100 * self.fraction_holds:.1f}%{star} "
            f"(n={self.n_pairs}, p={self.p_value:.3g})"
        )


class NaturalExperiment:
    """A named hypothesis evaluated over matched-pair outcomes.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"(3.2, 6.4] vs (6.4, 12.8]"``).
    hypothesis:
        Human-readable statement of H (treatment outcome > control outcome).
    null_probability:
        Per-pair probability of success under H0 (0.5: pure chance).
    alpha, practical_margin:
        Significance level and minimum deviation for practical importance.
    """

    def __init__(
        self,
        name: str,
        hypothesis: str = "treatment increases the outcome",
        null_probability: float = 0.5,
        alpha: float = DEFAULT_ALPHA,
        practical_margin: float = DEFAULT_PRACTICAL_MARGIN,
    ) -> None:
        if not 0.0 < null_probability < 1.0:
            raise ExperimentError(
                f"null probability must be in (0, 1), got {null_probability}"
            )
        if not 0.0 < alpha < 1.0:
            raise ExperimentError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.0 <= practical_margin < 0.5:
            raise ExperimentError(
                f"practical margin must be in [0, 0.5), got {practical_margin}"
            )
        self.name = name
        self.hypothesis = hypothesis
        self.null_probability = null_probability
        self.alpha = alpha
        self.practical_margin = practical_margin

    def evaluate(
        self,
        control_values: Sequence[float] | np.ndarray,
        treatment_values: Sequence[float] | np.ndarray,
    ) -> ExperimentResult:
        """Run the sign test over paired outcomes: pair ``i`` is
        ``(control_values[i], treatment_values[i])``.

        H holds for a pair when the treated outcome strictly exceeds
        control's. Exact ties carry no information about the direction
        of the effect and are dropped before testing (the standard
        sign-test convention); a pair with a NaN outcome is neither, so
        it counts against H.
        """
        control = np.asarray(control_values, dtype=float)
        treatment = np.asarray(treatment_values, dtype=float)
        if control.ndim != 1 or control.shape != treatment.shape:
            raise ExperimentError(
                "control and treatment values must be 1-D and of equal length"
            )
        n_holds = int(np.count_nonzero(treatment > control))
        n_ties = int(np.count_nonzero(treatment == control))
        n_pairs = control.size - n_ties
        test: BinomialTestResult = binomial_test_greater(
            n_holds, n_pairs, self.null_probability
        )
        return ExperimentResult(
            name=self.name,
            n_pairs=n_pairs,
            n_holds=n_holds,
            n_ties=n_ties,
            p_value=test.p_value,
            alpha=self.alpha,
            practical_margin=self.practical_margin,
        )
