"""Statistical primitives used by the natural-experiment framework.

The one-tailed binomial test is implemented from first principles (the
binomial tail as a regularized incomplete beta function, evaluated by a
log-space continued fraction) because it is the load-bearing statistic
of the paper; the test suite cross-checks it against
``scipy.stats.binomtest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import AnalysisError

__all__ = [
    "BinomialTestResult",
    "ConfidenceInterval",
    "binomial_sf",
    "binomial_test_greater",
    "ecdf",
    "log_binomial_pmf",
    "mean_confidence_interval",
    "normal_quantile",
    "pearson_r",
    "percentile",
    "regularized_incomplete_beta",
    "spearman_r",
    "wilson_interval",
]

#: z value for a two-sided 95% normal confidence interval.
Z_95 = 1.959963984540054

# Coefficients of Acklam's rational approximation to the inverse normal
# CDF, the initial guess that one Halley step below polishes to full
# double precision.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF ``Phi^{-1}(p)`` for ``p`` in (0, 1).

    Acklam's rational approximation refined with one Halley step against
    the exact CDF (via ``erfc``), giving near machine-precision quantiles
    over the whole open interval — accurate z values for *any*
    confidence level, not just the paper's 95%.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"quantile probability must be in (0, 1), got {p}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - _ACKLAM_LOW:
        q = p - 0.5
        r = q * q
        x = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley step: e = Phi(x) - p, u = e / phi(x).
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def _z_for_level(level: float) -> float:
    """Two-sided normal z for a confidence level in (0, 1).

    The paper's 95% level returns the :data:`Z_95` constant *exactly*,
    keeping historical outputs (and the golden report) byte-stable.
    """
    if not 0.0 < level < 1.0:
        raise AnalysisError(
            f"confidence level must be in (0, 1), got {level}"
        )
    if level == 0.95:
        return Z_95
    return normal_quantile(0.5 + level / 2.0)


def log_binomial_pmf(k: int, n: int, p: float) -> float:
    """Natural log of the binomial PMF ``P[X = k]`` for ``X ~ Bin(n, p)``."""
    if not 0 <= k <= n:
        raise AnalysisError(f"k={k} outside [0, n={n}]")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"p={p} outside [0, 1]")
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    log_choose = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return log_choose + k * math.log(p) + (n - k) * math.log1p(-p)


#: Continued-fraction convergence threshold and iteration cap; 300
#: iterations is far beyond what any (a, b, x) reachable from a binomial
#: tail needs (convergence is typically < 50 iterations).
_BETACF_EPS = 3.0e-16
_BETACF_MAX_ITER = 300
_BETACF_TINY = 1.0e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz).

    Evaluates the continued fraction of DLMF 8.17.22 with the modified
    Lentz algorithm; callers must ensure ``x < (a + 1) / (a + b + 2)``
    for fast convergence (use the symmetry transform otherwise).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_TINY:
        d = _BETACF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_TINY:
            d = _BETACF_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETACF_TINY:
            c = _BETACF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise AnalysisError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``.

    The prefactor ``x^a (1-x)^b / (a B(a, b))`` is assembled in log
    space, so deep-tail values keep full relative accuracy down to the
    underflow limit of a double.
    """
    if a <= 0 or b <= 0:
        raise AnalysisError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise AnalysisError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def binomial_sf(k: int, n: int, p: float) -> float:
    """Upper tail ``P[X >= k]`` for ``X ~ Bin(n, p)``, evaluated stably.

    Uses the closed-form identity ``P[X >= k] = I_p(k, n - k + 1)``
    (regularized incomplete beta, DLMF 8.17.5) evaluated by a log-space
    continued fraction, never by complementing a floating-point lower
    tail — the complement route loses all relative accuracy exactly
    where p-values matter, in the deep tail. Unlike direct summation of
    the upper-tail PMF this is O(1) in ``n``, so p-values stay exact and
    cheap at 100k+ matched pairs; accuracy is verified against scipy in
    the test suite.
    """
    if n < 0:
        raise AnalysisError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"p={p} outside [0, 1]")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    total = regularized_incomplete_beta(float(k), float(n - k + 1), p)
    return min(1.0, max(0.0, total))


@dataclass(frozen=True)
class BinomialTestResult:
    """Outcome of a one-tailed (greater) exact binomial test."""

    n_successes: int
    n_trials: int
    null_probability: float
    p_value: float

    @property
    def fraction(self) -> float:
        """Observed success fraction; NaN when there were no trials."""
        if self.n_trials == 0:
            return math.nan
        return self.n_successes / self.n_trials

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level ``alpha``."""
        return self.p_value < alpha


def binomial_test_greater(
    n_successes: int, n_trials: int, null_probability: float = 0.5
) -> BinomialTestResult:
    """One-tailed exact binomial test, alternative "greater".

    This is the paper's significance test: under H0 the interaction between
    the two studied variables is random, so each matched pair supports the
    hypothesis with probability ``null_probability`` (0.5); the p-value is
    ``P[X >= n_successes]``.
    """
    if n_trials < 0 or n_successes < 0 or n_successes > n_trials:
        raise AnalysisError(
            f"invalid counts: {n_successes} successes of {n_trials} trials"
        )
    if n_trials == 0:
        return BinomialTestResult(0, 0, null_probability, 1.0)
    p_value = binomial_sf(n_successes, n_trials, null_probability)
    return BinomialTestResult(n_successes, n_trials, null_probability, p_value)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    center: float
    low: float
    high: float
    level: float = 0.95

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def mean_confidence_interval(
    values: Sequence[float] | np.ndarray, level: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation confidence interval for the mean.

    The default level matches the error bars of the paper's figures
    (95% CI of the mean); any level in (0, 1) is supported via
    :func:`normal_quantile`. A single observation yields a degenerate
    interval at the value.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute a confidence interval of nothing")
    z = _z_for_level(level)
    center = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(center, center, center, level)
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return ConfidenceInterval(center, center - z * sem, center + z * sem, level)


def wilson_interval(
    n_successes: int, n_trials: int, level: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Used to put uncertainty bands around the "% H holds" figures of the
    natural experiments; unlike the normal approximation it behaves at
    the edges (0%, 100%) and for small pair counts. Any level in (0, 1)
    is supported via :func:`normal_quantile`.
    """
    if n_trials <= 0 or n_successes < 0 or n_successes > n_trials:
        raise AnalysisError(
            f"invalid counts: {n_successes} of {n_trials}"
        )
    z = _z_for_level(level)
    p_hat = n_successes / n_trials
    denom = 1.0 + z * z / n_trials
    center = (p_hat + z * z / (2 * n_trials)) / denom
    half = (
        z
        * math.sqrt(
            p_hat * (1 - p_hat) / n_trials
            + z * z / (4 * n_trials * n_trials)
        )
        / denom
    )
    return ConfidenceInterval(
        center=p_hat,
        low=max(0.0, center - half),
        high=min(1.0, center + half),
        level=level,
    )


def pearson_r(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise AnalysisError("pearson_r expects two equal-length 1-D sequences")
    if xs.size < 2:
        raise AnalysisError("correlation needs at least two points")
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return math.nan
    # When one variable's variance underflows to a subnormal, the
    # division can stray outside the mathematical range; clamp.
    return float(min(1.0, max(-1.0, float(xd @ yd) / denom)))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing the mean rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_r(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation (Pearson correlation of average ranks)."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise AnalysisError("spearman_r expects two equal-length 1-D sequences")
    return pearson_r(_ranks(xs), _ranks(ys))


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), ``q`` in [0, 100].

    Bit-identical to ``np.percentile(values, q)``, NaN and signed zeros
    included, at a fraction of its cost: the same partition (numpy's
    ``kth`` set) and numpy's own ``linear`` rule. The virtual index is
    ``(n - 1) * q``, and above the last element numpy's sentinel index
    ``-1`` enters the interpolation weight. The blend is numpy's
    ``_lerp``: ``a + d*g``, or ``b - d*(1 - g)`` when ``g >= 0.5``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot take a percentile of nothing")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile must be in [0, 100], got {q}")
    if type(q) not in (int, float):
        # numpy promotes other scalar types (float32, ...) differently.
        return float(np.percentile(arr, q))
    last = arr.size - 1
    index = last * (q / 100)
    if index >= last:
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    ordered = np.partition(arr.ravel(), sorted({0, -1, lo, hi}))
    top = float(ordered[-1])
    if top != top:
        # A NaN sorts last, and numpy then returns it as the result.
        return top
    a = float(ordered[lo])
    b = float(ordered[hi])
    gamma = index - lo
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def ecdf(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted unique support ``x`` and ``P[X <= x]``.

    Used to regenerate every CDF figure in the paper. Returns a pair of
    arrays of equal length; the second is non-decreasing and ends at 1.0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise AnalysisError("cannot compute the ECDF of nothing")
    xs, counts = np.unique(arr, return_counts=True)
    return xs, np.cumsum(counts) / arr.size
