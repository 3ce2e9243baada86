"""Core analysis toolkit: the paper's primary methodological contribution.

This package implements the statistical machinery of Bischof et al. (IMC'14):

* :mod:`repro.core.stats` — exact one-tailed binomial tests, correlation,
  confidence intervals and empirical CDFs;
* :mod:`repro.core.binning` — the paper's exponential capacity classes and
  the various tier/price/quality bins used throughout the evaluation;
* :mod:`repro.core.metrics` — mean and peak (95th-percentile) demand and
  link-utilization summaries;
* :mod:`repro.core.matching` — nearest-neighbor matching with a relative
  caliper, used to pair "similar" users across treatment groups; the
  pairs come back as index arrays into the two pools;
* :mod:`repro.core.experiments` — the natural-experiment study design
  (hypothesis, %-holds, p-value, practical-significance margin), a sign
  test over two parallel outcome arrays;
* :mod:`repro.core.upgrades` — detection of per-user service switches and
  before/after demand deltas;
* :mod:`repro.core.regression` — per-market price~capacity regression used
  to estimate the cost of increasing capacity;
* :mod:`repro.core.executor` — deterministic sharded execution across
  worker processes (used by the world builder).
"""

from .binning import (
    CAPACITY_CLASS_BASE_MBPS,
    CASE_STUDY_TIERS,
    Bin,
    BinSpec,
    capacity_class,
    capacity_class_bounds,
    capacity_class_spec,
    explicit_bins,
    geometric_bins,
)
from .executor import resolve_jobs, run_sharded
from .experiments import ExperimentResult, NaturalExperiment
from .matching import MatchingSummary, match_pairs
from .metrics import DemandSummary, demand_summary, peak_demand, utilization
from .qed import QedResult, QuasiExperiment
from .regression import MarketRegression, fit_price_capacity
from .stats import (
    BinomialTestResult,
    ConfidenceInterval,
    binomial_test_greater,
    ecdf,
    mean_confidence_interval,
    pearson_r,
    percentile,
    spearman_r,
    wilson_interval,
)
from .upgrades import ServiceSwitch, UpgradeObservation, detect_switches

__all__ = [
    "CAPACITY_CLASS_BASE_MBPS",
    "CASE_STUDY_TIERS",
    "Bin",
    "BinSpec",
    "BinomialTestResult",
    "ConfidenceInterval",
    "DemandSummary",
    "ExperimentResult",
    "MarketRegression",
    "MatchingSummary",
    "NaturalExperiment",
    "QedResult",
    "QuasiExperiment",
    "ServiceSwitch",
    "UpgradeObservation",
    "binomial_test_greater",
    "capacity_class",
    "capacity_class_bounds",
    "capacity_class_spec",
    "demand_summary",
    "detect_switches",
    "ecdf",
    "explicit_bins",
    "fit_price_capacity",
    "geometric_bins",
    "match_pairs",
    "mean_confidence_interval",
    "peak_demand",
    "pearson_r",
    "percentile",
    "resolve_jobs",
    "run_sharded",
    "spearman_r",
    "utilization",
    "wilson_interval",
]
