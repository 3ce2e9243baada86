"""Hardened ingest: the data-cleaning stage of the pipeline.

The paper does not analyze raw collections — it filters to hosts with
enough clean observation, repairs UPnP counter artifacts (Sec. 2.1,
citing DiCioccio et al.), and excludes failed performance tests before
any experiment runs. This module is that stage for the reproduction:
every rule maps to one of the paper's cleaning steps, operates on dirty
(possibly fault-injected, possibly third-party) data, and accounts for
what it did in a per-rule :class:`SanitizationReport`.

Two layers:

* **sample-level** (:func:`sanitize_samples`, :func:`strip_sentinels`,
  :func:`repair_wraps`, :func:`dedup_samples`) — run inside the world
  builder between collection and summarization, where the per-interval
  rate samples still exist;
* **record-level** (:func:`sanitize_columns`, :func:`ingest_users`) —
  run over assembled datasets (:class:`~repro.datasets.columns.
  UserColumns`) as row masks plus per-user reductions: period dedup,
  NDT-failure exclusion, invalid-value exclusion, and the paper's
  minimum-observation floor per host.

The ``-1`` sentinel convention of
:func:`repro.measurement.upnp.deltas_from_readings` and
:func:`repro.measurement.netstat.deltas_from_netstat` is owned here:
:func:`strip_sentinels` is the one place sentinel-flagged samples are
dropped, and the builder routes every faulted collection through it, so
sentinels can never reach a
:class:`~repro.core.metrics.DemandSummary`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DatasetError
from ..faults.injector import wrap_quantum_mbps
from .columns import ROW_DTYPE, UserColumns

__all__ = [
    "MIN_NDT_TESTS",
    "MIN_OBSERVED_DAYS",
    "RuleStats",
    "SanitizationReport",
    "dedup_samples",
    "ingest_users",
    "repair_wraps",
    "sanitize_columns",
    "sanitize_samples",
    "strip_sentinels",
]

#: Minimum surviving NDT tests for a period's capacity estimate to be
#: trusted (the paper excludes vantages whose tests failed).
MIN_NDT_TESTS = 3
#: Minimum total observed days per host. Chosen to sit just below the
#: cleanest possible Dasu period (150 samples x 30 s = 0.052 days), so
#: the rule never drops an unfaulted host but removes hosts whose
#: collections were gutted by churn, drops, or gaps.
MIN_OBSERVED_DAYS = 0.05
#: Seconds of wall clock one FCC gateway record covers.
_GATEWAY_INTERVAL_S = 3600.0
_SECONDS_PER_DAY = 86400.0


# ---------------------------------------------------------------------------
# The report.
# ---------------------------------------------------------------------------


@dataclass
class RuleStats:
    """What one cleaning rule did: inspected, fixed in place, removed."""

    examined: int = 0
    repaired: int = 0
    dropped: int = 0

    def merge(self, other: "RuleStats") -> None:
        self.examined += other.examined
        self.repaired += other.repaired
        self.dropped += other.dropped


@dataclass
class SanitizationReport:
    """Per-rule accounting of one sanitization pass (mergeable)."""

    rules: dict[str, RuleStats] = field(default_factory=dict)
    users_in: int = 0
    users_kept: int = 0
    periods_in: int = 0
    periods_kept: int = 0
    samples_in: int = 0
    samples_kept: int = 0

    def rule(self, name: str) -> RuleStats:
        return self.rules.setdefault(name, RuleStats())

    def merge(self, other: "SanitizationReport") -> None:
        for name, stats in other.rules.items():
            self.rule(name).merge(stats)
        self.users_in += other.users_in
        self.users_kept += other.users_kept
        self.periods_in += other.periods_in
        self.periods_kept += other.periods_kept
        self.samples_in += other.samples_in
        self.samples_kept += other.samples_kept

    @property
    def total_repaired(self) -> int:
        return sum(s.repaired for s in self.rules.values())

    @property
    def total_dropped(self) -> int:
        return sum(s.dropped for s in self.rules.values())

    def ledger_counters(self) -> dict[str, int]:
        """The report as run-ledger counters (``sanitize.*`` namespace).

        This is the bridge between the sanitization stage and the
        observability layer: the builder records exactly these counters
        into the run ledger, so a ``--trace`` stream's ``sanitize.*``
        counts always equal the :class:`SanitizationReport` the same
        build printed and persisted (``sanitization.json``).
        """
        counters = {
            "sanitize.users.in": self.users_in,
            "sanitize.users.kept": self.users_kept,
            "sanitize.periods.in": self.periods_in,
            "sanitize.periods.kept": self.periods_kept,
            "sanitize.samples.in": self.samples_in,
            "sanitize.samples.kept": self.samples_kept,
        }
        for name, stats in self.rules.items():
            counters[f"sanitize.rule.{name}.examined"] = stats.examined
            counters[f"sanitize.rule.{name}.repaired"] = stats.repaired
            counters[f"sanitize.rule.{name}.dropped"] = stats.dropped
        return counters

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_payload`)."""
        payload = dataclasses.asdict(self)
        payload["rules"] = {
            name: dataclasses.asdict(stats)
            for name, stats in self.rules.items()
        }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SanitizationReport":
        rules = {
            str(name): RuleStats(**stats)
            for name, stats in dict(payload.get("rules", {})).items()
        }
        return cls(
            rules=rules,
            users_in=int(payload.get("users_in", 0)),
            users_kept=int(payload.get("users_kept", 0)),
            periods_in=int(payload.get("periods_in", 0)),
            periods_kept=int(payload.get("periods_kept", 0)),
            samples_in=int(payload.get("samples_in", 0)),
            samples_kept=int(payload.get("samples_kept", 0)),
        )

    def format(self) -> str:
        """An aligned per-rule table plus the kept/in totals."""
        lines = [
            "sanitization report ("
            f"users {self.users_kept}/{self.users_in}, "
            f"periods {self.periods_kept}/{self.periods_in}, "
            f"samples {self.samples_kept}/{self.samples_in} kept)"
        ]
        width = max([len(n) for n in self.rules], default=4)
        header = f"  {'rule':<{width}}  {'examined':>9}  {'repaired':>9}  {'dropped':>9}"
        lines.append(header)
        for name in sorted(self.rules):
            s = self.rules[name]
            lines.append(
                f"  {name:<{width}}  {s.examined:>9}  {s.repaired:>9}  {s.dropped:>9}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sample-level rules (per-interval rates, inside the builder).
# ---------------------------------------------------------------------------

_Arrays = tuple[np.ndarray, np.ndarray, np.ndarray, "np.ndarray | None"]


def repair_wraps(
    rates: np.ndarray,
    counter_interval_s: float,
    report: SanitizationReport | None = None,
) -> np.ndarray:
    """Repair rates inflated by uncorrected uint32 counter wraps.

    A sample whose implied per-interval volume reaches 2^32 bytes is
    physically impossible for a 32-bit counter read — the client's wrap
    correction missed one (or more) wraps. Subtracting whole wrap quanta
    recovers the true rate exactly up to float rounding (the subtraction
    itself is exact by the Sterbenz lemma; the residual error is the
    rounding of the original corruption, below 1e-9 Mbps).
    """
    if counter_interval_s <= 0:
        raise DatasetError("counter interval must be positive")
    quantum = wrap_quantum_mbps(counter_interval_s)
    rates = np.asarray(rates, dtype=float)
    wrapped = rates >= quantum
    if not np.any(wrapped):
        return rates
    out = rates.copy()
    out[wrapped] -= np.floor(out[wrapped] / quantum) * quantum
    if report is not None:
        report.rule("counter_wrap").repaired += int(np.sum(wrapped))
    return out


def strip_sentinels(
    rates: np.ndarray,
    bt_active: np.ndarray,
    hours: np.ndarray,
    up_rates: np.ndarray | None,
    report: SanitizationReport | None = None,
) -> _Arrays:
    """Drop samples flagged unusable by the ``-1`` sentinel convention.

    This is the *only* stage that drops sentinel-flagged samples; the
    builder routes every fault-injected collection through it before any
    :func:`~repro.core.metrics.demand_summary` call.
    """
    bad = np.asarray(rates) < 0
    if up_rates is not None:
        bad = bad | (np.asarray(up_rates) < 0)
    if report is not None:
        report.rule("counter_reset").examined += int(bad.size)
    if not np.any(bad):
        return rates, bt_active, hours, up_rates
    keep = ~bad
    if report is not None:
        report.rule("counter_reset").dropped += int(np.sum(bad))
    return (
        rates[keep],
        bt_active[keep],
        hours[keep],
        None if up_rates is None else up_rates[keep],
    )


def dedup_samples(
    rates: np.ndarray,
    bt_active: np.ndarray,
    hours: np.ndarray,
    up_rates: np.ndarray | None,
    report: SanitizationReport | None = None,
) -> _Arrays:
    """Collapse runs of verbatim-repeated samples to their first copy.

    A genuine duplicate (double-fired read, upload retry) repeats rate
    *and* timestamp exactly; distinct samples always differ in
    timestamp, so the rule cannot eat real data. Run-collapsing makes
    the operation idempotent.
    """
    n = int(np.asarray(rates).size)
    if report is not None:
        report.rule("duplicate_sample").examined += n
    if n < 2:
        return rates, bt_active, hours, up_rates
    same = (
        (rates[1:] == rates[:-1])
        & (hours[1:] == hours[:-1])
        & (bt_active[1:] == bt_active[:-1])
    )
    if up_rates is not None:
        same = same & (up_rates[1:] == up_rates[:-1])
    if not np.any(same):
        return rates, bt_active, hours, up_rates
    keep = np.concatenate(([True], ~same))
    if report is not None:
        report.rule("duplicate_sample").dropped += int(np.sum(same))
    return (
        rates[keep],
        bt_active[keep],
        hours[keep],
        None if up_rates is None else up_rates[keep],
    )


def sanitize_samples(
    rates: np.ndarray,
    bt_active: np.ndarray,
    hours: np.ndarray,
    up_rates: np.ndarray | None,
    *,
    counter_interval_s: float | None = None,
    report: SanitizationReport | None = None,
) -> _Arrays:
    """Full sample-level pass: wrap repair, sentinel strip, dedup.

    ``counter_interval_s`` is the accounting interval of the source's
    *32-bit* counters; pass ``None`` for collectors without them (the
    FCC gateways), which disables wrap repair — an hourly record above
    the hourly wrap quantum is a legitimate fast line, not a wrap.

    The pass is idempotent: repaired rates sit below the wrap quantum,
    stripped arrays have no sentinels left, and run-collapsed arrays
    have no adjacent verbatim repeats.
    """
    if report is not None:
        report.samples_in += int(np.asarray(rates).size)
        report.rule("counter_wrap").examined += int(np.asarray(rates).size)
    if counter_interval_s is not None:
        rates = repair_wraps(rates, counter_interval_s, report)
    rates, bt_active, hours, up_rates = strip_sentinels(
        rates, bt_active, hours, up_rates, report
    )
    rates, bt_active, hours, up_rates = dedup_samples(
        rates, bt_active, hours, up_rates, report
    )
    if report is not None:
        report.samples_kept += int(np.asarray(rates).size)
    return rates, bt_active, hours, up_rates


# ---------------------------------------------------------------------------
# Record-level rules (assembled datasets, as row masks).
# ---------------------------------------------------------------------------

#: Summary values that must be finite for a period to count.
_FINITE_FIELDS = (
    "capacity_mbps", "mean_mbps", "peak_mbps", "mean_no_bt_mbps",
    "peak_no_bt_mbps", "latency_ms", "loss_fraction", "capacity_up_mbps",
)
#: What makes two periods of one user the same period.
_PERIOD_KEY = ("isp", "prefix", "city", "start_day", "end_day")


def _duplicate_periods(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Rows repeating an earlier row of the same user: same network and
    a window equal under float ``==`` (``-0.0`` equals ``0.0``; a NaN
    day equals nothing, so such a row is never a duplicate)."""
    key = np.empty(
        rows.size, dtype=[("user", "i8")] + [(f, ROW_DTYPE[f]) for f in _PERIOD_KEY]
    )
    key["user"] = owner
    for field in _PERIOD_KEY:
        key[field] = rows[field]
    # A stable sort compares fields with float semantics, so equal keys
    # end up adjacent with the earliest row first.
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    duplicate = np.zeros(rows.size, dtype=bool)
    duplicate[order[1:][ordered[1:] == ordered[:-1]]] = True
    return duplicate


def _valid_periods(rows: np.ndarray) -> np.ndarray:
    """Rows whose summaries are finite and non-negative, with a positive
    upload capacity."""
    valid = np.logical_and.reduce([np.isfinite(rows[f]) for f in _FINITE_FIELDS])
    for field in ("mean_mbps", "peak_mbps", "mean_no_bt_mbps", "peak_no_bt_mbps"):
        valid &= rows[field] >= 0
    return valid & (rows["capacity_up_mbps"] > 0)


def sanitize_columns(
    columns: UserColumns,
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
    report: SanitizationReport | None = None,
) -> tuple[UserColumns, SanitizationReport]:
    """Apply the paper's record-level cleaning rules to a dataset.

    Rules, in order, each accounted under its own name in the report:

    * ``duplicate_period`` — verbatim-repeated service periods (same
      network, same window) are collapsed to one;
    * ``ndt_failure`` — periods whose capacity estimate rests on fewer
      than ``min_ndt_tests`` surviving tests are excluded;
    * ``invalid_values`` — periods carrying non-finite or negative
      summary statistics are excluded (third-party data hardening);
    * ``short_observation`` — hosts with no period left, or with less
      than ``min_observed_days`` of total usable collection, are
      excluded, as the paper filters to hosts with enough observed days.

    Each period rule examines the rows the rules before it kept; the
    host rule reduces the kept rows per user. Kept rows stay in input
    order. Every rule is per-user, so cleaning blocks of users
    separately and merging the reports equals one pass over all of them.
    """
    if report is None:
        report = SanitizationReport()
    n_users = columns.n_users
    report.users_in += n_users
    if not n_users:
        return columns, report
    rows = columns.rows
    starts, counts = columns.user_starts, columns.user_counts
    owner = np.repeat(np.arange(n_users), counts)

    duplicate = _duplicate_periods(rows, owner)
    ndt_failed = ~duplicate & (rows["n_ndt_tests"] < min_ndt_tests)
    checked = ~duplicate & ~ndt_failed
    invalid = checked & ~_valid_periods(rows)
    kept_rows = checked & ~invalid

    per_sample_s = np.where(
        columns.source_mask("dasu"), dasu_interval_s, _GATEWAY_INTERVAL_S
    )
    samples = np.add.reduceat(np.where(kept_rows, rows["n_usage_samples"], 0), starts)
    observed_days = samples * per_sample_s / _SECONDS_PER_DAY
    kept_users = np.add.reduceat(kept_rows.astype(np.int64), starts) > 0
    kept_users &= ~(observed_days < min_observed_days)
    keep = kept_rows & np.repeat(kept_users, counts)

    report.periods_in += int(rows.size)
    _account(report, "duplicate_period", rows.size, duplicate)
    _account(report, "ndt_failure", rows.size - int(duplicate.sum()), ndt_failed)
    if checked.any():  # a rule no period reached stays out of the report
        _account(report, "invalid_values", int(checked.sum()), invalid)
    _account(report, "short_observation", n_users, ~kept_users)
    report.periods_kept += int(keep.sum())
    report.users_kept += int(kept_users.sum())
    return UserColumns(rows[keep]), report


def _account(
    report: SanitizationReport, name: str, examined: int, dropped: np.ndarray
) -> None:
    rule = report.rule(name)
    rule.examined += int(examined)
    rule.dropped += int(dropped.sum())


def ingest_users(
    path,
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
) -> tuple[UserColumns, SanitizationReport]:
    """Hardened dataset ingest: lenient CSV read plus record sanitization.

    Unlike :func:`repro.datasets.io.read_users_csv` (which raises on the
    first malformed row), rows or users that fail to parse or validate
    are dropped and accounted under the ``malformed_row`` rule, then the
    surviving users go through :func:`sanitize_columns`. This is the
    entry point for third-party datasets of unknown hygiene.
    """
    from .io import read_users_csv

    report = SanitizationReport()
    errors: list[str] = []
    columns = read_users_csv(path, errors=errors)
    rule = report.rule("malformed_row")
    rule.examined += columns.n_users + len(errors)
    rule.dropped += len(errors)
    return sanitize_columns(
        columns,
        dasu_interval_s=dasu_interval_s,
        min_observed_days=min_observed_days,
        min_ndt_tests=min_ndt_tests,
        report=report,
    )
