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
* **record-level** (:func:`sanitize_users`, :func:`ingest_users`) — run
  over assembled :class:`~repro.datasets.records.UserRecord` datasets:
  period dedup, NDT-failure exclusion, invalid-value exclusion, and the
  paper's minimum-observation floor per host.

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
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import DatasetError
from ..faults.injector import wrap_quantum_mbps
from .records import UserRecord

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
    "sanitize_users",
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
# Record-level rules (assembled datasets, at ingest).
# ---------------------------------------------------------------------------


def _observed_days(user: UserRecord, dasu_interval_s: float) -> float:
    """Wall-clock days of usable collection across a user's periods."""
    per_sample_s = (
        dasu_interval_s if user.source == "dasu" else _GATEWAY_INTERVAL_S
    )
    samples = sum(o.n_usage_samples for o in user.observations)
    return samples * per_sample_s / _SECONDS_PER_DAY


def _period_is_valid(obs) -> bool:
    p = obs.period
    values = (
        p.capacity_mbps, p.mean_mbps, p.peak_mbps,
        p.mean_no_bt_mbps, p.peak_no_bt_mbps,
        obs.latency_ms, obs.loss_fraction, obs.capacity_up_mbps,
    )
    if any(not math.isfinite(v) for v in values):
        return False
    return (
        p.mean_mbps >= 0 and p.peak_mbps >= 0
        and p.mean_no_bt_mbps >= 0 and p.peak_no_bt_mbps >= 0
        and obs.capacity_up_mbps > 0
    )


def sanitize_users(
    users: Sequence[UserRecord],
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
    report: SanitizationReport | None = None,
) -> tuple[list[UserRecord], SanitizationReport]:
    """Apply the paper's record-level cleaning rules to a dataset.

    Rules, in order, each accounted under its own name in the report:

    * ``duplicate_period`` — verbatim-repeated service periods (same
      network, same window) are collapsed to one;
    * ``ndt_failure`` — periods whose capacity estimate rests on fewer
      than ``min_ndt_tests`` surviving tests are excluded;
    * ``invalid_values`` — periods carrying non-finite or negative
      summary statistics are excluded (third-party data hardening);
    * ``short_observation`` — hosts with less than
      ``min_observed_days`` of total usable collection are excluded,
      as the paper filters to hosts with enough observed days.
    """
    if report is None:
        report = SanitizationReport()
    kept_users: list[UserRecord] = []
    report.users_in += len(users)
    for user in users:
        candidate = _sanitize_one(
            user,
            dasu_interval_s=dasu_interval_s,
            min_observed_days=min_observed_days,
            min_ndt_tests=min_ndt_tests,
            report=report,
        )
        if candidate is not None:
            kept_users.append(candidate)
    report.users_kept += len(kept_users)
    return kept_users, report


def _sanitize_one(
    user: UserRecord,
    *,
    dasu_interval_s: float,
    min_observed_days: float,
    min_ndt_tests: int,
    report: SanitizationReport,
) -> UserRecord | None:
    """Record-level rules for a single user; the accounting unit shared
    by the object-list and streaming columnar paths (every rule is
    strictly per-user, so the totals are identical for any batching)."""
    report.periods_in += len(user.observations)
    seen: set = set()
    kept = []
    for obs in user.observations:
        p = obs.period
        key = (p.network, p.start_day, p.end_day)
        rule = report.rule("duplicate_period")
        rule.examined += 1
        if key in seen:
            rule.dropped += 1
            continue
        seen.add(key)
        rule = report.rule("ndt_failure")
        rule.examined += 1
        if obs.n_ndt_tests < min_ndt_tests:
            rule.dropped += 1
            continue
        rule = report.rule("invalid_values")
        rule.examined += 1
        if not _period_is_valid(obs):
            rule.dropped += 1
            continue
        kept.append(obs)
    rule = report.rule("short_observation")
    rule.examined += 1
    if not kept:
        rule.dropped += 1
        return None
    candidate = (
        user
        if len(kept) == len(user.observations)
        else dataclasses.replace(user, observations=tuple(kept))
    )
    if _observed_days(candidate, dasu_interval_s) < min_observed_days:
        rule.dropped += 1
        return None
    report.periods_kept += len(kept)
    return candidate


#: Users re-columnized per batch while streaming the record-level rules.
_SANITIZE_BATCH_USERS = 1024


def sanitize_columns(
    columns,
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
    report: SanitizationReport | None = None,
):
    """Record-level cleaning over a columnar dataset.

    Streams one user at a time through the same per-user rules as
    :func:`sanitize_users` (value-identical kept set, counter-identical
    report) while holding at most ``_SANITIZE_BATCH_USERS`` survivors
    plus one :meth:`~repro.datasets.columns.UserColumns.iter_records`
    batch in memory; survivors are re-columnized batch by batch in input
    order.
    """
    from .columns import UserColumns, records_to_rows

    if report is None:
        report = SanitizationReport()
    report.users_in += columns.n_users
    parts: list[np.ndarray] = []
    batch: list[UserRecord] = []
    n_kept = 0
    for user in columns.iter_records():
        candidate = _sanitize_one(
            user,
            dasu_interval_s=dasu_interval_s,
            min_observed_days=min_observed_days,
            min_ndt_tests=min_ndt_tests,
            report=report,
        )
        if candidate is None:
            continue
        n_kept += 1
        batch.append(candidate)
        if len(batch) >= _SANITIZE_BATCH_USERS:
            parts.append(records_to_rows(batch))
            batch = []
    if batch:
        parts.append(records_to_rows(batch))
    report.users_kept += n_kept
    return UserColumns.concat(parts), report


def ingest_users(
    path,
    *,
    dasu_interval_s: float = 30.0,
    min_observed_days: float = MIN_OBSERVED_DAYS,
    min_ndt_tests: int = MIN_NDT_TESTS,
) -> tuple[list[UserRecord], SanitizationReport]:
    """Hardened dataset ingest: lenient CSV read plus record sanitization.

    Unlike :func:`repro.datasets.io.read_users_csv` (which raises on the
    first malformed row), rows or users that fail to parse or validate
    are dropped and accounted under the ``malformed_row`` rule, then the
    surviving records go through :func:`sanitize_users`. This is the
    entry point for third-party datasets of unknown hygiene.
    """
    from .io import read_users_csv

    report = SanitizationReport()
    errors: list[str] = []
    users = read_users_csv(path, errors=errors)
    rule = report.rule("malformed_row")
    rule.examined += len(users) + len(errors)
    rule.dropped += len(errors)
    return sanitize_users(
        users,
        dasu_interval_s=dasu_interval_s,
        min_observed_days=min_observed_days,
        min_ndt_tests=min_ndt_tests,
        report=report,
    )
