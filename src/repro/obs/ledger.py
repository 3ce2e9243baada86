"""The run ledger: spans, counters, and gauges for one pipeline run.

Every stage of the pipeline (build → sanitize → analyze) accounts for
what it did in a :class:`RunLedger` — a mergeable bag of three event
kinds:

* **counters** — monotonically added integers (users built, samples
  dropped per sanitization rule, pairs matched, experiment verdicts).
  Merging adds counts, so per-shard ledgers sum to the serial totals.
* **gauges** — point-in-time values set once per run (dataset sizes,
  pool sizes). Merging takes the union; conflicting values for the same
  key raise, which keeps merges order-independent.
* **spans** — named wall/CPU durations, each measured inside the
  process that did the work. Spans nest by path-like names
  (``"build/chunk/dasu/US/0"``) and may carry a shard label. Merging
  concatenates; serialization applies a canonical sort, so merged
  ledgers are independent of completion order. Spans are the run's
  only clock: ``repro report --profile`` renders the
  ``dag/stage/fragment/<key>`` spans with :func:`format_profile`.

Workers record into a per-process *ambient* ledger installed by
:func:`scoped` (see :func:`repro.core.executor.run_sharded`); the parent
merges the returned shard ledgers in task-submission order. Because
counters add, gauges union, and spans sort canonically, the merged
ledger is **byte-identical for any worker count** once serialized with
:meth:`RunLedger.to_jsonl` — durations, the only nondeterministic
payload, are excluded from the stream unless ``include_timings`` is
explicitly requested.

The JSONL stream is the ``repro build/report --trace`` artifact; its
counter names are documented in ``docs/METHODOLOGY.md`` §8.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import LedgerError

__all__ = [
    "RunLedger",
    "Span",
    "count",
    "current",
    "format_profile",
    "gauge",
    "scoped",
    "span",
]


@dataclass(frozen=True)
class Span:
    """One named duration, measured inside whichever process ran it."""

    name: str
    wall_s: float
    cpu_s: float
    shard: str | None = None


def _canonical_span_key(s: Span) -> tuple:
    return (s.name, s.shard or "", s.wall_s, s.cpu_s)


class RunLedger:
    """A mergeable collection of counters, gauges, and spans.

    Instances are plain picklable containers: workers build one per
    shard and ship it back through the process pool; the parent merges
    them with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.spans: list[Span] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        if int(amount) != amount:
            raise LedgerError(f"counter increments must be integers, got {amount!r}")
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; re-setting to a different value raises."""
        value = float(value)
        if name in self.gauges and self.gauges[name] != value:
            raise LedgerError(
                f"gauge {name!r} already set to {self.gauges[name]!r}, "
                f"refusing to overwrite with {value!r}"
            )
        self.gauges[name] = value

    def add_span(self, span: Span) -> None:
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, shard: str | None = None) -> Iterator[None]:
        """Record a :class:`Span` around the enclosed work."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            self.add_span(
                Span(
                    name=name,
                    wall_s=time.perf_counter() - wall0,
                    cpu_s=time.process_time() - cpu0,
                    shard=shard,
                )
            )

    @property
    def is_empty(self) -> bool:
        """Whether the ledger recorded nothing at all (the DAG store
        skips persisting empty stage shards)."""
        return not self.counters and not self.gauges and not self.spans

    # -- merging -----------------------------------------------------------

    def merge(self, other: "RunLedger") -> "RunLedger":
        """Fold ``other`` into this ledger; returns ``self``.

        Counter merging is addition, gauge merging is a union that
        rejects conflicts, and span merging is concatenation — each
        associative and (up to canonical serialization order)
        commutative, so any merge tree over the same shard ledgers
        yields the same serialized ledger.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauge(name, value)
        self.spans.extend(other.spans)
        return self

    # -- serialization -------------------------------------------------------

    def events(self, include_timings: bool = False) -> list[dict]:
        """The ledger as a deterministic, JSON-ready event list.

        Counters come first (sorted by name), then gauges (sorted by
        name), then spans (sorted by name, shard, duration). Durations
        are the only nondeterministic payload and are omitted unless
        ``include_timings`` — the default stream is **byte-stable for a
        fixed seed across any worker count**.
        """
        out: list[dict] = []
        for name in sorted(self.counters):
            out.append(
                {"type": "counter", "name": name, "value": self.counters[name]}
            )
        for name in sorted(self.gauges):
            out.append(
                {"type": "gauge", "name": name, "value": self.gauges[name]}
            )
        for s in sorted(self.spans, key=_canonical_span_key):
            event: dict = {"type": "span", "name": s.name, "shard": s.shard}
            if include_timings:
                event["wall_s"] = s.wall_s
                event["cpu_s"] = s.cpu_s
            out.append(event)
        return out

    def to_jsonl(self, include_timings: bool = False) -> str:
        """One JSON object per line, in canonical event order."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in self.events(include_timings=include_timings)
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "RunLedger":
        """Rebuild a ledger from :meth:`to_jsonl` output.

        Spans serialized without timings come back with zero durations;
        everything else round-trips exactly.
        """
        ledger = cls()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                kind = event["type"]
                if kind == "counter":
                    ledger.count(event["name"], int(event["value"]))
                elif kind == "gauge":
                    ledger.gauge(event["name"], float(event["value"]))
                elif kind == "span":
                    ledger.add_span(
                        Span(
                            name=str(event["name"]),
                            wall_s=float(event.get("wall_s", 0.0)),
                            cpu_s=float(event.get("cpu_s", 0.0)),
                            shard=event.get("shard"),
                        )
                    )
                else:
                    raise LedgerError(f"unknown event type {kind!r}")
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise LedgerError(f"bad ledger line {line_no}: {exc}") from None
        return ledger


def format_profile(
    spans: Iterable[Span], prefix: str = "", title: str = "analysis profile"
) -> str:
    """Render the spans under ``prefix`` as an aligned table.

    One row per span — ``name  wall(s)  cpu(s)``, with ``prefix``
    stripped from the name — followed by a total row summing both
    columns. Rows are sorted by *name*, never by duration: durations
    vary run to run and (under a process pool) with scheduling, so a
    duration sort would shuffle the table across ``--jobs`` values.
    With the timing columns masked, profiles of the same run are
    byte-identical for any worker count. Span durations are measured
    inside the process that ran the work, so under ``--jobs N`` the
    total can exceed the elapsed time (it is the amount of work done,
    not the time you waited).
    """
    rows = sorted(
        (s.name[len(prefix):], s.wall_s, s.cpu_s)
        for s in spans
        if s.name.startswith(prefix)
    )
    width = max([len(name) for name, _, _ in rows], default=4)
    lines = [title]
    for name, wall_s, cpu_s in rows:
        lines.append(f"  {name:<{width}}  wall {wall_s:8.3f} s  cpu {cpu_s:8.3f} s")
    total_wall = sum(wall_s for _, wall_s, _ in rows)
    total_cpu = sum(cpu_s for _, _, cpu_s in rows)
    lines.append(
        f"  {'total':<{width}}  wall {total_wall:8.3f} s  cpu {total_cpu:8.3f} s"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The ambient (per-process) ledger. Workers record through the free
# functions below; with no ledger installed they are no-ops, so
# instrumented code costs nothing on untraced runs.
# ---------------------------------------------------------------------------

_AMBIENT: RunLedger | None = None


def current() -> RunLedger | None:
    """The process's ambient ledger, or ``None`` outside :func:`scoped`."""
    return _AMBIENT


@contextmanager
def scoped(ledger: RunLedger | None = None) -> Iterator[RunLedger]:
    """Install ``ledger`` (or a fresh one) as the ambient ledger.

    Restores the previous ambient ledger on exit, so scopes nest; the
    executor opens one scope per shard task and merges the resulting
    ledgers in task-submission order.
    """
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = ledger if ledger is not None else RunLedger()
    try:
        yield _AMBIENT
    finally:
        _AMBIENT = previous


def count(name: str, amount: int = 1) -> None:
    """Add to a counter of the ambient ledger (no-op without one)."""
    if _AMBIENT is not None:
        _AMBIENT.count(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge of the ambient ledger (no-op without one)."""
    if _AMBIENT is not None:
        _AMBIENT.gauge(name, value)


@contextmanager
def span(name: str, shard: str | None = None) -> Iterator[None]:
    """Record a span into the ambient ledger (pass-through without one)."""
    if _AMBIENT is None:
        yield
        return
    with _AMBIENT.span(name, shard=shard):
        yield
