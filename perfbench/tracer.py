"""Layer tracing from outside the program.

The benchmark never edits ``src/``. A traced run instead wraps the
public entry points of each layer (table ``LAYERS``) in the process
that runs them: module-level functions are replaced in their defining
module *and* in every ``repro`` module that imported them by name,
methods are replaced on their class, and registry dicts (report
fragments, sweep experiments) get wrapped values. Each call becomes a
span ``[layer, start, end, parent, run_id]`` kept in memory; the span
list is written out once, when the traced process ends.

Worker processes: ``repro.core.executor.run_sharded`` forks its pool
workers, so they inherit the wrappers. At the end of every pool task
the worker's new spans and counts ride home as an extra attribute on
the task's shard ``RunLedger`` -- the same object ``run_sharded``
already ships back -- and the parent adopts them, remapping parent
indices. Worker spans keep the parent span that was open when the pool
forked, so self times stay causal across processes.

A layer's time is the sum of its spans' self times: span duration
minus the union of the intervals its child spans cover. Child spans
from parallel workers overlap, hence the union. Layer times are busy
times summed over processes, so with ``jobs=2`` they can exceed wall
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Attribute carrying a worker task's spans home on its shard ledger.
_SHIPPED = "_perfbench_spans"

#: (module, attribute, layer) for module-level functions.
FUNCTIONS = (
    ("repro.traffic.generator", "generate_usage_series", "traffic"),
    ("repro.core.metrics", "demand_summary", "core.metrics"),
    ("repro.datasets.records", "hourly_profile", "datasets.records"),
    ("repro.datasets.sanitize", "sanitize_samples", "datasets.sanitize.samples"),
    ("repro.datasets.sanitize", "sanitize_columns", "datasets.sanitize.columns"),
    ("repro.datasets.columns", "records_to_rows", "datasets.columns.to_rows"),
    # The per-user body of UserColumns.iter_records/to_records and
    # rows_to_records; iter_records itself is a generator.
    ("repro.datasets.columns", "_record_from_rows", "datasets.columns.to_records"),
    ("repro.datasets.builder", "build_world", "datasets.builder"),
    ("repro.datasets.append", "append_world", "datasets.append"),
    ("repro.core.matching", "match_pairs", "core.matching"),
    ("repro.core.matching", "match_pairs_arrays", "core.matching"),
    ("repro.core.binning", "capacity_class", "core.binning"),
    ("repro.core.stats", "binomial_test_greater", "core.stats"),
    ("repro.core.stats", "binomial_sf", "core.stats"),
    ("repro.core.stats", "mean_confidence_interval", "core.stats"),
    ("repro.core.stats", "wilson_interval", "core.stats"),
    ("repro.core.stats", "pearson_r", "core.stats"),
    ("repro.core.stats", "spearman_r", "core.stats"),
    ("repro.core.stats", "percentile", "core.stats"),
    ("repro.core.stats", "ecdf", "core.stats"),
    ("repro.analysis.iqb", "score_columns", "analysis.iqb"),
    ("repro.analysis.iqb", "market_barometer", "analysis.iqb"),
    ("repro.analysis.iqb", "iqb_experiment", "analysis.iqb"),
    ("repro.analysis.iqb", "format_iqb_report", "analysis.iqb"),
    ("repro.analysis.iqb", "iqb_payload", "analysis.iqb"),
    ("repro.analysis.paper_report", "full_report", "analysis.assemble"),
    ("repro.analysis.paper_report", "section_reports", "analysis.assemble"),
    ("repro.analysis.paper_report", "assemble_report", "analysis.assemble"),
    ("repro.dag.schedule", "run_dag", "dag.run"),
    ("repro.dag.schedule", "_execute_stage", "dag.stage"),
)

#: (module, class, method, layer) for methods, patched on the class.
METHODS = (
    ("repro.behavior.population", "PopulationModel", "sample_user", "behavior"),
    ("repro.behavior.choice", "ChoiceModel", "choose", "behavior"),
    ("repro.behavior.upgrades", "UpgradePolicy", "review", "behavior"),
    ("repro.behavior.demand", "DemandProcess", "for_user", "behavior"),
    ("repro.measurement.dasu", "DasuClient", "collect", "measurement.dasu"),
    ("repro.measurement.gateway", "FccGateway", "collect", "measurement.gateway"),
    ("repro.measurement.ndt", "NdtClient", "run_tests", "measurement.ndt"),
    ("repro.faults.injector", "FaultInjector", "household_lost", "faults"),
    ("repro.faults.injector", "FaultInjector", "perturb_panel", "faults"),
    ("repro.faults.injector", "FaultInjector", "perturb_dasu_samples", "faults"),
    ("repro.faults.injector", "FaultInjector", "perturb_gateway_samples", "faults"),
    ("repro.faults.injector", "FaultInjector", "perturb_ndt", "faults"),
    ("repro.datasets.builder", "_CountrySimulator", "simulate_user", "datasets.builder"),
    ("repro.datasets.columns", "UserColumns", "concat", "datasets.columns.concat"),
    ("repro.core.binning", "BinSpec", "group", "core.binning"),
    ("repro.core.binning", "BinSpec", "index_of_array", "core.binning"),
    ("repro.datasets.cache", "WorldCache", "store", "datasets.cache.store"),
    ("repro.datasets.cache", "WorldCache", "load", "datasets.cache.load"),
    ("repro.dag.store", "DagStore", "store", "dag.store.store"),
    ("repro.dag.store", "DagStore", "load", "dag.store.load"),
    ("repro.service.report", "ReportService", "refresh", "service.refresh"),
    ("repro.service.report", "ReportService", "append", "service.append"),
    ("repro.service.server", "_Handler", "do_GET", "service.handler"),
)

#: Registry dicts whose values are wrapped one layer per key.
REGISTRIES = (
    ("repro.analysis.paper_report", "_FRAGMENTS", "analysis.fragment"),
    ("repro.sweep.runners", "_RUNNERS", "sweep.experiment"),
)


def _dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _count_matching(tracer, args, kwargs, summary) -> None:
    tracer.count("core.matching.calls")
    tracer.count("core.matching.pairs", summary.n_matched)
    tracer.count(
        "core.matching.smaller_pool", min(summary.n_control, summary.n_treatment)
    )


def _count_household(tracer, args, kwargs, outcome) -> None:
    tracer.count("datasets.builder.households")
    if outcome is not None:
        tracer.count("datasets.builder.kept")
        record = outcome[0]
        if record.source == "dasu":
            tracer.count("datasets.periods.dasu", len(record.observations))


def _count_cache_bytes(tracer, args, kwargs, entry) -> None:
    if entry is not None:
        tracer.count("datasets.cache.store.bytes", _dir_bytes(entry))


def _count_dag_bytes(tracer, args, kwargs, entry) -> None:
    tracer.count("dag.store.bytes", _dir_bytes(entry))


def _count_dag_run(tracer, args, kwargs, result) -> None:
    tracer.count("dag.stages.executed", len(result.executed))
    tracer.count("dag.stages.cached", len(result.cached))


def _count_append(tracer, args, kwargs, result) -> None:
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    tracer.count("datasets.append.households", delta.n_dasu_users + delta.n_fcc_users)


RESULT_HOOKS = {
    "match_pairs": _count_matching,
    "match_pairs_arrays": _count_matching,
    "simulate_user": _count_household,
    ("WorldCache", "store"): _count_cache_bytes,
    ("DagStore", "store"): _count_dag_bytes,
    "run_dag": _count_dag_run,
    "append_world": _count_append,
}


class Tracer:
    """Spans and counts of one traced process, kept in memory.

    Counts are timestamped events so that a reader can window them
    the same way as spans (the service daemon counts its warm start
    too, which the serve-ingest window excludes).
    """

    def __init__(self, run_id: str) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.events: list[tuple[float, str, int]] = []
        #: Names the traced operation; every span carries it.
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        # Set in a forked pool worker: its pid and the span/event list
        # lengths inherited from the parent at fork time.
        self._worker: tuple[int, int, int] | None = None

    def count(self, name: str, amount: int = 1) -> None:
        self.events.append((time.perf_counter(), name, int(amount)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [layer, time.perf_counter(), None,
                      stack[-1] if stack else None, self.run_id]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    # -- worker shipping -------------------------------------------------

    def enter_worker(self) -> None:
        """In a forked pool worker, before a task: remember the
        inherited prefix so only this worker's own records ship."""
        if self._worker is None or self._worker[0] != os.getpid():
            self._worker = (os.getpid(), len(self.spans), len(self.events))

    def take_worker_spans(self):
        """In a forked pool worker, after a task: hand over (and forget)
        the task's spans and count events."""
        _pid, span_base, event_base = self._worker
        shipped = (span_base, self.spans[span_base:], self.events[event_base:])
        del self.spans[span_base:]
        del self.events[event_base:]
        return shipped

    def adopt(self, shipped) -> None:
        """In the parent: append a worker task's spans, remapping the
        worker-local parent indices past the fork-time prefix."""
        base, spans, events = shipped
        with self._lock:
            offset = len(self.spans) - base
            for layer, start, end, parent, run_id in spans:
                if parent is not None and parent >= base:
                    parent += offset
                self.spans.append([layer, start, end, parent, run_id])
        self.events.extend(events)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point listed above."""
        modules = {
            name: importlib.import_module(name)
            for name in {m for m, *_ in FUNCTIONS + METHODS + REGISTRIES}
        }
        importlib.import_module("repro.cli")
        importlib.import_module("repro.sweep.engine")
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(layer, original, RESULT_HOOKS.get(attr))
            _replace_everywhere(original, wrapper)
        for module_name, cls_name, attr, layer in METHODS:
            cls = getattr(modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            hook = RESULT_HOOKS.get((cls_name, attr), RESULT_HOOKS.get(attr))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__, hook)))
            else:
                setattr(cls, attr, self.wrap(layer, raw, hook))
        for module_name, attr, prefix in REGISTRIES:
            registry = getattr(modules[module_name], attr)
            for key, fn in list(registry.items()):
                registry[key] = self.wrap(f"{prefix}.{key}", fn)
        self._install_shipping()

    def _install_shipping(self) -> None:
        executor = importlib.import_module("repro.core.executor")
        tracer = self
        original_call = executor._LedgeredWorker.__call__

        def call(worker_self, task):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                tracer.enter_worker()
            result, shard = original_call(worker_self, task)
            if in_worker:
                setattr(shard, _SHIPPED, tracer.take_worker_spans())
            return result, shard

        executor._LedgeredWorker.__call__ = call
        original = executor.run_sharded

        @functools.wraps(original)
        def run_sharded(worker, tasks, *, ledger=None, with_ledgers=False,
                        on_result=None, **kwargs):
            # Always keep shards so worker spans can come home; hand the
            # caller exactly the shape it asked for.
            keep = with_ledgers or ledger is not None
            forward = None
            if on_result is not None:
                def forward(index, outcome):
                    on_result(index, outcome if keep else outcome[0])
            raw = original(worker, tasks, ledger=ledger, with_ledgers=True,
                           on_result=forward, **kwargs)
            for _, shard in raw:
                shipped = shard.__dict__.pop(_SHIPPED, None)
                if shipped is not None:
                    tracer.adopt(shipped)
            return raw if with_ledgers else [result for result, _ in raw]

        _replace_everywhere(original, run_sharded)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module attribute bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# Reading spans back.
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_self_times(spans, window=None) -> dict[str, float]:
    """Sum of self time per layer, optionally only for spans starting
    inside ``window`` = (start, end) on the shared monotonic clock."""
    children = defaultdict(list)
    for layer, start, end, parent, _run in spans:
        if end is not None and parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (layer, start, end, _parent, _run) in enumerate(spans):
        if end is None:
            continue
        if window is not None and not (window[0] <= start <= window[1]):
            continue
        covered = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        totals[layer] += (end - start) - _union_length(covered)
    return totals


def _in(window, t) -> bool:
    return window is None or window[0] <= t <= window[1]


def _intervals(spans, layer, window=None) -> list[tuple[float, float]]:
    return [
        (start, end)
        for name, start, end, _parent, _run in spans
        if name == layer and end is not None and _in(window, start)
    ]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, events, *, window=None, ops: int = 1) -> dict[str, float]:
    """Per-layer metrics of ``ops`` operations' worth of spans.

    Times, counts and bytes are per operation; ratios are taken over
    the whole window. Layers that never ran are simply absent.
    """
    out: dict[str, float] = {}
    for layer, seconds in layer_self_times(spans, window).items():
        name = "dag.run.overhead_s" if layer == "dag.run" else f"{layer}.s"
        out[name] = seconds / ops
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _parent, _run in spans:
        if end is not None and _in(window, start):
            calls[name] += 1
    counted: dict[str, int] = defaultdict(int)
    for t, name, amount in events:
        if _in(window, t):
            counted[name] += amount
    if counted["datasets.periods.dasu"]:
        out["measurement.dasu.attempts_per_period"] = (
            calls["measurement.dasu"] / counted["datasets.periods.dasu"]
        )
    if counted["datasets.builder.households"]:
        out["datasets.builder.yield"] = (
            counted["datasets.builder.kept"] / counted["datasets.builder.households"]
        )
    if counted["core.matching.smaller_pool"]:
        out["core.matching.match_rate"] = (
            counted["core.matching.pairs"] / counted["core.matching.smaller_pool"]
        )
    for name in ("core.matching.calls", "datasets.cache.store.bytes",
                 "dag.store.bytes", "dag.stages.executed", "dag.stages.cached",
                 "datasets.append.households"):
        if counted[name]:
            out[name] = counted[name] / ops
    handlers = _intervals(spans, "service.handler", window)
    if handlers:
        durations = [end - start for start, end in handlers]
        out["service.handler.p50_ms"] = percentile(durations, 50) * 1e3
        out["service.handler.p99_ms"] = percentile(durations, 99) * 1e3
        refreshes = _intervals(spans, "service.refresh", window)
        overlapping = sum(
            1 for start, end in handlers
            if any(start < r_end and r_start < end for r_start, r_end in refreshes)
        )
        out["service.reads_during_refresh_share"] = overlapping / len(handlers)
    return out
