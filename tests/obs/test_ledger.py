"""The run ledger: recording, merging, and serialization invariants."""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LedgerError
from repro.obs.ledger import (
    RunLedger,
    Span,
    count,
    current,
    format_profile,
    gauge,
    scoped,
    span,
)


class TestRecording:
    def test_counters_accumulate(self):
        ledger = RunLedger()
        ledger.count("users", 3)
        ledger.count("users", 2)
        assert ledger.counters["users"] == 5

    def test_default_increment_is_one(self):
        ledger = RunLedger()
        ledger.count("hits")
        assert ledger.counters["hits"] == 1

    def test_non_integer_increment_rejected(self):
        with pytest.raises(LedgerError):
            RunLedger().count("x", 1.5)

    def test_gauge_set_once(self):
        ledger = RunLedger()
        ledger.gauge("size", 42.0)
        assert ledger.gauges["size"] == 42.0

    def test_gauge_reset_to_same_value_allowed(self):
        ledger = RunLedger()
        ledger.gauge("size", 42.0)
        ledger.gauge("size", 42.0)

    def test_gauge_conflict_rejected(self):
        ledger = RunLedger()
        ledger.gauge("size", 42.0)
        with pytest.raises(LedgerError):
            ledger.gauge("size", 43.0)

    def test_span_records_duration(self):
        ledger = RunLedger()
        with ledger.span("work", shard="s0"):
            time.sleep(0.01)
        (recorded,) = ledger.spans
        assert recorded.name == "work"
        assert recorded.shard == "s0"
        assert recorded.wall_s >= 0.01
        assert recorded.cpu_s >= 0.0

    def test_span_recorded_on_exception(self):
        ledger = RunLedger()
        with pytest.raises(ValueError):
            with ledger.span("boom"):
                raise ValueError("x")
        assert [s.name for s in ledger.spans] == ["boom"]

    def test_ledger_is_picklable(self):
        # Workers ship shard ledgers back through the process pool.
        ledger = RunLedger()
        ledger.count("c", 2)
        ledger.add_span(Span("s", 1.0, 0.5, shard="0"))
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.counters == ledger.counters
        assert clone.spans == ledger.spans


# Strategies generating small random ledgers for the merge properties.
_names = st.sampled_from(["a", "b", "c", "build/x", "sanitize.rule.y"])
_counters = st.dictionaries(_names, st.integers(-100, 100), max_size=4)
_spans = st.lists(
    st.builds(
        Span,
        name=_names,
        wall_s=st.floats(0.0, 10.0, allow_nan=False),
        cpu_s=st.floats(0.0, 10.0, allow_nan=False),
        shard=st.one_of(st.none(), st.sampled_from(["0", "1"])),
    ),
    max_size=4,
)


def _ledger(counters, spans, gauges=()):
    ledger = RunLedger()
    for name, value in counters.items():
        ledger.count(name, value)
    for s in spans:
        ledger.add_span(s)
    for name, value in gauges:
        ledger.gauge(name, value)
    return ledger


@st.composite
def ledgers(draw):
    return _ledger(draw(_counters), draw(_spans))


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(ledgers(), ledgers(), ledgers())
    def test_merge_associative(self, a, b, c):
        # (a + b) + c  ==  a + (b + c), compared on serialized bytes —
        # the form in which worker-count invariance actually matters.
        left = pickle.loads(pickle.dumps(a)).merge(
            pickle.loads(pickle.dumps(b))
        ).merge(c)
        bc = pickle.loads(pickle.dumps(b)).merge(pickle.loads(pickle.dumps(c)))
        right = pickle.loads(pickle.dumps(a)).merge(bc)
        assert left.to_jsonl(include_timings=True) == right.to_jsonl(
            include_timings=True
        )

    @settings(max_examples=60, deadline=None)
    @given(ledgers(), ledgers())
    def test_merge_order_independent(self, a, b):
        ab = pickle.loads(pickle.dumps(a)).merge(b)
        ba = pickle.loads(pickle.dumps(b)).merge(a)
        assert ab.to_jsonl(include_timings=True) == ba.to_jsonl(
            include_timings=True
        )

    @settings(max_examples=60, deadline=None)
    @given(ledgers())
    def test_merge_with_empty_is_identity(self, a):
        before = a.to_jsonl(include_timings=True)
        a.merge(RunLedger())
        assert a.to_jsonl(include_timings=True) == before

    @settings(max_examples=60, deadline=None)
    @given(ledgers())
    def test_jsonl_round_trip(self, a):
        text = a.to_jsonl(include_timings=True)
        assert RunLedger.from_jsonl(text).to_jsonl(include_timings=True) == text


class TestSerialization:
    def test_zero_event_ledger_round_trips_unchanged(self):
        # The empty stream is "" and must survive a full round trip.
        empty = RunLedger()
        assert empty.to_jsonl() == ""
        clone = RunLedger.from_jsonl(empty.to_jsonl())
        assert clone.to_jsonl() == ""
        assert clone.counters == {} and clone.gauges == {} and clone.spans == []

    def test_events_in_canonical_order(self):
        ledger = RunLedger()
        ledger.add_span(Span("z", 1.0, 1.0))
        ledger.count("beta")
        ledger.gauge("alpha", 1.0)
        ledger.count("alpha")
        kinds = [(e["type"], e["name"]) for e in ledger.events()]
        assert kinds == [
            ("counter", "alpha"),
            ("counter", "beta"),
            ("gauge", "alpha"),
            ("span", "z"),
        ]

    def test_timings_excluded_by_default(self):
        ledger = RunLedger()
        ledger.add_span(Span("s", 1.23, 0.5))
        assert "1.23" not in ledger.to_jsonl()
        assert "1.23" in ledger.to_jsonl(include_timings=True)

    def test_span_order_independent_of_insertion(self):
        a, b = RunLedger(), RunLedger()
        a.add_span(Span("x", 1.0, 1.0))
        a.add_span(Span("y", 2.0, 2.0))
        b.add_span(Span("y", 2.0, 2.0))
        b.add_span(Span("x", 1.0, 1.0))
        assert a.to_jsonl(include_timings=True) == b.to_jsonl(
            include_timings=True
        )

    def test_bad_line_rejected_with_line_number(self):
        with pytest.raises(LedgerError, match="line 1"):
            RunLedger.from_jsonl("not json\n")
        with pytest.raises(LedgerError):
            RunLedger.from_jsonl('{"type": "mystery", "name": "x"}\n')


class TestFormatProfile:
    def test_sorted_by_name_with_total(self):
        # Name order, not duration order: durations vary run to run, so
        # a duration sort would shuffle rows across --jobs values.
        text = format_profile([Span("slow", 2.0, 1.5), Span("fast", 0.1, 0.1)])
        lines = text.splitlines()
        assert lines[0] == "analysis profile"
        assert "fast" in lines[1]
        assert "slow" in lines[2]
        assert "total" in lines[-1]
        assert "2.100" in lines[-1]  # summed wall seconds

    def test_row_order_independent_of_durations(self):
        # The same spans with permuted durations yield rows in the same
        # order — the byte-stability contract behind jobs=1 vs jobs=N
        # profile comparisons (with timing columns masked).
        a = format_profile([Span("x", 5.0, 4.0), Span("y", 0.1, 0.1)])
        b = format_profile([Span("x", 0.1, 0.1), Span("y", 5.0, 4.0)])
        names_a = [line.split()[0] for line in a.splitlines()[1:]]
        names_b = [line.split()[0] for line in b.splitlines()[1:]]
        assert names_a == names_b == ["x", "y", "total"]

    def test_prefix_filters_and_strips_names(self):
        spans = [Span("report/fig1", 1.0, 0.5), Span("build/chunk/x", 9.0, 9.0)]
        lines = format_profile(spans, prefix="report/").splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["fig1", "total"]
        assert "1.000" in lines[-1]  # the build span is not summed

    def test_custom_title(self):
        text = format_profile([Span("s", 0.0, 0.0)], title="report stages")
        assert text.splitlines()[0] == "report stages"

    def test_empty_profile_still_renders_total(self):
        assert "total" in format_profile([])


class TestAmbient:
    def test_no_ambient_ledger_by_default(self):
        assert current() is None
        count("ignored")  # no-ops, must not raise
        gauge("ignored", 1.0)
        with span("ignored"):
            pass

    def test_scoped_installs_and_restores(self):
        with scoped() as ledger:
            assert current() is ledger
            count("c", 2)
            gauge("g", 3.0)
            with span("s"):
                pass
        assert current() is None
        assert ledger.counters == {"c": 2}
        assert ledger.gauges == {"g": 3.0}
        assert [s.name for s in ledger.spans] == ["s"]

    def test_scopes_nest(self):
        with scoped() as outer:
            with scoped() as inner:
                count("x")
            count("y")
        assert inner.counters == {"x": 1}
        assert outer.counters == {"y": 1}

    def test_existing_ledger_can_be_installed(self):
        ledger = RunLedger()
        with scoped(ledger) as installed:
            assert installed is ledger
            count("z")
        assert ledger.counters == {"z": 1}
