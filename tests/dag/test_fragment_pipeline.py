"""The fragment-level report DAG.

Two contracts: the assembled report is byte-identical to the monolithic
:func:`~repro.analysis.paper_report.full_report`, and fragment stage
keys follow the *content* of their input slices — so an append
re-executes exactly the fragments whose data changed and a warm store
reloads everything else.
"""

from __future__ import annotations

import pytest

from repro.analysis.paper_report import (
    assemble_report,
    fragment_inputs,
    fragment_keys,
    full_report,
    render_fragment,
)
from repro.dag import (
    DagStore,
    RunContext,
    expand_pipeline,
    report_spec,
    run_dag,
)
from repro.datasets import (
    AppendDelta,
    UserColumns,
    WorldCache,
    WorldConfig,
    append_world,
)
from repro.exceptions import AnalysisError

CONFIG = WorldConfig(
    seed=17, n_dasu_users=80, n_fcc_users=12, days_per_year=1.0, sanitize=True
)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A cache + stage store with one full fragment run already done."""
    root = tmp_path_factory.mktemp("fragment-dag")
    cache = WorldCache(root / "cache")
    store = DagStore(root / "stages")
    context = RunContext(jobs=1, cache_root=str(cache.root))
    result = run_dag(report_spec(CONFIG), store=store, context=context)
    return cache, store, context, result


def test_report_byte_identical_to_full_report(warm):
    cache, _, _, result = warm
    world = cache.load(CONFIG)
    expected = full_report(world.dasu.columns, world.fcc.columns, world.survey)
    assert result.artifact("paper-report").files["report.txt"] == expected + "\n"


def test_warm_rerun_reloads_every_fragment(warm):
    _, store, context, _ = warm
    result = run_dag(report_spec(CONFIG), store=store, context=context)
    assert not [s for s in result.executed if s.startswith("fragment/")]
    assert "paper-report" in result.cached


def test_append_recomputes_only_changed_fragments(warm):
    """New Dasu/FCC households re-key only the fragments that read them;
    survey-only fragments reload from the store untouched."""
    cache, store, context, _ = warm
    appended = append_world(CONFIG, AppendDelta(n_dasu_users=16), cache=cache)
    result = run_dag(
        report_spec(appended.config), store=store, context=context
    )
    executed = {s for s in result.executed if s.startswith("fragment/")}
    cached = {s for s in result.cached if s.startswith("fragment/")}
    survey_only = {
        f"fragment/{key}"
        for key in fragment_keys()
        if fragment_inputs(key) == ("survey",)
    }
    assert cached == survey_only
    assert executed == {
        f"fragment/{key}" for key in fragment_keys()
    } - survey_only

    world = cache.load(appended.config)
    expected = full_report(world.dasu.columns, world.fcc.columns, world.survey)
    assert result.artifact("paper-report").files["report.txt"] == expected + "\n"


def test_expand_pipeline_shorthand():
    spec = expand_pipeline(
        {"pipeline": "report", "config": {"world": {"seed": 17}}}
    )
    names = {stage.name for stage in spec.stages}
    assert "world" in names and "paper-report" in names
    assert {f"fragment/{key}" for key in fragment_keys()} <= names


def test_every_fragment_declares_known_inputs():
    for key in fragment_keys():
        inputs = fragment_inputs(key)
        assert inputs
        assert set(inputs) <= {"dasu", "fcc", "survey"}


def test_render_fragment_captures_analysis_error():
    fragment = render_fragment("fig1", dasu=UserColumns.empty())
    assert fragment["text"] is None
    assert "figure 1" in fragment["error"]


def test_assemble_report_requires_every_fragment():
    fragments = {key: ("", None) for key in fragment_keys()}
    del fragments["fig1"]
    with pytest.raises(AnalysisError, match="fig1"):
        assemble_report(fragments, n_dasu=10)
    with pytest.raises(AnalysisError):
        assemble_report(
            {key: ("", None) for key in fragment_keys()}, n_dasu=0
        )


def test_iqb_fragment_follows_dasu_and_fcc():
    """The barometer fragment re-keys on household data — an append must
    recompute it (covered exactly by the executed/cached set assertion
    in test_append_recomputes_only_changed_fragments) rather than
    reload a stale market table."""
    assert "iqb" in fragment_keys()
    assert fragment_inputs("iqb") == ("dasu", "fcc")
