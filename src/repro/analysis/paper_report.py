"""The complete reproduction report.

Runs every table and figure of the paper's evaluation over a set of
datasets and renders one plain-text report with the paper's reported
values alongside the measured ones. This is what the CLI's ``report``
command and the benchmark summaries are built from.

The report is assembled from independent **fragments** — one natural
experiment, table, or binned-curve panel each. A fragment is the
report block of a :mod:`repro.analysis.registry` entry, which declares
what it reads and computes; this module only places the blocks into
the paper's sections (:data:`_SECTIONS`, the one list of fragment keys)
and runs them. Because fragments share no state, they run through
:func:`repro.core.executor.run_sharded` exactly like the world builder's
shards: ``jobs=1`` executes them serially in-process, ``jobs=N`` fans
them out over a process pool, and either way the fragments are rendered
independently and reassembled in declaration order, so the report text
is byte-identical for any worker count. Section-skip semantics are
preserved: if any fragment of a section raises
:class:`~repro.exceptions.AnalysisError`, the section collapses to
``[section skipped: ...]`` citing the first failing fragment in section
order, exactly as the serial single-pass implementation did.

:func:`render_fragment` is the one place a fragment is rendered and
:func:`assemble_report` the one place the report is assembled: the
pooled path and the fragment-level DAG both go through them. Each pooled
fragment runs under a ``report/<key>`` span of the ambient run ledger
(wall and CPU, inside whichever process ran it); the CLI's ``--profile``
flag renders those spans with :func:`repro.obs.ledger.format_profile`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.executor import run_sharded
from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..market.survey import PlanSurvey
from ..obs import ledger as obs
from .registry import REPORT_BLOCKS

__all__ = [
    "assemble_report",
    "fragment_inputs",
    "fragment_keys",
    "full_report",
    "render_fragment",
    "section_reports",
]


#: The paper's sections: an optional static header plus the ordered
#: fragment keys whose blocks make up the section body.
_SECTIONS: tuple[tuple[str | None, tuple[str, ...]], ...] = (
    (None, ("fig1",)),
    ("Section 3 — impact of capacity", ("fig2", "fig3", "table1", "fig4", "table2")),
    (None, ("fig6",)),
    ("Section 5 — price of broadband access", ("table3", "table4", "fig7")),
    (
        "Section 6 — cost of increasing capacity",
        ("fig10", "table5", "table6_bt", "table6_nobt"),
    ),
    ("Section 7 — connection quality", ("table7", "fig11", "table8", "fig12")),
    ("Extension — internet quality barometer", ("iqb",)),
)

#: Every fragment of the report, in output order: the registry's report
#: blocks, keyed as :data:`_SECTIONS` places them.
_FRAGMENTS: dict[str, Callable] = {
    key: REPORT_BLOCKS[key].render for _, keys in _SECTIONS for key in keys
}


def fragment_inputs(key: str) -> tuple[str, ...]:
    """The world slices fragment ``key`` reads: the content hashes the
    fragment-level DAG (:func:`repro.dag.pipelines.fragment_report_spec`)
    keys it on, so survey-only fragments survive a household append."""
    return REPORT_BLOCKS[key].inputs


def fragment_keys() -> tuple[str, ...]:
    """Every fragment key, in declaration (= output) order."""
    return tuple(_FRAGMENTS)


#: A rendered fragment: ``(text, error)`` as :func:`render_fragment`
#: returns it.
_Rendered = tuple[str | None, str | None]


# Worker-process context: the datasets are shipped once per worker via the
# pool initializer instead of once per task, so a fragment task is just its
# key. With jobs=1, run_sharded invokes the initializer in-process and the
# serial path exercises exactly the same code.
_CTX: tuple | None = None


def _init_fragment_worker(dasu, fcc, survey) -> None:
    global _CTX
    _CTX = (dasu, fcc, survey)


def _run_fragment(key: str) -> _Rendered:
    assert _CTX is not None, "fragment worker used before initialization"
    # Ledger accounting (no-op outside a traced run): the report/<key>
    # span is what ``--profile`` renders.
    with obs.span(f"report/{key}"):
        text, error = render_fragment(key, *_CTX)
    obs.count("report.fragments.run")
    if error is not None:
        obs.count("report.fragments.failed")
    elif not text:
        obs.count("report.fragments.empty")
    return text, error


def _assemble_section(header: str | None, outputs: Sequence[_Rendered]) -> str:
    """Join fragment blocks under the section header.

    The first failed fragment (in section order) skips the whole
    section, mirroring the serial implementation where an
    AnalysisError aborted the section at that point.
    """
    for _, error in outputs:
        if error is not None:
            return f"[section skipped: {error}]"
    lines = [] if header is None else [header]
    for text, _ in outputs:
        # None (dataset absent) and "" (a table with zero rows) both
        # rendered nothing in the serial single-pass implementation.
        if text:
            lines.append(text)
    return "\n".join(lines)


def _fold_sections(fragments: dict[str, _Rendered]) -> list[str]:
    """One block per paper section, folded from every fragment."""
    missing = set(_FRAGMENTS) - set(fragments)
    if missing:
        raise AnalysisError(
            f"missing fragments: {', '.join(sorted(missing))}"
        )
    return [
        _assemble_section(header, [fragments[k] for k in section_keys])
        for header, section_keys in _SECTIONS
    ]


def _render_pooled(dasu, fcc, survey, jobs: int | None) -> dict[str, _Rendered]:
    """Render every fragment through :func:`run_sharded`.

    The fragment shards' ledger events merge into the ambient ledger
    (if any) in declaration order, so the merged ledger is the same for
    any worker count.
    """
    if dasu.n_users == 0:
        raise AnalysisError("a report needs at least the Dasu dataset")
    keys = fragment_keys()
    outputs = run_sharded(
        _run_fragment,
        keys,
        jobs=jobs,
        initializer=_init_fragment_worker,
        initargs=(dasu, fcc, survey),
        ledger=obs.current(),
    )
    return dict(zip(keys, outputs))


def render_fragment(
    key: str,
    dasu: UserColumns | None = None,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
) -> _Rendered:
    """Render one fragment without timing or ledger accounting.

    Returns ``(text, error)``: an :class:`~repro.exceptions.AnalysisError`
    becomes a section-skip message, and ``None`` text means the
    fragment's optional dataset is absent or has no users. This is the
    only place a fragment is rendered — the pooled path times it from
    the outside, and DAG fragment stages use it as is, so their
    artifacts contain no wall-clock state and an unchanged input hashes
    to an unchanged output.
    """
    build = _FRAGMENTS[key]
    try:
        return build(dasu, fcc, survey), None
    except AnalysisError as exc:
        return None, str(exc)


def assemble_report(
    fragments: dict[str, _Rendered],
    *,
    n_dasu: int,
    n_fcc: int = 0,
    n_plans: int | None = None,
) -> str:
    """Assemble the full report text from pre-rendered fragments.

    ``fragments`` maps every fragment key to its ``(text, error)`` pair
    (:func:`render_fragment`'s return). Both :func:`full_report` and the
    fragment-level DAG assemble here, so the header, dividers and
    section-skip semantics exist once and a DAG-served report is
    indistinguishable from a cold in-process render.
    """
    if n_dasu == 0:
        raise AnalysisError("a report needs at least the Dasu dataset")
    sections = _fold_sections(fragments)
    header = (
        "Reproduction report — Bischof, Bustamante & Stanojevic, "
        "IMC 2014\n"
        f"datasets: {n_dasu} Dasu users"
        + (f", {n_fcc} FCC users" if n_fcc else "")
        + (f", {n_plans} plans" if n_plans is not None else "")
    )
    divider = "=" * 72
    blocks = [header]
    for section in sections:
        blocks.append(divider)
        blocks.append(section)
    return "\n".join(blocks)


def section_reports(
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
    *,
    jobs: int | None = 1,
) -> list[str]:
    """One rendered block per paper section; sections whose data are
    insufficient (e.g. no Indian users) are reported as skipped rather
    than aborting the whole report.

    ``jobs`` fans the fragments out over a process pool (``None`` = one
    worker per CPU); the rendered text is byte-identical for any value.
    The analysis stage's run-ledger events (``report/<key>`` spans,
    experiment and matching counters) land in the ambient ledger
    (:func:`repro.obs.ledger.scoped`), identically for any worker count.
    """
    return _fold_sections(_render_pooled(dasu, fcc, survey, jobs))


def full_report(
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
    *,
    jobs: int | None = 1,
) -> str:
    """The complete paper-vs-measured report as one string.

    See :func:`section_reports` for the ``jobs`` and ledger contract;
    the report text is byte-identical for any worker count.
    """
    return assemble_report(
        _render_pooled(dasu, fcc, survey, jobs),
        n_dasu=dasu.n_users,
        n_fcc=0 if fcc is None else fcc.n_users,
        n_plans=survey.n_plans if survey is not None else None,
    )
