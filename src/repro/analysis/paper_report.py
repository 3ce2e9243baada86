"""The complete reproduction report.

Runs every table and figure of the paper's evaluation over a set of
datasets and renders one plain-text report with the paper's reported
values alongside the measured ones. This is what the CLI's ``report``
command and the benchmark summaries are built from.

The report is assembled from independent **fragments** — one natural
experiment, table, or binned-curve panel each. A fragment is the
report block of a :mod:`repro.analysis.registry` entry, which declares
what it reads and computes; this module only places the blocks into
the paper's sections (:data:`_SECTIONS`, the one list of fragment keys),
renders one (:func:`render_fragment`) and assembles the report
(:func:`assemble_report`). Section-skip semantics: if any fragment of a
section raises :class:`~repro.exceptions.AnalysisError`, the section
collapses to ``[section skipped: ...]`` citing the first failing
fragment in section order.

The report *pipeline* is the fragment-level DAG
(:func:`repro.dag.pipelines.report_spec`): one stage per fragment,
keyed on the content of the slices it reads, run serially or over a
process pool by the DAG backends. :func:`full_report` and
:func:`section_reports` are the same composition run serially in the
calling process, the reference the DAG's output is tested against.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..market.survey import PlanSurvey
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
    report DAG (:func:`repro.dag.pipelines.report_spec`) keys it on, so
    survey-only fragments survive a household append."""
    return REPORT_BLOCKS[key].inputs


def fragment_keys() -> tuple[str, ...]:
    """Every fragment key, in declaration (= output) order."""
    return tuple(_FRAGMENTS)


def _assemble_section(header: str | None, outputs: Sequence[dict]) -> str:
    """Join fragment blocks under the section header.

    The first failed fragment (in section order) skips the whole
    section, mirroring the serial implementation where an
    AnalysisError aborted the section at that point.
    """
    for output in outputs:
        if output["error"] is not None:
            return f"[section skipped: {output['error']}]"
    lines = [] if header is None else [header]
    for output in outputs:
        # None (dataset absent) and "" (a table with zero rows) both
        # rendered nothing in the serial single-pass implementation.
        if output["text"]:
            lines.append(output["text"])
    return "\n".join(lines)


def _fold_sections(fragments: dict[str, dict]) -> list[str]:
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


def render_fragment(
    key: str,
    dasu: UserColumns | None = None,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
) -> dict:
    """Render one fragment without timing or ledger accounting.

    Returns ``{"text", "error"}`` plus any ``"payload"``: an
    :class:`~repro.exceptions.AnalysisError` becomes a section-skip
    ``error``, and ``None`` text means the fragment's optional dataset is
    absent or has no users. This is the only place a fragment is
    rendered — :func:`full_report` and the DAG fragment stages both use
    it as is, so their artifacts contain no wall-clock state and an
    unchanged input hashes to an unchanged output.
    """
    build = _FRAGMENTS[key]
    try:
        rendered = build(dasu, fcc, survey) or {"text": None}
    except AnalysisError as exc:
        return {"text": None, "error": str(exc)}
    return {**rendered, "error": None}


def assemble_report(
    fragments: dict[str, dict],
    *,
    n_dasu: int,
    n_fcc: int = 0,
    n_plans: int | None = None,
) -> str:
    """Assemble the full report text from pre-rendered fragments.

    ``fragments`` maps every fragment key to its rendering
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


def _render_all(
    dasu: UserColumns,
    fcc: UserColumns | None,
    survey: PlanSurvey | None,
) -> dict[str, dict]:
    """Every fragment, rendered serially in declaration order."""
    if dasu.n_users == 0:
        raise AnalysisError("a report needs at least the Dasu dataset")
    return {key: render_fragment(key, dasu, fcc, survey) for key in _FRAGMENTS}


def section_reports(
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
) -> list[str]:
    """One rendered block per paper section; sections whose data are
    insufficient (e.g. no Indian users) are reported as skipped rather
    than aborting the whole report."""
    return _fold_sections(_render_all(dasu, fcc, survey))


def full_report(
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
) -> str:
    """The complete paper-vs-measured report as one string, rendered
    serially in the calling process."""
    return assemble_report(
        _render_all(dasu, fcc, survey),
        n_dasu=dasu.n_users,
        n_fcc=0 if fcc is None else fcc.n_users,
        n_plans=survey.n_plans if survey is not None else None,
    )
