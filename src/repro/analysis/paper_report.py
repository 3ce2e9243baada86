"""The complete reproduction report.

Runs every table and figure of the paper's evaluation over a set of
datasets and renders one plain-text report with the paper's reported
values alongside the measured ones. This is what the CLI's ``report``
command and the benchmark summaries are built from.

The report is assembled from independent **fragments** — one natural
experiment, table, or binned-curve panel each — declared in
:data:`_FRAGMENTS` and grouped into the paper's sections by
:data:`_SECTIONS`. Because fragments share no state, they run through
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
from ..datasets.records import UserRecord
from ..exceptions import AnalysisError
from ..market.survey import PlanSurvey
from ..obs import ledger as obs
from . import capacity, characterization, iqb, longitudinal, price, quality, upgrade_cost
from .price import Table4Result
from .report import format_curve, format_experiment_row
from .upgrade_cost import Table5Result

__all__ = [
    "FRAGMENT_INPUTS",
    "assemble_report",
    "fragment_inputs",
    "fragment_keys",
    "full_report",
    "render_fragment",
    "section_reports",
]


# ---------------------------------------------------------------------------
# Fragment builders. Each returns one rendered text block (or None when its
# optional dataset is absent) for a slice of a section, and must not depend
# on any other fragment having run.
# ---------------------------------------------------------------------------


def _fragment_fig1(dasu, fcc, survey) -> str:
    result = characterization.figure1(dasu)
    lines = [f"Figure 1 — connection characterization (n={result.n_users})"]
    for label, paper, measured in result.summary_rows():
        lines.append(
            f"  {label:<40} paper {paper:>8.3f}   measured {measured:>8.3f}"
        )
    return "\n".join(lines)


def _fragment_fig2(dasu, fcc, survey) -> str:
    fig2 = capacity.figure2(dasu)
    lines = [format_curve("  Fig. 2d: peak demand, no BT", fig2.peak_no_bt)]
    lines.append(
        f"  min panel correlation: paper >= 0.870, measured "
        f"{fig2.min_correlation:.3f}"
    )
    return "\n".join(lines)


def _fragment_fig3(dasu, fcc, survey) -> str | None:
    if not fcc:
        return None
    fig3 = capacity.figure3(dasu, fcc)
    return (
        f"  Fig. 3: Dasu/FCC mean ratio {fig3.mean_ratio_dasu_over_fcc:.2f}"
        f", peak ratio {fig3.peak_ratio_dasu_over_fcc:.2f}"
    )


def _fragment_table1(dasu, fcc, survey) -> str:
    t1 = capacity.table1(dasu)
    lines = [f"  Table 1 ({t1.n_observations} slow/fast pairs):"]
    for label, paper, result in t1.rows():
        lines.append("  " + format_experiment_row(label, paper, result))
    return "\n".join(lines)


def _fragment_fig4(dasu, fcc, survey) -> str:
    fig4 = capacity.figure4(dasu)
    return (
        f"  Fig. 4: median mean usage x{fig4.mean_ratio_at_median:.1f} "
        f"(paper x2.0), median peak x{fig4.peak_ratio_at_median:.1f} "
        f"(paper x3.3) on the faster network"
    )


def _fragment_table2(dasu, fcc, survey) -> str:
    t2 = capacity.table2(dasu, "dasu")
    lines = ["  Table 2 (Dasu):"]
    for row in t2.rows:
        lines.append(
            "  "
            + format_experiment_row(
                f"{row.control_bin.label()} vs next", None, row.experiment
            )
        )
    return "\n".join(lines)


def _fragment_fig6(dasu, fcc, survey) -> str:
    result = longitudinal.figure6(dasu, min_users=30)
    lines = ["Section 4 — longitudinal trends (Fig. 6)"]
    lines.append(
        "  "
        + format_experiment_row(
            "2011 vs 2013 (pooled)", None, result.cross_year_experiment
        )
    )
    lines.append(
        f"  classes rejecting the no-change null: "
        f"{len(result.classes_rejecting_null())} of "
        f"{len(result.per_class_experiments)}"
    )
    lines.append(
        f"  max class drift |log ratio|: {result.max_class_drift():.3f}"
    )
    return "\n".join(lines)


def _fragment_table3(dasu, fcc, survey) -> str:
    t3 = price.table3(dasu)
    lines = []
    for label, paper, result in t3.rows():
        lines.append("  " + format_experiment_row(label, paper, result))
    return "\n".join(lines)


def _fragment_table4(dasu, fcc, survey) -> str | None:
    if survey is None:
        return None
    t4 = price.table4(dasu, survey)
    lines = ["  Table 4 (paper/measured):"]
    for row in t4.rows:
        paper = Table4Result.PAPER_VALUES[row.country]
        lines.append(
            f"    {row.country:<13} median {paper[1]:>6.2f}/"
            f"{row.median_capacity_mbps:<8.2f} income-share "
            f"{100 * paper[5]:>4.1f}%/"
            f"{100 * row.cost_share_of_monthly_income:.1f}%"
        )
    return "\n".join(lines)


def _fragment_fig7(dasu, fcc, survey) -> str:
    fig7 = price.figure7(dasu)
    lines = [
        "  Fig. 7: utilization order reverses capacity order: "
        f"{fig7.utilization_order_reverses_capacity_order()}"
    ]
    for entry in fig7.countries:
        lines.append(
            f"    {entry.country:<13} capacity {entry.median_capacity_mbps:>7.2f}"
            f" Mbps, peak utilization {100 * entry.mean_peak_utilization:>5.1f}%"
        )
    return "\n".join(lines)


def _fragment_fig10(dasu, fcc, survey) -> str | None:
    if survey is None:
        return None
    fig10 = upgrade_cost.figure10(survey)
    strong, moderate = upgrade_cost.correlation_summary(survey)
    return (
        f"  Fig. 10: {fig10.n_countries} qualifying markets; "
        f"correlation strong {strong:.2f} (paper 0.66), "
        f"moderate {moderate:.2f} (paper 0.81)"
    )


def _fragment_table5(dasu, fcc, survey) -> str | None:
    if survey is None:
        return None
    t5 = upgrade_cost.table5(survey)
    lines = ["  Table 5 (paper/measured, % above $1/$5/$10):"]
    for row in t5.rows:
        if row.n_countries == 0:
            continue
        paper = Table5Result.PAPER_VALUES[row.region]
        lines.append(
            f"    {row.region:<27} "
            f"{100 * paper[0]:>3.0f}/{100 * row.share_above_1:<4.0f} "
            f"{100 * paper[1]:>3.0f}/{100 * row.share_above_5:<4.0f} "
            f"{100 * paper[2]:>3.0f}/{100 * row.share_above_10:<4.0f}"
        )
    return "\n".join(lines)


def _table6_fragment(include_bt: bool) -> Callable:
    def build(dasu, fcc, survey) -> str:
        t6 = upgrade_cost.table6(dasu, include_bt=include_bt)
        tag = "w/ BT" if include_bt else "no BT"
        lines = [f"  Table 6 ({tag}):"]
        for label, paper, result in t6.rows():
            lines.append("  " + format_experiment_row(label, paper, result))
        return "\n".join(lines)

    return build


def _fragment_table7(dasu, fcc, survey) -> str:
    t7 = quality.table7(dasu)
    lines = ["  Table 7 (latency):"]
    for row in t7.rows:
        lines.append(
            "  "
            + format_experiment_row(
                f"control (512,2048] vs {row.treatment_bin.label('ms')}",
                row.paper_percent,
                row.experiment,
            )
        )
    return "\n".join(lines)


def _fragment_fig11(dasu, fcc, survey) -> str:
    fig11 = quality.figure11(dasu)
    return (
        f"  Fig. 11: India median latency {fig11.india_median_ndt_ms:.0f} ms "
        f"vs rest {fig11.other_median_ndt_ms:.0f} ms; India demands less "
        f"than matched US users {100 * fig11.india_lower_demand_share:.0f}% "
        f"of the time (paper 62%)"
    )


def _fragment_table8(dasu, fcc, survey) -> str:
    t8 = quality.table8(dasu)
    lines = ["  Table 8 (packet loss):"]
    for row in t8.rows:
        lines.append(
            "  "
            + format_experiment_row(
                row.experiment.result.name, row.paper_percent, row.experiment
            )
        )
    return "\n".join(lines)


def _fragment_fig12(dasu, fcc, survey) -> str:
    fig12 = quality.figure12(dasu)
    return (
        f"  Fig. 12: median loss India {fig12.india_median_loss_pct:.2f}% "
        f"vs rest {fig12.other_median_loss_pct:.3f}%"
    )


def _fragment_iqb(dasu, fcc, survey) -> str:
    return iqb.format_iqb_report(dasu, fcc)


#: Every fragment of the report, in declaration (= output) order.
_FRAGMENTS: dict[str, Callable] = {
    "fig1": _fragment_fig1,
    "fig2": _fragment_fig2,
    "fig3": _fragment_fig3,
    "table1": _fragment_table1,
    "fig4": _fragment_fig4,
    "table2": _fragment_table2,
    "fig6": _fragment_fig6,
    "table3": _fragment_table3,
    "table4": _fragment_table4,
    "fig7": _fragment_fig7,
    "fig10": _fragment_fig10,
    "table5": _fragment_table5,
    "table6_bt": _table6_fragment(include_bt=True),
    "table6_nobt": _table6_fragment(include_bt=False),
    "table7": _fragment_table7,
    "fig11": _fragment_fig11,
    "table8": _fragment_table8,
    "fig12": _fragment_fig12,
    "iqb": _fragment_iqb,
}

#: The world slices each fragment actually reads. Everything not listed
#: uses the Dasu dataset alone — the map is what lets the fragment-level
#: DAG (see :func:`repro.dag.pipelines.fragment_report_spec`) key each
#: fragment on only the content hashes it depends on, so appending
#: households recomputes the Dasu-driven fragments but leaves
#: survey-only ones (fig10, table5) cached.
FRAGMENT_INPUTS: dict[str, tuple[str, ...]] = {
    "fig3": ("dasu", "fcc"),
    "table4": ("dasu", "survey"),
    "fig10": ("survey",),
    "table5": ("survey",),
    "iqb": ("dasu", "fcc"),
}


def fragment_inputs(key: str) -> tuple[str, ...]:
    """The slice names fragment ``key`` reads (default: Dasu only)."""
    return FRAGMENT_INPUTS.get(key, ("dasu",))


def fragment_keys() -> tuple[str, ...]:
    """Every fragment key, in declaration (= output) order."""
    return tuple(_FRAGMENTS)


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
    if not dasu:
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
    dasu: Sequence[UserRecord] = (),
    fcc: Sequence[UserRecord] | None = None,
    survey: PlanSurvey | None = None,
) -> _Rendered:
    """Render one fragment without timing or ledger accounting.

    Returns ``(text, error)``: an :class:`~repro.exceptions.AnalysisError`
    becomes a section-skip message, and ``None`` text means the
    fragment's optional dataset is absent. This is the only place a
    fragment is rendered — the pooled path times it from the outside,
    and DAG fragment stages use it as is, so their artifacts contain no
    wall-clock state and an unchanged input hashes to an unchanged
    output.
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
    dasu: Sequence[UserRecord],
    fcc: Sequence[UserRecord] | None = None,
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
    dasu: Sequence[UserRecord],
    fcc: Sequence[UserRecord] | None = None,
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
        n_dasu=len(dasu),
        n_fcc=len(fcc) if fcc else 0,
        n_plans=survey.n_plans if survey is not None else None,
    )
