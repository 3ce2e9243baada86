"""Every experiment of the evaluation, declared once.

:data:`REGISTRY` is one ordered table. An entry names the datasets its
compute call reads, makes that call, and carries the renderers it has:

* ``report`` — its block of the paper report (the entry's key is then
  a report fragment, placed by ``paper_report._SECTIONS``);
* ``payload`` — the result as JSON, carried beside the block (``iqb.json``);
* ``summary`` — its lines under ``repro analyze``;
* ``verdicts`` — verdict rows ``(label, paper %, ExperimentResult)``,
  the rows a sweep scores in every cell.

``analyze`` and the sweep list entries under their ``group`` name, so
the two halves of Table 6 — separate report fragments — are one
``table6`` experiment there. The tables of natural experiments are
built by :func:`_table`: their report rows, ``analyze`` lines and sweep
verdicts all format from the same verdict rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.experiments import ExperimentResult
from . import (
    capacity,
    caps,
    characterization,
    diurnal,
    iqb,
    longitudinal,
    price,
    quality,
    segments,
    upgrade_cost,
    upload,
)
from .price import Table4Result
from .report import format_curve, format_experiment_row
from .upgrade_cost import Table5Result

__all__ = ["ANALYZE", "Experiment", "REGISTRY", "REPORT_BLOCKS", "SWEEP"]

#: A verdict row: label, the paper's "% H holds" (if it reports one),
#: and the measured result.
Row = tuple[str, float | None, ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """One registry entry; see the module docstring."""

    key: str
    compute: Callable[..., Any]
    #: What ``compute`` takes, in order: world slices (the ``dasu`` and
    #: ``fcc`` user columns, the ``survey``) or the sweep scenario's
    #: ``iqb_config``.
    inputs: tuple[str, ...] = ("dasu",)
    #: Optional datasets without which there is nothing to compute.
    needs: tuple[str, ...] = ()
    #: The name ``analyze`` and the sweep use (default: ``key``).
    group: str | None = None
    report: Callable[[Any], str] | None = None
    payload: Callable[[Any], dict] | None = None
    summary: Callable[[Any], Sequence[str]] | None = None
    verdicts: Callable[[Any], Sequence[Row]] | None = None

    def missing(self, **data) -> str | None:
        """The first needed dataset that ``data`` lacks or has empty (a
        user panel with no users)."""
        return next(
            (
                name
                for name in self.needs
                if data.get(name) is None
                or getattr(data[name], "n_users", None) == 0
            ),
            None,
        )

    def run(self, **data) -> Any:
        """The compute call over ``data`` (missing inputs are ``None``),
        or ``None`` when a needed dataset is absent."""
        if self.missing(**data) is not None:
            return None
        return self.compute(*(data.get(name) for name in self.inputs))

    def render(self, dasu, fcc=None, survey=None) -> dict | None:
        """The report block as ``text`` and any ``payload``, from one
        compute call; ``None`` when a needed dataset is absent."""
        result = self.run(dasu=dasu, fcc=fcc, survey=survey)
        if result is None:
            return None
        rendered = {"text": self.report(result)}
        if self.payload is not None:
            rendered["payload"] = self.payload(result)
        return rendered


def _table(
    key: str,
    compute: Callable[..., Any],
    rows: Callable[[Any], Sequence[Row]],
    *,
    title: str | Callable[[Any], str] | None = None,
    label: str = "{}",
    report_label: str = "{}",
    group: str | None = None,
) -> Experiment:
    """A table of natural experiments.

    ``rows(result)`` gives the verdict rows under their base labels;
    ``analyze`` and the sweep label a row ``label.format(base)``, the
    report ``report_label.format(base)`` under an optional ``title``.
    """

    def verdicts(result) -> list[Row]:
        return [(label.format(base), paper, r) for base, paper, r in rows(result)]

    def report(result) -> str:
        head = title(result) if callable(title) else title
        return "\n".join(([] if head is None else [head]) + [
            "  " + format_experiment_row(report_label.format(base), paper, r)
            for base, paper, r in rows(result)
        ])

    def summary(result) -> list[str]:
        return [format_experiment_row(*row) for row in verdicts(result)]

    return Experiment(
        key, compute, group=group, report=report, summary=summary,
        verdicts=verdicts,
    )


def _matched_rows(result) -> list[Row]:
    """``result.rows()`` with each matched experiment's result."""
    return [(label, paper, m.result) for label, paper, m in result.rows()]


def _table6(include_bt: bool) -> Experiment:
    tag = "w/ BT" if include_bt else "no BT"
    return _table(
        "table6_bt" if include_bt else "table6_nobt",
        lambda dasu: upgrade_cost.table6(dasu, include_bt=include_bt),
        _matched_rows,
        title=f"  Table 6 ({tag}):", label=f"{{}} ({tag})", group="table6",
    )


def _lines(*lines: str) -> str:
    return "\n".join(lines)


def _fig1_rows(fig1, gap: str) -> list[str]:
    return [
        f"  {label:<40} paper {paper:>8.3f}{gap}measured {measured:>8.3f}"
        for label, paper, measured in fig1.summary_rows()
    ]


def _fig7_report(fig7) -> str:
    return _lines(
        "  Fig. 7: utilization order reverses capacity order: "
        f"{fig7.utilization_order_reverses_capacity_order()}",
        *(
            f"    {e.country:<13} capacity {e.median_capacity_mbps:>7.2f}"
            f" Mbps, peak utilization {100 * e.mean_peak_utilization:>5.1f}%"
            for e in fig7.countries
        ),
    )


def _fig10_report(result) -> str:
    fig10, (strong, moderate) = result
    return (
        f"  Fig. 10: {fig10.n_countries} qualifying markets; "
        f"correlation strong {strong:.2f} (paper 0.66), "
        f"moderate {moderate:.2f} (paper 0.81)"
    )


def _fig10_summary(result) -> list[str]:
    fig10, _ = result
    lines = [f"  qualifying markets: {fig10.n_countries}"]
    for country in ("Japan", "US", "Ghana"):
        cost = fig10.cost_for(country)
        if cost is not None:
            lines.append(f"  {country:<8} ${cost:.2f}/Mbps")
    return lines


def _table4_report(t4) -> str:
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


def _table5_report(t5) -> str:
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


#: Every experiment, in the order ``analyze`` and the sweep list them.
REGISTRY: tuple[Experiment, ...] = (
    Experiment(
        "fig1", characterization.figure1,
        report=lambda fig1: _lines(
            f"Figure 1 — connection characterization (n={fig1.n_users})",
            *_fig1_rows(fig1, "   "),
        ),
        summary=lambda fig1: _fig1_rows(fig1, " "),
    ),
    Experiment(
        "fig2", capacity.figure2,
        report=lambda fig2: _lines(
            format_curve("  Fig. 2d: peak demand, no BT", fig2.peak_no_bt),
            "  min panel correlation: paper >= 0.870, measured "
            f"{fig2.min_correlation:.3f}",
        ),
        summary=lambda fig2: [
            f"  {title}: r = {curve.correlation:.3f}"
            for title, curve in fig2.panels()
        ],
    ),
    Experiment(
        "fig3", capacity.figure3, inputs=("dasu", "fcc"), needs=("fcc",),
        report=lambda fig3: (
            f"  Fig. 3: Dasu/FCC mean ratio {fig3.mean_ratio_dasu_over_fcc:.2f}"
            f", peak ratio {fig3.peak_ratio_dasu_over_fcc:.2f}"
        ),
    ),
    Experiment(
        "fig4", capacity.figure4,
        report=lambda fig4: (
            f"  Fig. 4: median mean usage x{fig4.mean_ratio_at_median:.1f} "
            f"(paper x2.0), median peak x{fig4.peak_ratio_at_median:.1f} "
            f"(paper x3.3) on the faster network"
        ),
        summary=lambda fig4: [
            f"  mean usage ratio at median: {fig4.mean_ratio_at_median:.2f}",
            f"  peak usage ratio at median: {fig4.peak_ratio_at_median:.2f}",
        ],
    ),
    Experiment(
        "fig6", lambda dasu: longitudinal.figure6(dasu, min_users=30),
        report=lambda fig6: _lines(
            "Section 4 — longitudinal trends (Fig. 6)",
            "  " + format_experiment_row(
                "2011 vs 2013 (pooled)", None, fig6.cross_year_experiment
            ),
            f"  classes rejecting the no-change null: "
            f"{len(fig6.classes_rejecting_null())} of "
            f"{len(fig6.per_class_experiments)}",
            f"  max class drift |log ratio|: {fig6.max_class_drift():.3f}",
        ),
        summary=lambda fig6: [
            format_experiment_row(
                "2011 vs 2013", None, fig6.cross_year_experiment
            ),
            f"  max class drift: {fig6.max_class_drift():.3f}",
        ],
    ),
    Experiment(
        "fig7", price.figure7,
        report=_fig7_report,
        summary=lambda fig7: [
            f"  {e.country:<14} capacity {e.median_capacity_mbps:8.2f} Mbps"
            f"  utilization {100 * e.mean_peak_utilization:5.1f}%"
            for e in fig7.countries
        ],
    ),
    Experiment(
        "fig10",
        lambda survey: (
            upgrade_cost.figure10(survey),
            upgrade_cost.correlation_summary(survey),
        ),
        inputs=("survey",), needs=("survey",),
        report=_fig10_report, summary=_fig10_summary,
    ),
    Experiment(
        "fig11", quality.figure11,
        report=lambda fig11: (
            f"  Fig. 11: India median latency {fig11.india_median_ndt_ms:.0f} "
            f"ms vs rest {fig11.other_median_ndt_ms:.0f} ms; India demands "
            f"less than matched US users "
            f"{100 * fig11.india_lower_demand_share:.0f}% of the time "
            f"(paper 62%)"
        ),
        summary=lambda fig11: [
            f"  India lower demand than matched US: "
            f"{100 * fig11.india_lower_demand_share:.0f}% (paper 62%)"
        ],
    ),
    Experiment(
        "fig12", quality.figure12,
        report=lambda fig12: (
            f"  Fig. 12: median loss India {fig12.india_median_loss_pct:.2f}% "
            f"vs rest {fig12.other_median_loss_pct:.3f}%"
        ),
        summary=lambda fig12: [
            f"  median loss: India {fig12.india_median_loss_pct:.2f}% "
            f"vs rest {fig12.other_median_loss_pct:.3f}%"
        ],
    ),
    _table(
        "table1", capacity.table1, lambda t1: t1.rows(),
        title=lambda t1: f"  Table 1 ({t1.n_observations} slow/fast pairs):",
    ),
    _table(
        "table2", lambda dasu: capacity.table2(dasu, "dasu"),
        lambda t2: [
            (f"{row.control_bin.label()} vs next", None, row.experiment.result)
            for row in t2.rows
        ],
        title="  Table 2 (Dasu):",
    ),
    _table("table3", price.table3, _matched_rows),
    Experiment(
        "table4", price.table4, inputs=("dasu", "survey"), needs=("survey",),
        report=_table4_report,
    ),
    Experiment(
        "table5", upgrade_cost.table5, inputs=("survey",), needs=("survey",),
        report=_table5_report,
        summary=lambda t5: [
            f"  {row.region:<28} >$1 {100 * row.share_above_1:3.0f}%"
            f"  >$5 {100 * row.share_above_5:3.0f}%"
            f"  >$10 {100 * row.share_above_10:3.0f}%"
            for row in t5.rows
            if row.n_countries
        ],
    ),
    _table6(include_bt=True),
    _table6(include_bt=False),
    _table(
        "table7", quality.table7,
        lambda t7: [
            (
                f"vs {row.treatment_bin.label('ms')}",
                row.paper_percent,
                row.experiment.result,
            )
            for row in t7.rows
        ],
        title="  Table 7 (latency):", report_label="control (512,2048] {}",
    ),
    _table(
        "table8", quality.table8,
        lambda t8: [
            (row.experiment.result.name, row.paper_percent, row.experiment.result)
            for row in t8.rows
        ],
        title="  Table 8 (packet loss):",
    ),
    # Extensions beyond the paper's evaluation. The barometer is a
    # report block and ``iqb.json``; its IQB-vs-demand experiment, under
    # the scenario's IQB config, is the sweep's ``iqb``. All call through
    # the iqb module, where the benchmark's layer tracer wraps them.
    Experiment(
        "iqb", lambda dasu, fcc: iqb.iqb_barometer(dasu, fcc),
        inputs=("dasu", "fcc"),
        report=lambda barometer: iqb.format_iqb_report(barometer),
        payload=lambda barometer: iqb.iqb_payload(barometer),
    ),
    Experiment(
        "iqb_vs_demand", lambda dasu, config: iqb.iqb_experiment(dasu, config),
        inputs=("dasu", "iqb_config"), group="iqb",
        # The label stays constant across configs — the config identity
        # lives in the scenario name, so a grid with an iqb_config axis
        # lines its cells up in one stability-matrix row.
        verdicts=lambda result: [
            ("top vs bottom tercile", None, result.experiment.result)
        ],
    ),
    Experiment(
        "caps", caps.caps_experiment,
        summary=lambda result: [
            f"  {result.n_tight_capped} tightly capped vs "
            f"{result.n_uncapped} uncapped users",
            format_experiment_row(
                "uncapped demand more", None, result.experiment.result
            ),
        ],
    ),
    Experiment(
        "diurnal", diurnal.population_diurnal_profile,
        summary=lambda profile: [
            f"  peak hour {profile.peak_hour}:00, trough "
            f"{profile.trough_hour}:00, peak/trough "
            f"x{profile.peak_to_trough_ratio:.1f}, coverage bias "
            f"{profile.coverage_bias():.2f}"
        ],
    ),
    Experiment(
        "segments", segments.segment_users,
        summary=lambda result: [
            f"  {profile.segment:<10} n={profile.n_users:<6} "
            f"median peak {profile.median_peak_mbps:.3f} Mbps  "
            f"mean util {100 * profile.mean_peak_utilization:.1f}%"
            for profile in result.profiles
        ],
    ),
    Experiment(
        "upload",
        lambda dasu: (
            upload.upload_asymmetry(dasu), upload.seeding_experiment(dasu)
        ),
        summary=lambda result: [
            f"  median up/down ratio {result[0].median_ratio:.3f} "
            f"(n={result[0].n_users})",
            format_experiment_row("BT households upload more", None, result[1]),
        ],
    ),
)


def _grouped(renderer: str) -> dict[str, tuple[Experiment, ...]]:
    """Entries with ``renderer``, under their group names, in order."""
    groups: dict[str, tuple[Experiment, ...]] = {}
    for e in REGISTRY:
        if getattr(e, renderer) is not None:
            name = e.group or e.key
            groups[name] = groups.get(name, ()) + (e,)
    return groups


#: Report fragments by key.
REPORT_BLOCKS = {e.key: e for e in REGISTRY if e.report is not None}
#: ``repro analyze``'s experiments.
ANALYZE = _grouped("summary")
#: The sweep's experiments.
SWEEP = _grouped("verdicts")
