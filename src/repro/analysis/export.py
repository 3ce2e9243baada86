"""Export figure data series to CSV for external plotting.

The library deliberately has no plotting dependency; this module writes
the numeric series behind each paper figure to tidy CSV files so any
plotting tool can regenerate them. One file per figure, long format,
with a ``series`` column distinguishing lines/panels.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from ..datasets.columns import UserColumns
from ..exceptions import AnalysisError
from ..market.survey import PlanSurvey
from . import capacity, characterization, longitudinal, price, upgrade_cost, quality

__all__ = ["export_figure_data"]


def _write(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _cdf_rows(series: str, xs: np.ndarray, ps: np.ndarray):
    for x, p in zip(xs, ps):
        yield (series, float(x), float(p))


def _curve_rows(series: str, curve):
    for point in curve.points:
        yield (
            series,
            point.center_mbps,
            point.average,
            point.ci.low,
            point.ci.high,
            point.n_users,
        )


def export_figure_data(
    out_dir: str | Path,
    dasu: UserColumns,
    fcc: UserColumns | None = None,
    survey: PlanSurvey | None = None,
) -> list[Path]:
    """Write every reproducible figure's series to ``out_dir``.

    Returns the list of files written. Figures whose inputs are missing
    (e.g. Fig. 3 without an FCC dataset, Fig. 10 without a survey) are
    skipped.
    """
    if dasu.n_users == 0:
        raise AnalysisError("export needs at least the Dasu dataset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    # Fig. 1: three CDFs.
    fig1 = characterization.figure1(dasu)
    path = out / "fig1_characterization.csv"
    _write(
        path,
        ("series", "value", "cumulative"),
        list(
            _cdf_rows(
                "capacity_mbps",
                fig1.capacity_cdf.values,
                fig1.capacity_cdf.cumulative,
            )
        )
        + list(_cdf_rows("latency_ms", fig1.latency_cdf.values, fig1.latency_cdf.cumulative))
        + list(
            _cdf_rows(
                "loss_percent",
                fig1.loss_percent_cdf.values,
                fig1.loss_percent_cdf.cumulative,
            )
        ),
    )
    written.append(path)

    # Fig. 2: four demand curves.
    fig2 = capacity.figure2(dasu)
    path = out / "fig2_usage_vs_capacity.csv"
    rows = []
    for title, curve in fig2.panels():
        rows.extend(_curve_rows(title, curve))
    _write(
        path,
        ("series", "capacity_mbps", "avg_mbps", "ci_low", "ci_high", "n"),
        rows,
    )
    written.append(path)

    # Fig. 3 needs FCC.
    if fcc is not None and fcc.n_users:
        fig3 = capacity.figure3(dasu, fcc)
        path = out / "fig3_fcc_vs_dasu.csv"
        rows = []
        for name, curve in (
            ("fcc_mean", fig3.fcc_mean),
            ("fcc_peak", fig3.fcc_peak),
            ("dasu_us_mean", fig3.dasu_us_mean),
            ("dasu_us_peak", fig3.dasu_us_peak),
        ):
            rows.extend(_curve_rows(name, curve))
        _write(
            path,
            ("series", "capacity_mbps", "avg_mbps", "ci_low", "ci_high", "n"),
            rows,
        )
        written.append(path)

    # Fig. 4: slow/fast CDFs.
    fig4 = capacity.figure4(dasu)
    path = out / "fig4_slow_fast_cdfs.csv"
    _write(
        path,
        ("series", "usage_mbps", "cumulative"),
        list(_cdf_rows("slow_mean", *fig4.slow_mean_cdf))
        + list(_cdf_rows("fast_mean", *fig4.fast_mean_cdf))
        + list(_cdf_rows("slow_peak", *fig4.slow_peak_cdf))
        + list(_cdf_rows("fast_peak", *fig4.fast_peak_cdf)),
    )
    written.append(path)

    # Fig. 5: upgrade deltas (no-BT peak panel).
    fig5 = capacity.figure5(dasu, metric="peak", include_bt=False)
    path = out / "fig5_upgrade_deltas.csv"
    _write(
        path,
        ("initial_tier", "target_tier", "n", "delta_mbps", "ci_low", "ci_high"),
        (
            (
                cell.initial_tier.label(),
                cell.target_tier.label(),
                cell.n_switches,
                cell.delta.center,
                cell.delta.low,
                cell.delta.high,
            )
            for cell in fig5.cells
        ),
    )
    written.append(path)

    # Fig. 6: per-year curves.
    fig6 = longitudinal.figure6(dasu, min_users=10)
    path = out / "fig6_longitudinal.csv"
    rows = []
    for year_curve in fig6.year_curves:
        rows.extend(_curve_rows(str(year_curve.year), year_curve.curve))
    _write(
        path,
        ("series", "capacity_mbps", "avg_mbps", "ci_low", "ci_high", "n"),
        rows,
    )
    written.append(path)

    # Figs. 7-9: case-study distributions.
    try:
        fig7 = price.figure7(dasu)
    except AnalysisError:
        fig7 = None
    if fig7 is not None:
        path = out / "fig7_country_cdfs.csv"
        rows = []
        for entry in fig7.countries:
            rows.extend(
                _cdf_rows(f"{entry.country}:capacity", *entry.capacity_cdf)
            )
            rows.extend(
                _cdf_rows(
                    f"{entry.country}:utilization",
                    *entry.peak_utilization_cdf,
                )
            )
        _write(path, ("series", "value", "cumulative"), rows)
        written.append(path)

        fig8 = price.figure8(dasu, min_users=10)
        path = out / "fig8_tier_utilization.csv"
        rows = []
        for group in fig8.groups:
            rows.extend(
                _cdf_rows(
                    f"{group.country}:{group.tier.label()}",
                    *group.utilization_cdf,
                )
            )
        _write(path, ("series", "utilization", "cumulative"), rows)
        written.append(path)

        fig9 = price.figure9(dasu, min_users=10)
        path = out / "fig9_tier_demand.csv"
        _write(
            path,
            ("country", "tier", "n", "avg_peak_demand_mbps"),
            (
                (g.country, g.tier.label(), g.n_users, g.mean_peak_demand_mbps)
                for g in fig9.groups
            ),
        )
        written.append(path)

    # Fig. 10 needs the survey.
    if survey is not None:
        fig10 = upgrade_cost.figure10(survey)
        path = out / "fig10_upgrade_cost_cdf.csv"
        _write(
            path,
            ("country", "usd_per_mbps"),
            sorted(fig10.costs_by_country.items(), key=lambda kv: kv[1]),
        )
        written.append(path)

    # Figs. 11-12: India comparisons.
    try:
        fig11 = quality.figure11(dasu)
        fig12 = quality.figure12(dasu)
    except AnalysisError:
        fig11 = fig12 = None
    if fig11 is not None and fig12 is not None:
        path = out / "fig11_india_latency.csv"
        rows = list(_cdf_rows("india_ndt", *fig11.india_ndt_cdf))
        rows += list(_cdf_rows("other_ndt", *fig11.other_ndt_cdf))
        if fig11.india_web_cdf is not None:
            rows += list(_cdf_rows("india_web", *fig11.india_web_cdf))
        if fig11.other_web_cdf is not None:
            rows += list(_cdf_rows("other_web", *fig11.other_web_cdf))
        _write(path, ("series", "latency_ms", "cumulative"), rows)
        written.append(path)

        path = out / "fig12_india_loss.csv"
        _write(
            path,
            ("series", "loss_percent", "cumulative"),
            list(_cdf_rows("india", *fig12.india_loss_pct_cdf))
            + list(_cdf_rows("other", *fig12.other_loss_pct_cdf)),
        )
        written.append(path)

    return written
