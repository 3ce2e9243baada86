"""Figure-data export."""

import csv

import pytest

from repro.analysis.export import export_figure_data
from repro.datasets import UserColumns
from repro.exceptions import AnalysisError


@pytest.fixture(scope="module")
def exported(small_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    files = export_figure_data(
        out,
        small_world.dasu.columns,
        small_world.fcc.columns,
        small_world.survey,
    )
    return out, files


class TestExportFigureData:
    def test_all_figures_written(self, exported):
        out, files = exported
        names = {f.name for f in files}
        for expected in (
            "fig1_characterization.csv",
            "fig2_usage_vs_capacity.csv",
            "fig3_fcc_vs_dasu.csv",
            "fig4_slow_fast_cdfs.csv",
            "fig5_upgrade_deltas.csv",
            "fig6_longitudinal.csv",
            "fig7_country_cdfs.csv",
            "fig8_tier_utilization.csv",
            "fig9_tier_demand.csv",
            "fig10_upgrade_cost_cdf.csv",
            "fig11_india_latency.csv",
            "fig12_india_loss.csv",
        ):
            assert expected in names

    def test_files_parse_as_csv(self, exported):
        out, files = exported
        for path in files:
            with path.open() as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 2  # header plus data
            width = len(rows[0])
            assert all(len(row) == width for row in rows)

    def test_cdf_files_monotone(self, exported):
        out, _ = exported
        with (out / "fig1_characterization.csv").open() as handle:
            reader = csv.DictReader(handle)
            last = {}
            for row in reader:
                series = row["series"]
                value = float(row["cumulative"])
                if series in last:
                    assert value >= last[series]
                last[series] = value
            assert last  # something was read

    def test_optional_inputs_skipped(self, small_world, tmp_path):
        files = export_figure_data(tmp_path, small_world.dasu.columns)
        names = {f.name for f in files}
        assert "fig3_fcc_vs_dasu.csv" not in names
        assert "fig10_upgrade_cost_cdf.csv" not in names
        assert "fig2_usage_vs_capacity.csv" in names

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            export_figure_data(tmp_path, UserColumns.empty())
