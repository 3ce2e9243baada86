"""The assembled reproduction report."""

import pytest

from repro.analysis.paper_report import full_report, section_reports
from repro.datasets import UserColumns, WorldConfig, build_world
from repro.exceptions import AnalysisError


class TestFullReport:
    def test_contains_every_section(self, small_world):
        text = full_report(
            small_world.dasu.columns,
            small_world.fcc.columns,
            small_world.survey,
        )
        for marker in (
            "Figure 1",
            "Section 3",
            "Section 4",
            "Section 5",
            "Section 6",
            "Section 7",
            "Table 1",
            "Table 5",
            "Fig. 11",
        ):
            assert marker in text

    def test_paper_values_present(self, small_world):
        text = full_report(small_world.dasu.columns)
        assert "66.8%" in text  # Table 1 average, paper value
        assert "70.3%" in text

    def test_without_optional_datasets(self, small_world):
        text = full_report(small_world.dasu.columns)
        assert "Table 4" not in text  # needs the survey
        assert "Table 1" in text

    def test_sections_degrade_gracefully(self, small_world):
        # A US-only subset cannot run the India analyses; the report
        # must mark the section as skipped instead of crashing.
        users = small_world.dasu.columns
        us_only = users.select_users(users.current("country") == b"US")
        sections = section_reports(us_only)
        assert any("skipped" in s for s in sections)
        assert any("Table 1" in s for s in sections)

    def test_empty_dataset_rejected(self):
        # An empty panel is an empty dataset, not a truthy object.
        for empty in (UserColumns.empty(), UserColumns.from_records([])):
            with pytest.raises(AnalysisError, match="needs at least the Dasu"):
                full_report(empty)
            with pytest.raises(AnalysisError, match="needs at least the Dasu"):
                section_reports(empty, UserColumns.empty())

    def test_empty_fcc_dataset_omits_figure3_only(self):
        # A world built with no FCC gateways has an empty (not absent)
        # FCC panel: Fig. 3 drops out of Section 3 — exactly as when no
        # FCC dataset is passed at all — and the section still renders.
        world = build_world(
            WorldConfig(seed=6, n_dasu_users=700, n_fcc_users=0, days_per_year=1.0)
        )
        assert world.fcc.n_users == 0
        text = full_report(world.dasu.columns, world.fcc.columns, world.survey)
        assert text == full_report(world.dasu.columns, None, world.survey)
        section3 = text.split("=" * 72)[2]
        assert section3.strip().startswith("Section 3 — impact of capacity")
        assert "Fig. 3" not in text
        assert "Table 1" in section3
        assert "FCC users" not in text.splitlines()[1]
