"""Sec. 5: price of access (Table 3, Table 4, Figs. 7-9)."""

import pytest

from repro.analysis import price
from repro.exceptions import AnalysisError
from repro.market.countries import CASE_STUDY_COUNTRIES


class TestTable3:
    def test_groups_populated(self, dasu_users):
        result = price.table3(dasu_users)
        low, mid, high = result.group_sizes
        assert low > 100
        assert mid > 30
        assert high > 10

    def test_expensive_markets_demand_more(self, dasu_users):
        result = price.table3(dasu_users)
        # Direction of both comparisons, per the paper (63.4% / 72.2%).
        assert result.low_vs_mid.result.fraction_holds > 0.5

    def test_rows_structure(self, dasu_users):
        rows = price.table3(dasu_users).rows()
        assert len(rows) == 2
        assert rows[1][1] == 72.2


class TestTable4:
    def test_all_four_countries(self, small_world):
        result = price.table4(small_world.dasu.columns, small_world.survey)
        assert [r.country for r in result.rows] == list(CASE_STUDY_COUNTRIES)

    def test_capacity_ordering_matches_paper(self, small_world):
        result = price.table4(small_world.dasu.columns, small_world.survey)
        caps = {r.country: r.median_capacity_mbps for r in result.rows}
        assert caps["Botswana"] < caps["Saudi Arabia"] < caps["US"]
        assert caps["US"] < caps["Japan"] * 4  # Japan at least comparable

    def test_income_share_ordering(self, small_world):
        result = price.table4(small_world.dasu.columns, small_world.survey)
        shares = {
            r.country: r.cost_share_of_monthly_income for r in result.rows
        }
        # Paper: 8.0% > 3.3% > 1.3% ~= 1.3%.
        assert shares["Botswana"] > shares["Saudi Arabia"]
        assert shares["Saudi Arabia"] > shares["US"]
        assert shares["Japan"] < 0.05

    def test_nearest_tier_close_to_median(self, small_world):
        result = price.table4(small_world.dasu.columns, small_world.survey)
        for row in result.rows:
            ratio = row.nearest_tier_mbps / row.median_capacity_mbps
            assert 0.3 < ratio < 3.5

    def test_row_lookup(self, small_world):
        result = price.table4(small_world.dasu.columns, small_world.survey)
        assert result.row_for("US").country == "US"
        with pytest.raises(AnalysisError):
            result.row_for("Atlantis")

    def test_missing_country_rejected(self, small_world):
        with pytest.raises(AnalysisError):
            price.table4(
                small_world.dasu.columns, small_world.survey, countries=("Atlantis",)
            )


class TestFigure7:
    def test_entries_per_country(self, dasu_users):
        result = price.figure7(dasu_users)
        assert len(result.countries) == 4

    def test_capacity_order(self, dasu_users):
        result = price.figure7(dasu_users)
        assert (
            result.country("Botswana").median_capacity_mbps
            < result.country("US").median_capacity_mbps
        )

    def test_botswana_runs_hottest(self, dasu_users):
        result = price.figure7(dasu_users)
        bw = result.country("Botswana").mean_peak_utilization
        jp = result.country("Japan").mean_peak_utilization
        assert bw > jp + 0.2

    def test_unknown_country_lookup(self, dasu_users):
        result = price.figure7(dasu_users)
        with pytest.raises(AnalysisError):
            result.country("Atlantis")


class TestFigures8And9:
    def test_tier_groups_have_min_users(self, dasu_users):
        result = price.figure8(dasu_users, min_users=10)
        assert result.groups
        for group in result.groups:
            assert group.n_users >= 10

    def test_us_utilization_declines_with_tier(self, dasu_users):
        result = price.figure8(dasu_users, min_users=10)
        us_groups = [g for g in result.groups if g.country == "US"]
        assert len(us_groups) >= 3
        utils = [g.mean_peak_utilization for g in us_groups]
        assert utils[0] > utils[-1]

    def test_figure9_demand_grows_with_tier_in_us(self, dasu_users):
        result = price.figure9(dasu_users, min_users=10)
        us = [g for g in result.groups if g.country == "US"]
        assert us[-1].mean_peak_demand_mbps > us[0].mean_peak_demand_mbps

    def test_group_lookup(self, dasu_users):
        result = price.figure8(dasu_users, min_users=10)
        group = result.groups[0]
        assert result.group_for(group.country, group.tier.low) == group
        assert result.group_for("Atlantis", 1.0) is None
