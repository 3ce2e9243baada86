"""Dataset persistence.

Round-trip tests run against the shared session-scoped ``tiny_world``
fixture (see ``tests/conftest.py``) instead of building their own world.
"""

import pytest

from repro.datasets import UserColumns, WorldConfig
from repro.datasets.io import (
    read_config_json,
    read_users_csv,
    write_config_json,
    write_plans_csv,
    write_users_csv,
)
from repro.exceptions import DatasetError


@pytest.fixture(scope="module")
def world(tiny_world):
    return tiny_world


class TestUsersCsv:
    def test_round_trip(self, world, tmp_path):
        path = tmp_path / "users.csv"
        n_rows = write_users_csv(world.dasu.users, path)
        assert n_rows >= len(world.dasu.users)
        loaded = read_users_csv(path)
        original = sorted(world.dasu.users, key=lambda u: u.user_id)
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a.user_id == b.user_id
            assert a.country == b.country
            assert a.capacity_down_mbps == pytest.approx(b.capacity_down_mbps)
            assert a.peak_no_bt_mbps == pytest.approx(b.peak_no_bt_mbps)
            assert a.upgrade_cost_usd_per_mbps == b.upgrade_cost_usd_per_mbps
            assert len(a.observations) == len(b.observations)
            assert a.network == b.network

    def test_loaded_records_support_analysis(self, world, tmp_path):
        from repro.analysis.characterization import figure1

        path = tmp_path / "users.csv"
        write_users_csv(world.dasu.users, path)
        loaded = read_users_csv(path)
        result = figure1(UserColumns.from_records(loaded))
        assert result.n_users == len(loaded)

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            read_users_csv(path)


class TestPlansCsv:
    def test_writes_all_plans(self, world, tmp_path):
        path = tmp_path / "plans.csv"
        n_rows = write_plans_csv(world.survey, path)
        assert n_rows == world.survey.n_plans
        header = path.read_text().splitlines()[0]
        assert "monthly_price_usd_ppp" in header


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        config = WorldConfig(seed=99, n_dasu_users=10, n_fcc_users=2)
        path = tmp_path / "config.json"
        write_config_json(config, path)
        assert read_config_json(path) == config

    def test_invalid_payload_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus": 1, "years": [2011]}')
        with pytest.raises(DatasetError):
            read_config_json(path)


class TestSurveyCsv:
    def test_round_trip(self, world, tmp_path):
        from repro.datasets.io import read_survey_csv, write_survey_csv

        path = tmp_path / "survey.csv"
        n_rows = write_survey_csv(world.survey, path)
        assert n_rows == world.survey.n_plans
        loaded = read_survey_csv(path)
        assert loaded.countries == world.survey.countries
        for country in world.survey.countries:
            original = world.survey.market(country)
            restored = loaded.market(country)
            assert restored.price_of_access() == pytest.approx(
                original.price_of_access()
            )
            assert restored.upgrade_cost_usd_per_mbps == (
                pytest.approx(original.upgrade_cost_usd_per_mbps)
                if original.upgrade_cost_usd_per_mbps is not None
                else None
            )
            assert restored.economy.region == original.economy.region

    def test_bad_columns_rejected(self, tmp_path):
        from repro.datasets.io import read_survey_csv
        from repro.exceptions import DatasetError

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            read_survey_csv(path)
