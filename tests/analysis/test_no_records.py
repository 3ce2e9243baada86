"""The analysis path reads columns and never decodes rows to objects.

The library keeps no record model; the one place that turns rows into
per-row Python values is the CSV writer's decoder,
``repro.datasets.columns._record_from_rows``. With that patched to
raise, everything that renders or scores a cache-loaded world must
still run: the report DAG (in-process and pooled), every ``analyze``
entry, a sweep cell, the IQB barometer, ``--data`` loading and one
refresh of the report service.
"""

from __future__ import annotations

import pytest

from repro.analysis.iqb import format_iqb_report, iqb_barometer, iqb_payload
from repro.analysis.registry import ANALYZE
from repro.dag import (
    InProcessBackend,
    ProcessPoolBackend,
    RunContext,
    report_spec,
    run_dag,
)
from repro.datasets import WorldCache, WorldConfig, build_world
from repro.datasets.io import load_dataset_dir, write_survey_csv, write_users_npy
from repro.service import ReportService
from repro.sweep.engine import _CellTask, _run_cell
from repro.sweep.runners import SWEEP_EXPERIMENTS

CONFIG = WorldConfig(seed=23, n_dasu_users=700, n_fcc_users=120, days_per_year=1.0)


def _no_records(block):
    raise AssertionError("the analysis path decoded rows to Python values")


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("no-records-cache")
    WorldCache(root).store(build_world(CONFIG, ground_truth=False))
    return root


@pytest.fixture()
def world(cache_root, monkeypatch):
    """The cache-loaded world, with row decoding forbidden."""
    loaded = WorldCache(cache_root).load(CONFIG)
    assert loaded is not None
    monkeypatch.setattr(
        "repro.datasets.columns._record_from_rows", _no_records
    )
    return loaded


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_report(world, cache_root, jobs):
    """The report DAG, in-process and on a pool (forked workers inherit
    the patch)."""
    run = run_dag(
        report_spec(CONFIG),
        backend=InProcessBackend() if jobs == 1 else ProcessPoolBackend(jobs),
        context=RunContext(cache_root=str(cache_root)),
    )
    text = run.artifact("paper-report").files["report.txt"]
    assert "Table 1" in text and "Fig. 3" in text


def test_every_analyze_entry(world):
    data = {
        "dasu": world.dasu.columns,
        "fcc": world.fcc.columns,
        "survey": world.survey,
    }
    for name, experiments in ANALYZE.items():
        for experiment in experiments:
            assert experiment.summary(experiment.run(**data)), name


def test_sweep_cell(cache_root, monkeypatch):
    monkeypatch.setattr(
        "repro.datasets.columns._record_from_rows", _no_records
    )
    result, from_cache = _run_cell(
        _CellTask(
            scenario="base",
            seed=CONFIG.seed,
            config=CONFIG,
            experiments=SWEEP_EXPERIMENTS,
            cache_root=str(cache_root),
            use_cache=True,
        )
    )
    assert from_cache
    assert result.verdicts and result.headline


def test_iqb_barometer(world):
    barometer = iqb_barometer(world.dasu.columns, world.fcc.columns)
    text = format_iqb_report(barometer)
    payload = iqb_payload(barometer)
    assert "IQB vs demand" in text
    assert "n_pairs" in payload["experiment"]


def test_dataset_dir_loads_as_columns(world, tmp_path):
    write_users_npy(world.all_columns, tmp_path / "users.npy")
    write_survey_csv(world.survey, tmp_path / "survey.csv")
    dasu, fcc, survey = load_dataset_dir(tmp_path)
    assert (dasu.n_users, fcc.n_users) == (world.dasu.n_users, world.fcc.n_users)
    assert survey is not None


def test_report_service_refresh(cache_root, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.datasets.columns._record_from_rows", _no_records
    )
    service = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=WorldCache(cache_root)
    )
    snapshot = service.refresh()
    assert "Table 1" in snapshot.report_text
    assert '"experiment"' in snapshot.iqb_json
