"""What a refresh recomputes, and what it reloads from the stage store.

Every served body is a stage artifact, so a refresh pays only for the
stages whose inputs changed: the barometer is computed once per Dasu
change (for the report block and ``/iqb.json`` together), the survey is
decoded at most once per process, and a restarted service over a warm
state dir recomputes nothing, sweep cells included.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro.datasets import AppendDelta, WorldCache, WorldConfig
from repro.service import ReportService
from repro.sweep import ScenarioGrid, run_sweep, sweep_files

CONFIG = WorldConfig(
    seed=23, n_dasu_users=80, n_fcc_users=12, days_per_year=1.0, sanitize=True
)
GRID = ScenarioGrid.from_payload(
    {"name": "svc", "scenarios": [{"name": "baseline"}]}
)


@pytest.fixture()
def calls(monkeypatch):
    """Counts of barometer experiments, survey decodes and sweep cells."""
    import repro.analysis.iqb as iqb
    import repro.datasets.io as io
    import repro.sweep.engine as engine

    counts: collections.Counter = collections.Counter()
    for module, name in (
        (iqb, "iqb_experiment"),
        (io, "decode_survey_csv"),
        (engine, "_run_cell"),
    ):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_refresh_after_append_computes_one_barometer(tmp_path, calls):
    service = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=WorldCache(tmp_path)
    )
    service.refresh()
    service.append(AppendDelta(n_dasu_users=16))
    calls.clear()
    snapshot = service.refresh()
    # One barometer serves both the report block and /iqb.json; Table 4
    # reads the survey again, which this process has already decoded.
    assert calls["iqb_experiment"] == 1
    assert calls["decode_survey_csv"] == 0
    assert {"fragment/iqb", "fragment/table4"} <= set(snapshot.executed)
    assert json.loads(snapshot.iqb_json)["dasu"]["n_users"] > 0


def test_restart_over_warm_state_recomputes_nothing(tmp_path, calls):
    cache = WorldCache(tmp_path)
    first = ReportService(CONFIG, state_dir=tmp_path / "state", cache=cache)
    before = first.refresh()
    calls.clear()
    restarted = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=cache
    )
    snapshot = restarted.refresh()
    assert calls["iqb_experiment"] == 0
    assert calls["decode_survey_csv"] == 0
    assert (snapshot.iqb_json, snapshot.report_text, snapshot.etag) == (
        before.iqb_json, before.report_text, before.etag,
    )


def test_restart_with_same_grid_runs_no_sweep_cell(tmp_path, calls):
    cache = WorldCache(tmp_path)
    first = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=cache, grid=GRID
    ).refresh()
    assert calls["_run_cell"] == 1
    calls.clear()
    snapshot = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=cache, grid=GRID
    ).refresh()
    assert calls["_run_cell"] == 0
    assert {"cell/baseline/seed=23", "sweep-report"} <= set(snapshot.cached)
    files = sweep_files(
        run_sweep(CONFIG, GRID, (CONFIG.seed,), cache_root=cache.root)
    )
    assert snapshot.sweep_json == first.sweep_json == files["sweep.json"]
    assert snapshot.sweep_report == first.sweep_report == files["report.txt"]


@pytest.mark.parametrize(
    "bad_grid",
    [
        {"name": "g", "scenarios": [
            {"name": "s", "overrides": {"n_dasu_users": -5}},
        ]},
        {"name": "g", "scenarios": [{"name": "s"}], "seeds": [1, 1]},
    ],
    ids=["invalid-override", "repeated-seed"],
)
def test_spool_rejects_a_grid_that_cannot_sweep(tmp_path, bad_grid):
    """A grid whose cells cannot run is rejected when spooled; the old
    grid stays and later appends are still served."""
    service = ReportService(
        CONFIG, state_dir=tmp_path / "state", cache=WorldCache(tmp_path),
        grid=GRID,
    )
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "bad.grid.json").write_text(json.dumps(bad_grid))
    (spool / "later.json").write_text(json.dumps({"n_dasu_users": 8}))
    assert service.process_spool(spool) == 1
    assert (spool / "bad.grid.json.rejected").exists()
    assert service.rejected == 1
    assert service.grid is GRID
    snapshot = service.refresh()
    assert snapshot.config.n_dasu_users == CONFIG.n_dasu_users + 8
    assert json.loads(snapshot.sweep_json)["cells"]
