"""The built-in pipelines: spec shape, equivalence, and key stability.

``repro report`` and ``repro sweep`` now run *through* the DAG
scheduler, so the load-bearing assertions here are about the pipeline
templates themselves: the specs they build, the byte-for-byte
equivalence of their artifacts to the underlying analysis functions,
and the warm/cold key stability that makes resume sound (a cell's
world-cache hit flag must never re-key downstream stages).
"""

from __future__ import annotations

import shutil

import pytest

from repro.analysis.paper_report import fragment_inputs, fragment_keys, full_report
from repro.cli import main
from repro.dag import (
    CellOutcome,
    DagSpec,
    DagStore,
    FileBundle,
    InProcessBackend,
    ProcessPoolBackend,
    RunContext,
    expand_pipeline,
    report_spec,
    run_dag,
    sweep_spec,
)
from repro.datasets import WorldConfig, build_world
from repro.datasets.io import load_dataset_dir
from repro.exceptions import DagError, SweepError
from repro.sweep import format_sweep_report, run_sweep, sweep_payload

from ..sweep.conftest import SMALL_SWEEP_BASE, SMALL_SWEEP_SEEDS, small_sweep_grid

REPORT_CONFIG = WorldConfig(
    seed=5, n_dasu_users=150, n_fcc_users=40, days_per_year=1.0
)


#: The report DAG's stage names, in declaration order.
REPORT_STAGES = [
    "world",
    "slice/dasu",
    "slice/fcc",
    "slice/survey",
    *(f"fragment/{key}" for key in fragment_keys()),
    "paper-report",
]


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    """``--data`` directories: one from ``repro build``, the same one
    without ``survey.csv``, and one from a build with no FCC rows."""
    root = tmp_path_factory.mktemp("report-data")
    world = ["--seed", "5", "--users", "150", "--days", "1.0",
             "--cache-dir", str(root / "wc")]
    assert main(["build", "--out", str(root / "built"), "--fcc", "40",
                 *world]) == 0
    shutil.copytree(root / "built", root / "no-survey")
    (root / "no-survey" / "survey.csv").unlink()
    assert main(["build", "--out", str(root / "no-fcc"), "--fcc", "0",
                 *world]) == 0
    return {name: root / name for name in ("built", "no-survey", "no-fcc")}


class TestReportSpec:
    def test_shape(self):
        spec = report_spec(REPORT_CONFIG)
        assert [s.name for s in spec.stages] == REPORT_STAGES
        assert spec.stage("world").kind == "world-source"
        for name in ("dasu", "fcc", "survey"):
            stage = spec.stage(f"slice/{name}")
            assert stage.kind == "world-slice"
            assert stage.depends_on == ("world",)
        for key in fragment_keys():
            stage = spec.stage(f"fragment/{key}")
            assert stage.kind == "report-fragment"
            assert stage.depends_on == tuple(
                f"slice/{s}" for s in fragment_inputs(key)
            )
        assembly = spec.stage("paper-report")
        assert assembly.kind == "report-assemble"
        assert set(assembly.depends_on) == set(REPORT_STAGES[1:-1])
        from_data = report_spec(data_dir="/data")
        assert [s.name for s in from_data.stages] == REPORT_STAGES
        assert from_data.stage("world").kind == "load-data"

    @pytest.mark.parametrize("backend", ["inprocess", "pool"])
    @pytest.mark.parametrize("name", ["built", "no-survey", "no-fcc"])
    def test_data_dir_matches_full_report(self, data_dirs, name, backend):
        data = data_dirs[name]
        run = run_dag(
            report_spec(data_dir=str(data)),
            backend=(
                InProcessBackend() if backend == "inprocess"
                else ProcessPoolBackend(2)
            ),
            context=RunContext(data_dir=str(data)),
        )
        direct = full_report(*load_dataset_dir(data))
        assert run.artifact("paper-report").files["report.txt"] == (
            direct + "\n"
        )
        if name == "no-survey":
            assert run.artifact("slice/survey").data is None

    def test_warm_report_decodes_the_survey_once(self, tmp_path, monkeypatch):
        """The survey slice is bytes; the three fragments that read the
        survey share one decode, and the header counts plans from the
        bytes."""
        import repro.dag.pipelines as pipelines
        import repro.datasets.io as io_module
        from repro.datasets import WorldCache

        context = RunContext(cache_root=str(tmp_path / "wc"))
        run_dag(report_spec(REPORT_CONFIG), context=context)
        decodes = []
        real = io_module.decode_survey_csv

        def counted(*args):
            decodes.append(args)
            return real(*args)

        monkeypatch.setattr(io_module, "decode_survey_csv", counted)
        monkeypatch.setattr(pipelines, "_survey", None)  # a fresh process
        run = run_dag(report_spec(REPORT_CONFIG), context=context)
        assert len(decodes) == 1
        survey = run.artifact("slice/survey").data
        world = WorldCache(tmp_path / "wc").load(REPORT_CONFIG)
        assert survey == world.survey_csv
        text = run.artifact("paper-report").files["report.txt"]
        assert f", {world.survey.n_plans} plans\n" in text

    def test_needs_exactly_one_source(self):
        with pytest.raises(DagError, match="exactly one"):
            report_spec()
        with pytest.raises(DagError, match="exactly one"):
            report_spec(REPORT_CONFIG, data_dir="/data")

    def test_matches_direct_full_report(self, tmp_path, capsys):
        run = run_dag(
            report_spec(REPORT_CONFIG),
            backend=InProcessBackend(),
            context=RunContext(jobs=1, cache_root=str(tmp_path / "wc")),
        )
        bundle = run.artifact("paper-report")
        assert isinstance(bundle, FileBundle)
        world = build_world(REPORT_CONFIG, ground_truth=False)
        direct = full_report(world.dasu.columns, world.fcc.columns, world.survey)
        assert bundle.files["report.txt"] == direct + "\n"
        # stdout parity with the pre-DAG `repro report` path.
        assert "building world (seed=5, 150 Dasu users" in capsys.readouterr().out

    def test_cache_hit_prints_and_matches(self, tmp_path, capsys):
        ctx = RunContext(jobs=1, cache_root=str(tmp_path / "wc"))
        cold = run_dag(report_spec(REPORT_CONFIG),
                       backend=InProcessBackend(), context=ctx)
        capsys.readouterr()
        warm = run_dag(report_spec(REPORT_CONFIG),
                       backend=InProcessBackend(), context=ctx)
        assert "cache hit" in capsys.readouterr().out
        assert (
            warm.artifact("paper-report").files
            == cold.artifact("paper-report").files
        )
        # The world's fingerprint (its cache key) is representation-
        # independent, so downstream keys agree warm vs cold.
        assert warm.keys == cold.keys
        assert warm.output_hashes == cold.output_hashes


class TestSweepSpec:
    def test_shape_scenario_major(self):
        spec = sweep_spec(
            SMALL_SWEEP_BASE, small_sweep_grid(), SMALL_SWEEP_SEEDS,
            ("table1",),
        )
        assert [s.name for s in spec.stages] == [
            "cell/baseline/seed=5",
            "cell/baseline/seed=6",
            "cell/growth-off/seed=5",
            "cell/growth-off/seed=6",
            "sweep-report",
        ]
        report = spec.stage("sweep-report")
        assert report.depends_on == tuple(
            s.name for s in spec.stages[:-1]
        )
        assert report.config["cells"] == list(report.depends_on)

    def test_with_report_false_drops_the_fold(self):
        spec = sweep_spec(
            SMALL_SWEEP_BASE, small_sweep_grid(), SMALL_SWEEP_SEEDS,
            ("table1",), with_report=False,
        )
        assert all(s.kind == "sweep-cell" for s in spec.stages)

    def test_report_stage_matches_run_sweep(self, tmp_path):
        """The DAG's sweep-report bundle == the engine's formatted result."""
        grid, seeds = small_sweep_grid(), SMALL_SWEEP_SEEDS
        cache = str(tmp_path / "wc")
        result = run_sweep(
            SMALL_SWEEP_BASE, grid, seeds,
            experiments=("table1",), cache_root=cache,
        )
        spec = sweep_spec(SMALL_SWEEP_BASE, grid, seeds, ("table1",))
        run = run_dag(
            spec,
            backend=InProcessBackend(),
            context=RunContext(jobs=1, cache_root=cache),
        )
        bundle = run.artifact("sweep-report")
        assert bundle.files["report.txt"] == format_sweep_report(result) + "\n"
        import json

        assert json.loads(bundle.files["sweep.json"]) == sweep_payload(result)

    def test_world_cache_state_never_rekeys(self, tmp_path):
        """Warm vs cold world cache: same keys, same output hashes.

        The cell artifact carries a ``from_cache`` flag that differs
        between the runs; the fingerprint must exclude it or resume
        would re-execute every downstream stage after a cache flush.
        """
        spec = sweep_spec(
            SMALL_SWEEP_BASE, small_sweep_grid(), SMALL_SWEEP_SEEDS,
            ("table1",),
        )
        cache = str(tmp_path / "wc")
        ctx = RunContext(jobs=1, cache_root=cache)
        cold = run_dag(spec, backend=InProcessBackend(), context=ctx)
        warm = run_dag(spec, backend=InProcessBackend(), context=ctx)
        outcome = warm.artifact("cell/baseline/seed=5")
        assert isinstance(outcome, CellOutcome)
        assert outcome.from_cache  # the flag did flip...
        assert not cold.artifact("cell/baseline/seed=5").from_cache
        assert warm.keys == cold.keys  # ...and the keys did not
        assert warm.output_hashes == cold.output_hashes

    def test_store_resume_skips_cells(self, tmp_path):
        spec = sweep_spec(
            SMALL_SWEEP_BASE, small_sweep_grid(), SMALL_SWEEP_SEEDS,
            ("table1",),
        )
        ctx = RunContext(jobs=1, cache_root=str(tmp_path / "wc"))
        store = DagStore(tmp_path / "stages")
        first = run_dag(spec, backend=InProcessBackend(), store=store,
                        context=ctx)
        assert len(first.executed) == 5
        second = run_dag(spec, backend=InProcessBackend(), store=store,
                         context=ctx)
        assert second.executed == ()
        assert (
            second.artifact("sweep-report").files
            == first.artifact("sweep-report").files
        )


class TestExpandPipeline:
    def test_report_shorthand(self):
        spec = DagSpec.from_payload({
            "pipeline": "report",
            "config": {"world": {"seed": 9, "n_dasu_users": 50,
                                 "n_fcc_users": 10}},
        })
        assert [s.name for s in spec.stages] == REPORT_STAGES
        assert spec.stage("world").config["world"]["seed"] == 9
        # Partial payloads are canonicalized to the full config.
        assert "days_per_year" in spec.stage("world").config["world"]

    def test_sweep_shorthand_defaults(self):
        spec = DagSpec.from_payload({
            "pipeline": "sweep",
            "config": {"base": {"seed": 5, "n_dasu_users": 100,
                                "n_fcc_users": 0}, "seeds": [5, 6]},
        })
        names = [s.name for s in spec.stages]
        assert names[:2] == ["cell/baseline/seed=5", "cell/baseline/seed=6"]
        assert names[-1] == "sweep-report"

    def test_fault_profile_names_resolve(self):
        spec = DagSpec.from_payload({
            "pipeline": "report",
            "config": {"world": {"seed": 9, "n_dasu_users": 50,
                                 "n_fcc_users": 0, "faults": "light",
                                 "sanitize": True}},
        })
        world = spec.stage("world").config["world"]
        assert isinstance(world["faults"], dict)
        assert world["sanitize"] is True
        # "off" means pristine: the canonical payload omits the block.
        off = DagSpec.from_payload({
            "pipeline": "report",
            "config": {"world": {"seed": 9, "n_dasu_users": 50,
                                 "n_fcc_users": 0, "faults": "off"}},
        })
        assert "faults" not in off.stage("world").config["world"]

    @pytest.mark.parametrize(
        "experiments, message",
        [
            (["table9"], "unknown sweep experiment 'table9'"),
            (["table2", "table2"], "'table2' is listed twice"),
        ],
    )
    def test_sweep_shorthand_checks_experiments(self, experiments, message):
        with pytest.raises(SweepError, match=message):
            expand_pipeline(
                {"pipeline": "sweep", "config": {"experiments": experiments}}
            )

    def test_unknown_pipeline_rejected(self):
        expected = r"\(expected 'report' or 'sweep'\)"
        with pytest.raises(DagError, match=f"unknown pipeline 'simulate' {expected}"):
            expand_pipeline({"pipeline": "simulate"})
        with pytest.raises(DagError, match="unknown pipeline 'fragment-report'"):
            expand_pipeline({"pipeline": "fragment-report"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(DagError, match="unknown keys"):
            expand_pipeline({"pipeline": "report", "stages": []})
        with pytest.raises(DagError, match="unknown keys"):
            expand_pipeline({"pipeline": "report",
                             "config": {"grid": {}}})
        with pytest.raises(DagError, match="unknown keys"):
            expand_pipeline({"pipeline": "sweep",
                             "config": {"world": {}}})

    def test_bad_world_config_rejected(self):
        with pytest.raises(DagError, match="report world config"):
            expand_pipeline({
                "pipeline": "report",
                "config": {"world": {"seed": 9, "bogus_field": 1}},
            })
