"""The experiment registry and the three views built from it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import paper_report
from repro.analysis.registry import (
    ANALYZE,
    REGISTRY,
    REPORT_BLOCKS,
    SWEEP,
    Experiment,
    _table,
)
from repro.analysis.report import format_experiment_row
from repro.cli import EXPERIMENTS
from repro.core.experiments import ExperimentResult
from repro.datasets import UserColumns
from repro.exceptions import SweepError
from repro.sweep.runners import (
    SWEEP_EXPERIMENTS,
    _RUNNERS,
    check_experiments,
    run_experiment,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _result(n_pairs: int, n_holds: int = 0) -> ExperimentResult:
    return ExperimentResult(
        name="r", n_pairs=n_pairs, n_holds=n_holds, n_ties=0,
        p_value=0.01, alpha=0.05, practical_margin=0.02,
    )


ROWS = [("a", 60.0, _result(10, 8)), ("b", None, _result(0))]


class TestViews:
    def test_registry_keys_are_unique(self):
        keys = [e.key for e in REGISTRY]
        assert len(keys) == len(set(keys))

    def test_every_report_block_is_placed_once(self):
        placed = [k for _, keys in paper_report._SECTIONS for k in keys]
        assert len(placed) == len(set(placed)) == 19
        assert set(placed) == set(REPORT_BLOCKS)
        assert paper_report.fragment_keys() == tuple(placed)

    def test_fragment_inputs_are_world_slices(self):
        for key in paper_report.fragment_keys():
            inputs = paper_report.fragment_inputs(key)
            assert inputs and set(inputs) <= {"dasu", "fcc", "survey"}
        assert paper_report.fragment_inputs("fig10") == ("survey",)
        assert paper_report.fragment_inputs("table1") == ("dasu",)

    def test_analyze_lists_its_experiments_in_registry_order(self):
        assert EXPERIMENTS == tuple(ANALYZE) == (
            "fig1", "fig2", "fig4", "fig6", "fig7", "fig10", "fig11",
            "fig12", "table1", "table2", "table3", "table5", "table6",
            "table7", "table8", "caps", "diurnal", "segments", "upload",
        )

    def test_sweep_lists_the_verdict_experiments_in_table_order(self):
        assert SWEEP_EXPERIMENTS == tuple(SWEEP) == tuple(_RUNNERS) == (
            "table1", "table2", "table3", "table6", "table7", "table8", "iqb",
        )

    def test_table6_halves_are_one_experiment_outside_the_report(self):
        halves = ("table6_bt", "table6_nobt")
        assert tuple(e.key for e in ANALYZE["table6"]) == halves
        assert tuple(e.key for e in SWEEP["table6"]) == halves
        assert "table6" not in REPORT_BLOCKS


class TestTable:
    TABLE = _table(
        "t", lambda dasu: ROWS, lambda rows: rows,
        title="  T:", label="{} (x)", report_label="pre {}", group="g",
    )

    def test_every_renderer_formats_the_same_rows(self):
        result = self.TABLE.run(dasu=[])
        assert self.TABLE.verdicts(result) == [
            ("a (x)", 60.0, ROWS[0][2]), ("b (x)", None, ROWS[1][2]),
        ]
        assert self.TABLE.summary(result) == [
            format_experiment_row("a (x)", 60.0, ROWS[0][2]),
            format_experiment_row("b (x)", None, ROWS[1][2]),
        ]
        assert self.TABLE.report(result).splitlines() == [
            "  T:",
            "  " + format_experiment_row("pre a", 60.0, ROWS[0][2]),
            "  " + format_experiment_row("pre b", None, ROWS[1][2]),
        ]

    def test_untitled_table_without_rows_renders_empty(self):
        table = _table("t", lambda dasu: [], lambda rows: rows)
        assert table.render([]) == ""

    def test_sweep_runner_drops_rows_without_pairs(self):
        from repro.sweep import runners

        runner = runners._runner("g", [self.TABLE])
        (row,) = runner([])
        assert (row.experiment, row.row, row.n_pairs) == ("g", "a (x)", 10)
        assert row.rejects_null


class TestNeeds:
    EXPERIMENT = Experiment(
        "n", lambda dasu, survey: (len(dasu), survey),
        inputs=("dasu", "survey"), needs=("survey",),
        report=lambda result: f"{result[0]} users, survey {result[1]}",
    )

    def test_absent_need_renders_nothing(self):
        assert self.EXPERIMENT.missing(dasu=[1]) == "survey"
        assert self.EXPERIMENT.run(dasu=[1], survey=None) is None
        assert self.EXPERIMENT.render([1], None, None) is None

    def test_present_need_computes_over_inputs_in_order(self):
        assert self.EXPERIMENT.missing(dasu=[1], survey="s") is None
        assert self.EXPERIMENT.render([1, 2], None, "s") == "2 users, survey s"

    def test_empty_fcc_counts_as_absent(self, dasu_users):
        # An empty panel is a dataset with no users, not a falsy object:
        # the check reads n_users.
        fig3 = REPORT_BLOCKS["fig3"]
        assert fig3.missing(dasu=dasu_users, fcc=UserColumns.empty()) == "fcc"
        assert fig3.missing(dasu=dasu_users, fcc=None) == "fcc"
        assert fig3.missing(dasu=dasu_users, fcc=dasu_users) is None
        assert fig3.render(dasu_users, UserColumns.empty(), None) is None


class TestCheckExperiments:
    def test_known_distinct_keys_pass_as_a_tuple(self):
        assert check_experiments(["table1", "iqb"]) == ("table1", "iqb")

    def test_unknown_key_named(self):
        with pytest.raises(SweepError, match="unknown sweep experiment 'fig1'"):
            check_experiments(["table1", "fig1"])

    def test_repeated_key_named(self):
        with pytest.raises(SweepError, match="'table3' is listed twice"):
            check_experiments(["table3", "table1", "table3"])

    def test_runs_through_the_runner_table(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            _RUNNERS, "table1",
            lambda users, iqb_config=None: calls.append((users, iqb_config)),
        )
        run_experiment("table1", ["u"], iqb_config="streaming")
        assert calls == [(["u"], "streaming")]


def test_loading_a_dataset_dir_through_the_dag_imports_no_cli(tmp_path):
    """The ``load-data`` kind reads through :mod:`repro.datasets.io`,
    so a DAG run never pulls in the command-line module."""
    from repro.datasets import UserColumns
    from repro.datasets.io import write_users_csv

    write_users_csv(UserColumns.empty(), tmp_path / "users.csv")
    script = (
        "import sys\n"
        "from repro.dag import DagSpec, InProcessBackend, RunContext, "
        "StageSpec, run_dag\n"
        "spec = DagSpec(name='load', stages=(StageSpec(name='data', "
        "kind='load-data'),))\n"
        f"run = run_dag(spec, backend=InProcessBackend(), "
        f"context=RunContext(data_dir={str(tmp_path)!r}))\n"
        "assert run.artifact('data').dasu.n_users == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith("
        "('repro.cli', 'repro.analysis', 'repro.sweep')))\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
