"""The ``repro sweep`` command-line surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

ARGS = ["--users", "60", "--fcc", "10", "--days", "1.0", "--seed", "3"]


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-grid",
                "scenarios": [
                    {"name": "base"},
                    {
                        "name": "no-growth",
                        "overrides": {"demand_growth_enabled": False},
                    },
                ],
            }
        )
    )
    return path


class TestParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.grid is None
        assert args.seeds is None
        assert args.experiments is None
        assert args.out is None
        assert args.trace is False
        assert args.jobs == 1
        assert args.no_cache is False


class TestSweepCommand:
    def test_baseline_sweep_to_stdout(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--seeds", "2", "--experiments", "table1",
             "--cache-dir", str(tmp_path / "cache")] + ARGS
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "sweeping 1 scenarios x 2 seeds" in captured.out
        assert "scenario sweep: seeds-only" in captured.out
        assert "seeds (2): 3, 4" in captured.out
        assert "table1/" in captured.out
        # Cache accounting stays on stderr, never in the report.
        assert "worlds from cache" in captured.err
        assert "worlds from cache" not in captured.out

    def test_grid_file_drives_scenarios(self, grid_file, tmp_path, capsys):
        rc = main(
            ["sweep", "--grid", str(grid_file), "--seeds", "1",
             "--experiments", "table1",
             "--cache-dir", str(tmp_path / "cache")] + ARGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario sweep: cli-grid" in out
        assert "base, no-growth" in out

    def test_out_writes_report_and_payload(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", "--seeds", "1", "--experiments", "table1",
             "--out", str(out_dir),
             "--cache-dir", str(tmp_path / "cache")] + ARGS
        )
        assert rc == 0
        assert "sweep report written" in capsys.readouterr().out
        report = (out_dir / "report.txt").read_text()
        assert "scenario sweep" in report
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["seeds"] == [3]
        assert payload["experiments"] == ["table1"]
        assert payload["cells"][0]["seed"] == 3

    def test_trace_writes_ledger_and_manifest(self, tmp_path):
        out_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", "--seeds", "1", "--experiments", "table1",
             "--out", str(out_dir), "--trace",
             "--cache-dir", str(tmp_path / "cache")] + ARGS
        )
        assert rc == 0
        trace = (out_dir / "trace.jsonl").read_text()
        counters = {
            e["name"]: e["value"]
            for e in map(json.loads, trace.splitlines())
            if e["type"] == "counter"
        }
        assert counters["sweep.cells"] == 1
        assert counters["sweep.verdicts.table1.rows"] >= 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 3
        assert manifest["sweep_seeds"] == [3]
        assert manifest["experiments"] == ["table1"]
        assert manifest["grid"]["name"] == "seeds-only"

    def test_all_artifacts_byte_identical_across_jobs(self, grid_file, tmp_path):
        for jobs in ("1", "2"):
            rc = main(
                ["sweep", "--grid", str(grid_file), "--seeds", "2",
                 "--experiments", "table1,table8",
                 "--out", str(tmp_path / f"j{jobs}"), "--trace",
                 "--jobs", jobs,
                 "--cache-dir", str(tmp_path / f"cache{jobs}")] + ARGS
            )
            assert rc == 0
        for name in ("report.txt", "sweep.json", "trace.jsonl", "manifest.json"):
            assert (
                (tmp_path / "j1" / name).read_bytes()
                == (tmp_path / "j2" / name).read_bytes()
            ), name

    def test_warm_rerun_byte_identical(self, tmp_path):
        args = [
            "sweep", "--seeds", "2", "--experiments", "table1",
            "--trace", "--cache-dir", str(tmp_path / "cache"),
        ] + ARGS
        assert main(args + ["--out", str(tmp_path / "cold")]) == 0
        assert main(args + ["--out", str(tmp_path / "warm")]) == 0
        for name in ("report.txt", "sweep.json", "trace.jsonl", "manifest.json"):
            assert (
                (tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes()
            ), name


class TestSweepErrors:
    def test_trace_without_out_rejected(self, capsys):
        rc = main(["sweep", "--trace"] + ARGS)
        assert rc == 2
        assert "needs --out" in capsys.readouterr().err

    def test_nonpositive_seed_count_rejected(self, capsys):
        rc = main(["sweep", "--seeds", "0"] + ARGS)
        assert rc == 2
        assert "positive replicate count" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        rc = main(["sweep", "--experiments", "table9"] + ARGS)
        assert rc == 2
        assert "unknown sweep experiment" in capsys.readouterr().err

    def test_repeated_experiment_rejected_before_any_build(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        rc = main(
            ["sweep", "--experiments", "table1,table1", "--out",
             str(tmp_path / "out"), "--cache-dir", str(cache)] + ARGS
        )
        assert rc == 2
        assert "'table1' is listed twice" in capsys.readouterr().err
        assert not cache.exists()
        assert not (tmp_path / "out" / "sweep.json").exists()

    def test_missing_grid_file_rejected(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--grid", str(tmp_path / "absent.json")] + ARGS
        )
        assert rc == 2
        assert "cannot read grid file" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        rc = main(["sweep", "--jobs", "0"] + ARGS)
        assert rc == 2
        assert "positive integer" in capsys.readouterr().err
