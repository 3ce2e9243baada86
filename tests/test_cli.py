"""The command-line interface."""

import json
import re

import pytest

from repro.analysis.paper_report import fragment_keys
from repro.cli import EXPERIMENTS, build_parser, main
from repro.datasets.io import write_config_json, write_survey_csv, write_users_csv


@pytest.fixture(scope="module")
def data_dir(small_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    write_users_csv(small_world.all_users, out / "users.csv")
    write_survey_csv(small_world.survey, out / "survey.csv")
    write_config_json(small_world.config, out / "config.json")
    return out


class TestParser:
    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "--out", "/tmp/x"])
        assert args.seed == 20141105
        assert args.users == 2000
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_report_data_now_optional(self):
        args = build_parser().parse_args(["report"])
        assert args.data is None
        assert args.seed == 20141105

    def test_analyze_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--data", "d", "--experiment", "bogus"]
            )

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBuild:
    def test_build_writes_dataset(self, tmp_path, capsys):
        rc = main(
            [
                "build", "--out", str(tmp_path / "w"), "--users", "60",
                "--fcc", "10", "--days", "1.0", "--seed", "3",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "w" / "users.csv").exists()
        assert (tmp_path / "w" / "survey.csv").exists()
        assert (tmp_path / "w" / "config.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_parallel_build_matches_serial(self, tmp_path, capsys):
        base = [
            "--users", "40", "--fcc", "10", "--days", "1.0", "--seed", "3",
            "--no-cache",
        ]
        assert main(["build", "--out", str(tmp_path / "s")] + base) == 0
        assert main(
            ["build", "--out", str(tmp_path / "p"), "--jobs", "3"] + base
        ) == 0
        assert "jobs=3" in capsys.readouterr().out
        assert (
            (tmp_path / "s" / "users.csv").read_bytes()
            == (tmp_path / "p" / "users.csv").read_bytes()
        )

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_rejected_with_clear_error(self, tmp_path, capsys, jobs):
        rc = main(
            ["build", "--out", str(tmp_path / "w"), "--users", "10",
             "--jobs", jobs]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "jobs" in err
        assert "positive integer" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_report_rejects_bad_jobs_too(self, capsys, jobs):
        rc = main(["report", "--users", "10", "--jobs", jobs])
        assert rc == 2
        assert "positive integer" in capsys.readouterr().err


class TestFaultFlags:
    def test_fault_flags_parsed(self):
        args = build_parser().parse_args(
            ["build", "--out", "/tmp/x", "--faults", "default", "--sanitize"]
        )
        assert args.faults == "default"
        assert args.sanitize is True

    def test_faults_off_by_default(self):
        args = build_parser().parse_args(["build", "--out", "/tmp/x"])
        assert args.faults == "off"
        assert args.sanitize is False

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "--out", "/tmp/x", "--faults", "bogus"]
            )

    def test_report_accepts_fault_flags(self):
        args = build_parser().parse_args(["report", "--faults", "light"])
        assert args.faults == "light"

    def test_build_with_faults_writes_report(self, tmp_path, capsys):
        rc = main(
            ["build", "--out", str(tmp_path / "w"), "--users", "40",
             "--fcc", "10", "--days", "1.0", "--seed", "3",
             "--faults", "default", "--sanitize", "--no-cache"]
        )
        assert rc == 0
        assert (tmp_path / "w" / "sanitization.json").exists()
        assert "sanitization report" in capsys.readouterr().out

    def test_faults_off_writes_no_report(self, tmp_path, capsys):
        rc = main(
            ["build", "--out", str(tmp_path / "w"), "--users", "40",
             "--fcc", "10", "--days", "1.0", "--seed", "3", "--no-cache"]
        )
        assert rc == 0
        assert not (tmp_path / "w" / "sanitization.json").exists()
        assert "sanitization report" not in capsys.readouterr().out


class TestAnalyze:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_runs(self, data_dir, capsys, experiment):
        rc = main(
            ["analyze", "--data", str(data_dir), "--experiment", experiment]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"experiment: {experiment}" in out
        assert len(out.splitlines()) >= 2

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            ["analyze", "--data", str(tmp_path), "--experiment", "fig1"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_survey_experiment_without_survey(self, small_world, tmp_path, capsys):
        write_users_csv(small_world.dasu.users[:100], tmp_path / "users.csv")
        rc = main(
            ["analyze", "--data", str(tmp_path), "--experiment", "table5"]
        )
        assert rc == 2
        assert "survey.csv" in capsys.readouterr().err


class TestExport:
    def test_export_writes_figures(self, data_dir, tmp_path, capsys):
        rc = main(
            ["export", "--data", str(data_dir), "--out", str(tmp_path / "figs")]
        )
        assert rc == 0
        assert (tmp_path / "figs" / "fig1_characterization.csv").exists()
        assert "figure-data files" in capsys.readouterr().out


class TestReport:
    def test_report_to_stdout(self, data_dir, capsys):
        rc = main(["report", "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "Table 1" in out
        assert "Section 7" in out

    def test_report_to_file(self, data_dir, tmp_path, capsys):
        target = tmp_path / "report.txt"
        rc = main(["report", "--data", str(data_dir), "--out", str(target)])
        assert rc == 0
        assert "Reproduction report" in target.read_text()

    def test_parallel_report_byte_identical(self, data_dir, tmp_path):
        serial, parallel = tmp_path / "j1.txt", tmp_path / "j2.txt"
        assert main(
            ["report", "--data", str(data_dir), "--out", str(serial)]
        ) == 0
        assert main(
            ["report", "--data", str(data_dir), "--out", str(parallel),
             "--jobs", "2"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_profile_goes_to_stderr_only(self, data_dir, tmp_path, capsys):
        target = tmp_path / "report.txt"
        rc = main(
            ["report", "--data", str(data_dir), "--out", str(target),
             "--profile"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "analysis profile" in captured.err
        assert "wall" in captured.err and "cpu" in captured.err
        assert "analysis profile" not in captured.out
        assert "analysis profile" not in target.read_text()

    def test_profile_off_by_default(self, data_dir, capsys):
        rc = main(["report", "--data", str(data_dir)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_profile_rows_are_fragment_keys_for_any_jobs(
        self, data_dir, tmp_path, capsys
    ):
        # One row per fragment (sorted by key) plus the total; with the
        # durations masked the table is the same for any worker count.
        masked = []
        for jobs in ("1", "2"):
            assert main(
                ["report", "--data", str(data_dir), "--jobs", jobs,
                 "--out", str(tmp_path / f"j{jobs}.txt"), "--profile"]
            ) == 0
            lines = capsys.readouterr().err.splitlines()
            assert lines[0] == "analysis profile"
            rows = [line.split()[0] for line in lines[1:]]
            assert rows == sorted(fragment_keys()) + ["total"]
            masked.append(re.sub(r" *[0-9][0-9.]*", " #", "\n".join(lines)))
        assert masked[0] == masked[1]


class TestTrace:
    """`--trace` artifacts: byte-stable across --jobs, and the trace's
    sanitize.* counters equal the persisted sanitization report."""

    ARGS = [
        "--users", "40", "--fcc", "10", "--days", "1.0", "--seed", "3",
        "--faults", "default", "--sanitize", "--no-cache",
    ]

    def _build(self, out, *extra):
        return main(["build", "--out", str(out), "--trace"]
                    + self.ARGS + list(extra))

    def test_build_trace_byte_identical_across_jobs(self, tmp_path, capsys):
        assert self._build(tmp_path / "j1") == 0
        assert self._build(tmp_path / "j2", "--jobs", "2") == 0
        for name in ("trace.jsonl", "manifest.json"):
            assert (
                (tmp_path / "j1" / name).read_bytes()
                == (tmp_path / "j2" / name).read_bytes()
            ), name
        assert "trace written" in capsys.readouterr().err

    def test_trace_sanitize_counts_match_sanitization_json(self, tmp_path):
        import json

        assert self._build(tmp_path / "w") == 0
        report = json.loads((tmp_path / "w" / "sanitization.json").read_text())
        counters = {}
        for line in (tmp_path / "w" / "trace.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event["type"] == "counter":
                counters[event["name"]] = event["value"]
        assert counters["sanitize.users.in"] == report["users_in"]
        assert counters["sanitize.users.kept"] == report["users_kept"]
        for name, stats in report["rules"].items():
            prefix = f"sanitize.rule.{name}"
            assert counters[f"{prefix}.examined"] == stats["examined"], name
            assert counters[f"{prefix}.repaired"] == stats["repaired"], name
            assert counters[f"{prefix}.dropped"] == stats["dropped"], name

    def test_manifest_carries_provenance(self, tmp_path):
        import json

        from repro._version import __version__

        assert self._build(tmp_path / "w") == 0
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert manifest["command"] == "build"
        assert manifest["seed"] == 3
        assert manifest["code_version"] == __version__
        assert manifest["config_hash"]

    def test_report_trace_byte_identical_across_jobs(self, tmp_path, data_dir):
        for jobs in ("1", "4"):
            rc = main(
                ["report", "--data", str(data_dir),
                 "--out", str(tmp_path / f"r{jobs}.txt"),
                 "--trace", "--trace-dir", str(tmp_path / f"t{jobs}"),
                 "--jobs", jobs]
            )
            assert rc == 0
        for name in ("trace.jsonl", "manifest.json"):
            assert (
                (tmp_path / "t1" / name).read_bytes()
                == (tmp_path / "t4" / name).read_bytes()
            ), name

    def test_report_trace_identical_on_cache_hit_and_miss(self, tmp_path):
        # A cache hit folds the stored build ledger into the run; the
        # trace must not depend on which path produced the world.
        args = [
            "report", "--users", "30", "--fcc", "8", "--days", "1.0",
            "--seed", "21", "--cache-dir", str(tmp_path / "cache"),
            "--trace",
        ]
        assert main(args + ["--trace-dir", str(tmp_path / "miss")]) == 0
        assert main(args + ["--trace-dir", str(tmp_path / "hit")]) == 0
        assert (
            (tmp_path / "miss" / "trace.jsonl").read_bytes()
            == (tmp_path / "hit" / "trace.jsonl").read_bytes()
        )

    def test_cached_build_reuses_trace(self, tmp_path, capsys):
        args = [
            "--users", "30", "--fcc", "8", "--days", "1.0", "--seed", "21",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(
            ["build", "--out", str(tmp_path / "w1"), "--trace"] + args
        ) == 0
        assert main(
            ["build", "--out", str(tmp_path / "w2"), "--trace"] + args
        ) == 0
        assert "cache hit" in capsys.readouterr().out
        assert (
            (tmp_path / "w1" / "trace.jsonl").read_bytes()
            == (tmp_path / "w2" / "trace.jsonl").read_bytes()
        )

    def test_no_trace_flag_writes_no_artifacts(self, tmp_path):
        assert main(
            ["build", "--out", str(tmp_path / "w")] + self.ARGS
        ) == 0
        assert not (tmp_path / "w" / "trace.jsonl").exists()
        assert not (tmp_path / "w" / "manifest.json").exists()


class TestColumnarDataDir:
    """``--data`` directories carry a ``users.npy`` shard since the
    columnar data plane; loading must prefer it and agree with the CSV."""

    @pytest.fixture()
    def columnar_dir(self, tiny_world, tmp_path):
        from repro.datasets.io import write_users_npy

        out = tmp_path / "data"
        out.mkdir()
        columns = tiny_world.all_columns
        write_users_csv(columns, out / "users.csv")
        write_users_npy(columns, out / "users.npy")
        write_survey_csv(tiny_world.survey, out / "survey.csv")
        return out

    def _analyze(self, data_dir, capsys) -> str:
        rc = main(
            ["analyze", "--data", str(data_dir), "--experiment", "table2"]
        )
        assert rc == 0
        return capsys.readouterr().out

    def test_npy_and_csv_loads_agree(self, columnar_dir, capsys):
        from_npy = self._analyze(columnar_dir, capsys)
        (columnar_dir / "users.npy").unlink()
        from_csv = self._analyze(columnar_dir, capsys)
        assert from_npy == from_csv

    def test_corrupt_npy_falls_back_to_csv(self, columnar_dir, capsys):
        baseline = self._analyze(columnar_dir, capsys)
        (columnar_dir / "users.npy").write_bytes(b"not a numpy file")
        assert self._analyze(columnar_dir, capsys) == baseline

    def test_build_writes_the_shard(self, tmp_path):
        from repro.datasets.io import read_users_npy

        out = tmp_path / "w"
        rc = main(
            ["build", "--out", str(out), "--users", "30", "--fcc", "8",
             "--days", "1.0", "--seed", "21", "--no-cache"]
        )
        assert rc == 0
        columns = read_users_npy(out / "users.npy")
        assert columns.n_rows > 0


class TestIqb:
    """`repro iqb`: the barometer command's artifacts are byte-stable
    across worker counts and cache states (the jobs-invariance contract
    every other artifact-producing subcommand already honors)."""

    ARGS = [
        "--users", "120", "--fcc", "20", "--days", "1.0", "--seed", "9",
    ]

    def _run(self, out, *extra):
        return main(
            ["iqb", "--out", str(out), "--trace"] + self.ARGS + list(extra)
        )

    def test_report_to_stdout(self, data_dir, capsys):
        rc = main(["iqb", "--data", str(data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Internet quality barometer (config 'default')" in out
        assert "IQB vs demand" in out

    def test_artifacts_byte_identical_across_jobs(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert self._run(tmp_path / "j1", "--jobs", "1", *cache) == 0
        assert self._run(tmp_path / "j4", "--jobs", "4", *cache) == 0
        for name in ("iqb.txt", "iqb.json", "trace.jsonl"):
            assert (
                (tmp_path / "j1" / name).read_bytes()
                == (tmp_path / "j4" / name).read_bytes()
            ), name
        assert "barometer written" in capsys.readouterr().out

    def test_cold_and_warm_cache_identical(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert self._run(tmp_path / "cold", *cache) == 0
        assert self._run(tmp_path / "warm", *cache) == 0
        for name in ("iqb.txt", "iqb.json", "trace.jsonl"):
            assert (
                (tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes()
            ), name

    def test_payload_parses_and_names_config(self, tmp_path):
        import json

        assert self._run(tmp_path / "w", "--no-cache") == 0
        payload = json.loads((tmp_path / "w" / "iqb.json").read_text())
        assert payload["config"]["name"] == "default"
        assert payload["dasu"]["n_users"] > 0
        assert "experiment" in payload
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert manifest["command"] == "iqb"
        assert manifest["iqb_config"]["name"] == "default"

    def test_config_file_and_preset(self, data_dir, tmp_path, capsys):
        import json

        from repro.analysis.iqb import IQB_PRESETS

        rc = main(["iqb", "--data", str(data_dir), "--config", "streaming"])
        assert rc == 0
        assert "config 'streaming'" in capsys.readouterr().out
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(IQB_PRESETS["streaming"].to_payload())
        )
        rc = main(["iqb", "--data", str(data_dir), "--config", str(path)])
        assert rc == 0
        assert "config 'streaming'" in capsys.readouterr().out

    def test_invalid_config_file_fails_cleanly(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        payload = {
            "name": "bad",
            "use_cases": {
                "web": {
                    "requirements": {
                        "latency_ms": {"weight": -1, "max": 100}
                    }
                }
            },
        }
        path.write_text(json.dumps(payload))
        rc = main(["iqb", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'web'" in err and "'latency_ms'" in err

    def test_trace_requires_out(self, tmp_path, capsys):
        # Rejected before any work: nothing built, cached or printed.
        cache = tmp_path / "cache"
        cache.mkdir()
        rc = main(
            ["iqb", "--trace", "--cache-dir", str(cache)] + self.ARGS
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "iqb --trace needs --out" in captured.err
        assert captured.out == ""
        assert list(cache.iterdir()) == []


class TestDagRun:
    def test_unknown_fragment_rejected_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "dag.json"
        spec.write_text(json.dumps({"stages": [
            {"name": "f", "kind": "report-fragment",
             "config": {"fragment": "bogus"}},
        ]}))
        rc = main(["dag", "run", "--spec", str(spec),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'bogus'" in err
        assert ", ".join(fragment_keys()) in err

    @pytest.mark.parametrize(
        "experiments, message",
        [
            (["table9"], "unknown sweep experiment 'table9'"),
            (["table1", "table1"], "'table1' is listed twice"),
        ],
    )
    def test_sweep_shorthand_rejects_experiments_before_building(
        self, tmp_path, capsys, experiments, message
    ):
        spec = tmp_path / "dag.json"
        spec.write_text(json.dumps({
            "pipeline": "sweep",
            "config": {
                "base": {"seed": 3, "n_dasu_users": 40, "n_fcc_users": 0,
                         "days_per_year": 1.0},
                "experiments": experiments,
            },
        }))
        cache = tmp_path / "cache"
        rc = main(["dag", "run", "--spec", str(spec), "--out",
                   str(tmp_path / "out"), "--cache-dir", str(cache)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not cache.exists()

    def test_sweep_cell_stage_rejects_repeated_experiment(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "dag.json"
        spec.write_text(json.dumps({"stages": [
            {"name": "cell", "kind": "sweep-cell", "config": {
                "scenario": "baseline", "seed": 3,
                "world": {"seed": 3, "n_dasu_users": 40, "n_fcc_users": 0,
                          "days_per_year": 1.0},
                "experiments": ["table1", "table1"],
            }},
        ]}))
        cache = tmp_path / "cache"
        rc = main(["dag", "run", "--spec", str(spec), "--out",
                   str(tmp_path / "out"), "--cache-dir", str(cache)])
        assert rc == 2
        assert "'table1' is listed twice" in capsys.readouterr().err
        assert not cache.exists()
