"""The repository benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the layer wrappers of
``tracer.py`` installed in alternate operations and reports the
per-layer metrics instead. Readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every timed operation runs in a fresh interpreter (``ops.py``), on
inputs generated from ``--seed``, in a private work directory inside
the checkout that is removed at the end. Nothing touches
``~/.cache/repro`` or ``$REPRO_CACHE_DIR``. See ``WORKLOADS.md`` for
why each workload exists and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import load
from tracer import layer_metrics, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: World seeds are this plus ``--seed``; it is the library's default seed.
BASE_SEED = 20141105
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Timed operations per untraced run, at least, whatever ``--seconds`` is.
MIN_OPS = 3
#: No operation starts after this long, so a run stays far below 180 s.
LOOP_CAP_S = 60.0
OP_TIMEOUT_S = 150.0

COLD_BUILD_WORLD = {"n_dasu_users": 1000, "n_fcc_users": 100,
                    "days_per_year": 1.0, "faults": "default", "sanitize": True}
REPORT_WORLD = {"n_dasu_users": 2000, "n_fcc_users": 400, "days_per_year": 1.0}
SWEEP_WORLD = {"n_dasu_users": 300, "n_fcc_users": 0, "days_per_year": 1.0}
SWEEP_GRID = {"name": "perfbench", "axes": [
    {"field": "price_selection_enabled", "values": [True, False]},
    {"field": "faults", "values": ["off", "light"]},
]}
#: ``repro serve``'s default world.
SERVE_WORLD = {"n_dasu_users": 2000, "n_fcc_users": 400, "days_per_year": 1.5}
SERVE_APPEND = {"n_dasu_users": 100, "n_fcc_users": 10}
SERVE_APPENDS = 3
SERVE_RATE_PER_S = 200.0
SERVE_SENDERS = 2
SERVE_POLL_S = 0.05


class OpFailed(Exception):
    """A program process exited badly, timed out or answered wrongly."""


class Run:
    """One benchmark invocation: its inputs, work directory and tallies."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.world_seed = BASE_SEED + args.seed
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(self.work / "default-cache"),
        )
        self.attempted = 0
        self.failures: list[str] = []
        self._files = 0

    def path(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"{self._files:04d}-{stem}"

    def world(self, sizes: dict) -> dict:
        return {"seed": self.world_seed, **sizes}

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def command(self, op: str, params: dict, trace: bool = False):
        params_path = self.path("params.json")
        params_path.write_text(json.dumps(params))
        out = self.path("out.json")
        cmd = [sys.executable, str(HERE / "ops.py"), op, str(params_path), str(out)]
        spans = None
        if trace:
            spans = self.path("spans.json")
            cmd += ["--trace", str(spans)]
        return cmd, out, spans

    def op(self, op: str, params: dict, trace: bool = False) -> dict:
        """Run one ``ops.py`` operation in a fresh interpreter."""
        cmd, out, spans = self.command(op, params, trace)
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{op} timed out") from None
        if proc.returncode != 0:
            raise OpFailed(f"{op} exited {proc.returncode}: {proc.stderr[-1500:]}")
        result = json.loads(out.read_text())
        if "probes" in result:
            factor = calibrate.scale(result["probes"])
            result["wall_s"] *= factor
            if "cpu_s" in result:
                result["cpu_s"] *= factor
        if spans is not None:
            result["layers"] = read_layers(spans, window=result.get("window"))
        return result

    def loop(self, do_op) -> list[dict]:
        """Operations until ``--seconds`` have passed. Untraced: at least
        ``MIN_OPS``. Traced: alternating untraced and traced, at least
        two of each (the untraced ones give the tracing overhead)."""
        results = []
        start = time.perf_counter()
        index = 0
        least = 4 if self.trace else MIN_OPS
        while index < least or time.perf_counter() - start < self.seconds:
            if time.perf_counter() - start > LOOP_CAP_S:
                break
            traced = self.trace and index % 2 == 1
            index += 1
            self.attempted += 1
            try:
                result = do_op(traced)
            except OpFailed as exc:
                self.fail(str(exc))
                continue
            result["traced"] = traced
            results.append(result)
        return results

    def expect_same(self, results: list[dict], key: str, what: str) -> None:
        """Count every operation whose check ``key`` differs from the first's."""
        for result in results[1:]:
            if result["check"][key] != results[0]["check"][key]:
                self.fail(f"{what} differs between operations")


def read_layers(spans_path: Path, *, window=None, ops: int = 1) -> dict:
    data = json.loads(spans_path.read_text())
    spans_path.unlink()
    return layer_metrics(data["spans"], data["events"], window=window, ops=ops)


# ---------------------------------------------------------------------------
# Workloads. Each returns (operation results, set-up samples, parameters).
# An operation result carries wall_s, cpu_s, peak_rss_mb, busy_s (wall
# time times the jobs it may use) and, when traced, layers.
# ---------------------------------------------------------------------------


def cold_build(run: Run):
    world = run.world(COLD_BUILD_WORLD)
    setups = [] if run.trace else [run.op("import", {})["wall_s"] for _ in range(SETUPS)]

    def build(traced: bool) -> dict:
        cache = run.path("cache")
        try:
            result = run.op(
                "build-store",
                {"world": world, "jobs": 2, "cache_dir": str(cache)},
                trace=traced,
            )
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        check = result["check"]
        if not check["reload_matches"]:
            raise OpFailed("the stored entry does not load back to the built world")
        if check["simulated"] != world["n_dasu_users"] + world["n_fcc_users"]:
            raise OpFailed(f"ledger counted {check['simulated']} simulated households")
        result["busy_s"] = 2 * result["wall_s"]
        return result

    results = run.loop(build)
    for key in ("digest", "simulated", "dasu_kept", "fcc_kept", "periods_kept"):
        run.expect_same(results, key, f"world {key}")
    ledger = {}
    if results:
        ledger = {k: results[0]["check"][k] for k in ("simulated", "dasu_kept", "fcc_kept")}
    return results, setups, {"world": world, "jobs": 2, "ledger": ledger}


def warm_report(run: Run):
    world = run.world(REPORT_WORLD)
    setups, digests, caches = [], set(), []
    for _ in range(1 if run.trace else SETUPS):
        cache = run.path("cache")
        built = run.op("build-store", {"world": world, "jobs": 2, "cache_dir": str(cache)})
        setups.append(built["wall_s"])
        digests.add(built["check"]["digest"])
        caches.append(cache)
    if len(digests) != 1:
        run.fail("set-ups built different worlds")
    for extra in caches[1:]:
        shutil.rmtree(extra)

    def report(traced: bool) -> dict:
        result = run.op(
            "report", {"world": world, "jobs": 1, "cache_dir": str(caches[0])},
            trace=traced,
        )
        if not result["check"]["cache_untouched"]:
            raise OpFailed("the report wrote to the world cache (not warm)")
        result["busy_s"] = result["wall_s"]
        return result

    results = run.loop(report)
    run.expect_same(results, "sha256", "report.txt")
    return results, setups, {"world": world, "jobs": 1}


def warm_sweep(run: Run):
    world = run.world(SWEEP_WORLD)
    seeds = [run.world_seed, run.world_seed + 1]
    params = {"world": world, "grid": SWEEP_GRID, "seeds": seeds, "jobs": 2}
    setups, caches, cold_sha = [], [], set()
    for _ in range(1 if run.trace else SETUPS):
        cache = run.path("cache")
        cold = run.op("sweep", dict(params, cache_dir=str(cache)))
        if cold["check"]["cache_hits"] != 0:
            run.fail("the set-up sweep found cached cells")
        setups.append(cold["wall_s"])
        cold_sha.add(cold["check"]["sha256"])
        caches.append(cache)
    for extra in caches[1:]:
        shutil.rmtree(extra)

    def sweep(traced: bool) -> dict:
        result = run.op("sweep", dict(params, cache_dir=str(caches[0])), trace=traced)
        check = result["check"]
        if check["cache_hits"] != check["cells"]:
            raise OpFailed(f"only {check['cache_hits']}/{check['cells']} cells were warm")
        if {check["sha256"]} != cold_sha:
            raise OpFailed("warm sweep.json differs from the cold one")
        result["busy_s"] = 2 * result["wall_s"]
        return result

    results = run.loop(sweep)
    return results, setups, {"world": world, "grid": SWEEP_GRID, "seeds": seeds, "jobs": 2}


class Daemon:
    """One ``repro serve`` process on a private copy of the warm state."""

    def __init__(self, run: Run, world: dict, state: Path, traced: bool) -> None:
        params = {
            "world": world, "jobs": 1, "interval_s": SERVE_POLL_S,
            "cache_dir": str(state / "cache"), "state_dir": str(state / "state"),
            "spool_dir": str(state / "spool"),
        }
        cmd, _out, self.spans = run.command("serve-daemon", params, trace=traced)
        self.log = state / "daemon.out"
        self.port: int | None = None
        self.started = time.perf_counter()
        with open(self.log, "w") as out, open(state / "daemon.err", "w") as err:
            self.proc = subprocess.Popen(cmd, env=run.env, cwd=ROOT, stdout=out, stderr=err)

    def ready(self, timeout_s: float = 60.0) -> tuple[float, str]:
        """Wait for the first 200 on /report.txt; returns (seconds since
        launch, its ETag)."""
        while self.port is None:
            found = re.search(r"chain on http://[\d.]+:(\d+)", self.log.read_text())
            if found:
                self.port = int(found.group(1))
            elif self.proc.poll() is not None:
                raise OpFailed(f"daemon exited {self.proc.returncode} during start-up")
            elif time.perf_counter() - self.started > timeout_s:
                raise OpFailed("daemon did not start")
            else:
                time.sleep(0.005)
        status, etag, _body = load.get(self.port, "/report.txt")
        if status != 200 or not etag:
            raise OpFailed(f"first /report.txt answered {status}")
        return time.perf_counter() - self.started, etag

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (Linux /proc)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> float:
        """SIGINT, then wait; the daemon shuts down cleanly (and, traced,
        writes its spans). Returns its peak RSS in MiB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGINT)
        deadline = time.perf_counter() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def serve_ingest(run: Run):
    world = run.world(SERVE_WORLD)
    warm = run.path("warm")
    run.op("serve-prep", {
        "world": world, "jobs": 2,
        "cache_dir": str(warm / "cache"), "state_dir": str(warm / "state"),
    })
    setups, results = [], []
    bodies: set[str] = set()
    measured_s = 0.0
    start = time.perf_counter()
    while True:
        if run.trace:
            measuring = len(results) < 2
        else:
            measuring = not results or measured_s < run.seconds
        if not measuring and (run.trace or len(setups) >= SETUPS):
            break
        if time.perf_counter() - start > LOOP_CAP_S:
            break
        traced = measuring and run.trace and len(results) == 1
        state = run.path("serve")
        shutil.copytree(warm, state)
        (state / "spool").mkdir()
        before = calibrate.probes()
        daemon = Daemon(run, world, state, traced=traced)
        window = None
        run.attempted += 1
        try:
            setup_s, etag = daemon.ready()
            setups.append(setup_s * calibrate.scale(before + calibrate.probes()))
            if measuring:
                before = calibrate.probes()
                cpu0 = daemon.cpu_s()
                window = load.ingest_window(
                    daemon.port, state / "spool", etag,
                    seed=run.seed * 100 + len(results), senders=SERVE_SENDERS,
                    rate_per_s=SERVE_RATE_PER_S, appends=SERVE_APPENDS,
                    delta=SERVE_APPEND,
                )
                window["cpu_s"] = daemon.cpu_s() - cpu0
                window["scale"] = calibrate.scale(before + calibrate.probes())
                status, final_etag, body = load.get(daemon.port, "/report.txt")
                if status != 200 or final_etag != window["etag"]:
                    run.fail("the final /report.txt is not the last ETag seen")
                bodies.add(body.decode("utf-8"))
        except (OpFailed, OSError) as exc:
            run.fail(str(exc))
        finally:
            peak = daemon.stop()
        if window is not None:
            reads = window["reads"]
            run.attempted += len(reads) + SERVE_APPENDS
            for status in (s[3] for s in reads):
                if status not in (200, 304):
                    run.fail(f"a read failed or was refused ({status})")
            for _ in range(window["failed_appends"]):
                run.fail("an append was never served")
            span = window["window"][1] - window["window"][0]
            measured_s += span
            if window["fresh_s"]:
                factor = window["scale"]
                fresh = [f * factor for f in window["fresh_s"]]
                result = {
                    "traced": traced, "fresh_s": fresh, "reads": reads,
                    "wall_s": statistics.median(fresh),
                    "cpu_s": window["cpu_s"] * factor, "peak_rss_mb": peak,
                    "busy_s": span * factor,
                }
                if traced:
                    result["layers"] = read_layers(
                        daemon.spans, window=window["window"],
                        ops=len(window["fresh_s"]),
                    )
                results.append(result)
        shutil.rmtree(state, ignore_errors=True)
    tip = dict(world)
    tip["n_dasu_users"] += SERVE_APPENDS * SERVE_APPEND["n_dasu_users"]
    tip["n_fcc_users"] += SERVE_APPENDS * SERVE_APPEND["n_fcc_users"]
    cold = run.path("cold.txt")
    run.op("render-cold", {"world": tip, "jobs": 2, "out": str(cold),
                           "cache_dir": str(run.path("cache"))})
    run.attempted += 1
    if bodies != {cold.read_text()}:
        run.fail("the served report differs from a cold render of the tip")
    return results, setups, {
        "world": world, "jobs": 1, "append": SERVE_APPEND, "appends": SERVE_APPENDS,
        "rate_per_s": SERVE_RATE_PER_S, "senders": SERVE_SENDERS,
        "read_mix": load.READ_MIX, "poll_s": SERVE_POLL_S,
    }


WORKLOADS = {
    "cold-build": cold_build,
    "warm-report": warm_report,
    "warm-sweep": warm_sweep,
    "serve-ingest": serve_ingest,
}


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def read_stats(results: list[dict]) -> dict:
    """Open-loop read latency of the untraced serve windows."""
    reads = [s for r in results if not r["traced"] for s in r.get("reads", ())]
    if not reads:
        return {}
    ok = [latency for _due, _lag, latency, status in reads if status in (200, 304)]
    return {
        "serve.read.p50_ms": percentile(ok, 50) * 1e3 if ok else 0.0,
        "serve.read.p99_ms": percentile(ok, 99) * 1e3 if ok else 0.0,
        "serve.read.samples": len(reads),
        "serve.read.fail_share": 1 - len(ok) / len(reads),
        "serve.generator.lag_p99_ms": percentile([s[1] for s in reads], 99) * 1e3,
    }


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    plain = [r for r in results if not r["traced"]]
    if not plain or not setups:
        raise OpFailed("no operation completed")
    walls = [w for r in plain for w in r.get("fresh_s", [r["wall_s"]])]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(results: list[dict], names: list[str]) -> dict:
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if not plain or not traced:
        raise OpFailed("need both untraced and traced operations")
    values = {
        name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
        for name in names
    }
    values["trace.overhead_share"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    values["core.executor.efficiency"] = statistics.median(
        r["cpu_s"] / r["busy_s"] for r in plain
    )
    values.update(read_stats(results))
    return values


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}
    run = Run(args)
    try:
        results, setups, params = WORKLOADS[args.workload](run)
        values = per_layer(results, names) if run.trace else end_to_end(results, setups)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    plain = sum(1 for r in results if not r["traced"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print("params " + json.dumps(params, sort_keys=True))
    print(f"operations: {plain} untraced, {len(results) - plain} traced; "
          f"set-ups: {len(setups)}")
    for name in names:
        print(f"  {name:42s} {values.get(name, 0.0):16.6f} {units[name]}")
    if not run.trace:
        for name, value in read_stats(results).items():
            print(f"  {name:42s} {value:16.6f}")
    for why in sorted(set(run.failures)):
        print(f"FAILED x{run.failures.count(why)}: {why}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
