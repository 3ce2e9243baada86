"""One benchmark operation, run in a fresh interpreter.

Usage: ``python3 perfbench/ops.py OP PARAMS.json OUT.json [--trace SPANS.json]``

``run.py`` starts one of these per timed operation, so every operation
starts from the same process state and its peak RSS is its own. The
operation times itself (wall and CPU of this process plus its reaped
pool workers) and writes a JSON result to ``OUT.json``; output checks
run after the timed region. With ``--trace`` the layer wrappers of
:mod:`tracer` are installed first and the spans are written to
``SPANS.json`` when the operation ends.

``serve-daemon`` instead runs ``repro serve`` in this process until
SIGINT, writing its spans (if traced) on the way out.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

_START = time.perf_counter()
_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

# Entry points are called through their modules, so the layer wrappers
# a traced run installs there are the ones that run.
from repro import dag, datasets  # noqa: E402
from repro.faults import fault_profile  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

from calibrate import probes  # noqa: E402


def world_config(params: dict) -> datasets.WorldConfig:
    fields = dict(params)
    fields["faults"] = fault_profile(fields.get("faults") or "off")
    return datasets.WorldConfig(**fields)


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of this process and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _timed(fn):
    """Run ``fn`` between host-speed probes (see :mod:`calibrate`)."""
    before = probes()
    cpu0, _ = _usage()
    t0 = time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    cpu1, peak = _usage()
    return value, {
        "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak,
        "window": [t0, t1], "probes": before + probes(),
    }


def _columns_digest(world) -> str:
    digest = hashlib.sha256()
    for dataset in (world.dasu, world.fcc):
        digest.update(dataset.columns.rows.tobytes())
    return digest.hexdigest()


def op_import(params: dict) -> dict:
    """Importing ``repro``'s dataset and DAG modules in a fresh
    interpreter: what every command pays before any work (cold-build's
    set-up)."""
    return {"wall_s": _IMPORT_S, "probes": probes(6)}


def op_build_store(params: dict) -> dict:
    """Cold build plus store into an empty cache (cold-build's operation
    and warm-report's set-up)."""
    config = world_config(params["world"])
    cache = datasets.WorldCache(params["cache_dir"])

    def build_and_store():
        world = datasets.build_world(config, jobs=params["jobs"], ground_truth=False)
        cache.store(world)
        return world

    world, result = _timed(build_and_store)
    counters = world.ledger.counters
    reloaded = cache.load(config)
    result["check"] = {
        "digest": _columns_digest(world),
        "reload_matches": reloaded is not None
        and _columns_digest(reloaded) == _columns_digest(world),
        "simulated": counters.get("build.households.simulated", 0),
        "dasu_kept": counters.get("build.users.dasu", 0),
        "fcc_kept": counters.get("build.users.fcc", 0),
        "periods_kept": counters.get("build.periods.kept", 0),
    }
    return result


def op_report(params: dict) -> dict:
    """``repro report`` on a warm cache: load, materialize, render."""
    config = world_config(params["world"])
    cache_dir = Path(params["cache_dir"])
    entries = sorted(p.name for p in cache_dir.iterdir())

    def render():
        run = dag.run_dag(
            dag.report_spec(config),
            backend=dag.InProcessBackend(),
            context=dag.RunContext(jobs=params["jobs"], cache_root=str(cache_dir)),
        )
        return run.artifact("paper-report").files["report.txt"]

    text, result = _timed(render)
    result["check"] = {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "cache_untouched": sorted(p.name for p in cache_dir.iterdir()) == entries,
    }
    return result


def op_sweep(params: dict) -> dict:
    """``run_sweep`` over the cell worlds in ``cache_dir`` (cold on an
    empty cache: warm-sweep's set-up)."""
    from repro.sweep import ScenarioGrid, run_sweep, sweep_payload

    config = world_config(params["world"])
    grid = ScenarioGrid.from_payload(params["grid"])

    def sweep():
        return run_sweep(
            config, grid, seeds=params["seeds"], jobs=params["jobs"],
            cache_root=params["cache_dir"],
        )

    outcome, result = _timed(sweep)
    payload = json.dumps(sweep_payload(outcome), indent=2, sort_keys=True)
    result["check"] = {
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "cells": len(outcome.cells),
        "cache_hits": outcome.n_cache_hits,
    }
    return result


def op_serve_prep(params: dict) -> dict:
    """Warm the service's state: base world in the cache, every stage
    of the fragment report in the stage store."""
    from repro.service import ReportService

    config = world_config(params["world"])
    cache = datasets.WorldCache(params["cache_dir"])
    cache.store(datasets.build_world(config, jobs=params["jobs"], ground_truth=False))
    ReportService(config, state_dir=params["state_dir"], cache=cache).refresh()
    return {}


def op_render_cold(params: dict) -> dict:
    """Cold render of one configuration into an empty cache; the
    report text goes to ``params["out"]``."""
    config = world_config(params["world"])
    run = dag.run_dag(
        dag.report_spec(config),
        backend=dag.InProcessBackend(),
        context=dag.RunContext(jobs=params["jobs"], cache_root=params["cache_dir"]),
    )
    Path(params["out"]).write_text(run.artifact("paper-report").files["report.txt"])
    return {}


def op_serve_daemon(params: dict) -> dict:
    """``repro serve`` until SIGINT."""
    from repro.cli import main as repro_main

    world = params["world"]
    code = repro_main([
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--jobs", str(params["jobs"]),
        "--cache-dir", params["cache_dir"],
        "--state-dir", params["state_dir"],
        "--spool", params["spool_dir"],
        "--interval", str(params["interval_s"]),
        "--seed", str(world["seed"]),
        "--users", str(world["n_dasu_users"]),
        "--fcc", str(world["n_fcc_users"]),
        "--days", str(world["days_per_year"]),
    ])
    return {"exit": code}


OPS = {
    "import": op_import,
    "build-store": op_build_store,
    "report": op_report,
    "sweep": op_sweep,
    "serve-prep": op_serve_prep,
    "render-cold": op_render_cold,
    "serve-daemon": op_serve_daemon,
}


def main(argv: list[str]) -> int:
    op, params_path, out_path = argv[:3]
    spans_path = argv[4] if argv[3:4] == ["--trace"] else None
    params = json.loads(Path(params_path).read_text())
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer(run_id=Path(spans_path).stem)
        tracer.install()
    try:
        result = OPS[op](params)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
