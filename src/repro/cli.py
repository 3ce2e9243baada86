"""Command-line interface.

The subcommands cover the study lifecycle::

    python -m repro build   --out DIR [--seed N --users N --fcc N --days D]
                            [--faults PROFILE --sanitize]
                            [--jobs N --no-cache --cache-dir DIR]
    python -m repro append  [--seed N --users N ...] --add-users N --add-fcc N
    python -m repro serve   [--seed N --users N ...] [--port P --spool DIR]
                            [--grid FILE --state-dir DIR]
    python -m repro analyze --data DIR --experiment NAME
    python -m repro report  [--data DIR | --seed N --users N ...] [--out FILE]
    python -m repro sweep   [--grid FILE] [--seeds N] [--experiments LIST]
                            [--out DIR] [--jobs N] [--trace]
    python -m repro iqb     [--data DIR | --seed N ...] [--config NAME|FILE]
                            [--out DIR] [--jobs N] [--trace]
    python -m repro export  --data DIR --out DIR

``build`` generates a world and persists it (users.csv, survey.csv,
config.json); ``analyze`` runs a single paper experiment against a
persisted dataset; ``report`` renders the full paper-vs-measured report.
Everything operates on the on-disk record formats, so third-party
datasets in the same schema work too. The experiments ``analyze``,
``report`` and ``sweep`` run are declared once, in
:mod:`repro.analysis.registry`; this module keeps no list of its own.

``build`` and ``report`` consult an on-disk world cache keyed by the
full configuration and package version (see
:mod:`repro.datasets.cache`): rebuilding the same world is an export
of the cached columns, and ``report`` without ``--data`` renders
straight from the cache, skipping the build entirely. ``--no-cache``
forces a fresh build; ``--jobs N`` shards the build across N worker
processes and runs the report's fragment DAG on an N-process pool, with
byte-identical output; ``report --profile`` prints per-fragment
wall/CPU timings to stderr.

``--faults {off,light,default,heavy}`` injects seeded measurement
pathologies (host churn, dropped/duplicated samples, counter
resets/wraps, failed NDT runs, clock skew, gateway gaps — see
:mod:`repro.faults`) and ``--sanitize`` runs the paper's data-cleaning
rules over the dirty collections (:mod:`repro.datasets.sanitize`),
printing the per-rule sanitization report. Both default off, in which
case output is byte-identical to builds that predate the flags.

``build --trace`` and ``report --trace`` write the run's observability
artifacts (see :mod:`repro.obs`): ``trace.jsonl``, the run ledger's
counters/gauges/spans in canonical order, and ``manifest.json``, the
provenance manifest (config + hash, seed, code and library versions).
Both are byte-identical for a fixed seed across any ``--jobs`` value,
and the trace's ``sanitize.*`` counters always equal the persisted
``sanitization.json``.

``dag run`` executes a declarative experiment DAG (see
:mod:`repro.dag`): ``--spec dag.json`` names the stages — or a
``{"pipeline": "report"|"sweep", ...}`` shorthand expanding to the
built-in pipelines — and every stage's output is content-addressed and
persisted under ``<out>/stages``. A killed run *resumes*: re-invoking
the same command reloads finished stages and re-executes only the
rest, with final artifacts (including ``trace.jsonl``) byte-identical
to an uninterrupted run, for either ``--backend`` and any ``--jobs``.
``report`` and ``sweep`` themselves run on the same scheduler
(in-memory, no stage store), so all three commands share one
execution path.

``append`` folds new households into a cached world without a full
rebuild (see :mod:`repro.datasets.append`): only the added household
index ranges are simulated, and the extended entry is byte-identical
to a cold build of the larger configuration. ``serve`` keeps the
append chain resident and serves the paper report over HTTP,
re-rendering only the report fragments whose input data changed (see
:mod:`repro.service`).

``sweep`` evaluates the paper's verdicts across a whole grid of worlds
(see :mod:`repro.sweep`): a declarative scenario grid (``--grid
grid.json`` — config overrides × fault severities) is crossed with
``--seeds N`` replicate seeds, every (scenario, seed) cell is built
through the shared world cache and fanned out over ``--jobs`` workers,
and the chosen ``--experiments`` run per cell. The verdict-stability
report (and ``sweep.json``, and the ``--trace`` artifacts — one merged
ledger and manifest per sweep) is byte-identical for any ``--jobs``
value and for warm vs cold caches.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis.registry import ANALYZE
from .core.executor import resolve_jobs
from .datasets import WorldConfig, build_world
from .datasets.cache import WorldCache, cache_key
from .faults import FAULT_PROFILES, fault_profile
from .obs.ledger import RunLedger, format_profile
from .obs.manifest import run_manifest, write_manifest
from .datasets.io import (
    load_dataset_dir,
    write_config_json,
    write_survey_csv,
    write_users_csv,
    write_users_npy,
)
from .exceptions import ReproError

__all__ = ["main"]

#: Experiments runnable via ``analyze``: the registry's entries with an
#: ``analyze`` summary (see :mod:`repro.analysis.registry`).
EXPERIMENTS = tuple(ANALYZE)


def _world_config(args: argparse.Namespace) -> WorldConfig:
    return WorldConfig(
        seed=args.seed,
        n_dasu_users=args.users,
        n_fcc_users=args.fcc,
        days_per_year=args.days,
        faults=fault_profile(getattr(args, "faults", "off")),
        sanitize=bool(getattr(args, "sanitize", False)),
    )


def _write_trace(ledger: RunLedger, manifest: dict, out_dir: Path) -> None:
    """Write the run's ledger stream and provenance manifest.

    Both artifacts are byte-identical for a fixed seed across any
    ``--jobs`` value: the ledger serializes in canonical event order
    with durations excluded, and the manifest carries no scheduling
    knobs or timestamps.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.jsonl").write_text(ledger.to_jsonl())
    write_manifest(manifest, out_dir / "manifest.json")
    print(f"trace written to {out_dir / 'trace.jsonl'}", file=sys.stderr)


def _build(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _world_config(args)
    cache = WorldCache(args.cache_dir)
    key = cache_key(config)
    cached = None if args.no_cache else cache.fetch_into(config, out)
    if cached is not None:
        print(f"cache hit ({key[:12]}): reused cached world, "
              "skipping build")
        print(f"wrote cached dataset to {out}")
        if args.trace:
            # An entry stored without a ledger has no recoverable build
            # events, so its stream is empty rather than wrong.
            _write_trace(
                cached.ledger or RunLedger(),
                run_manifest(config, command="build"),
                out,
            )
        return 0
    print(f"building world (seed={config.seed}, {config.n_dasu_users} "
          f"Dasu users, jobs={jobs})...", flush=True)
    ledger = RunLedger()
    world = build_world(config, jobs=jobs, ledger=ledger, ground_truth=False)
    columns = world.all_columns
    n_users = write_users_csv(columns, out / "users.csv")
    write_users_npy(columns, out / "users.npy")
    n_plans = write_survey_csv(world.survey_csv, out / "survey.csv")
    write_config_json(config, out / "config.json")
    if world.sanitization is not None:
        (out / "sanitization.json").write_text(
            json.dumps(
                world.sanitization.to_payload(), indent=2, sort_keys=True
            )
        )
        print(world.sanitization.format())
    print(f"wrote {n_users} user-period rows, {n_plans} plan rows to {out}")
    if args.trace:
        _write_trace(ledger, run_manifest(config, command="build"), out)
    if not args.no_cache:
        entry = cache.store(world)
        if entry is not None:
            print(f"cached world under key {key[:12]}")
    return 0


#: What ``analyze`` tells a dataset directory that lacks a dataset an
#: experiment needs.
_NEEDED_FILE = {
    "survey": "survey.csv next to users.csv",
    "fcc": "FCC users in users.csv",
}


def _analyze(args: argparse.Namespace) -> int:
    dasu, fcc, survey = load_dataset_dir(args.data)
    data = {"dasu": dasu, "fcc": fcc, "survey": survey}
    lines = [f"experiment: {args.experiment}"]
    for experiment in ANALYZE[args.experiment]:
        missing = experiment.missing(**data)
        if missing is not None:
            raise ReproError(
                f"{args.experiment} needs {_NEEDED_FILE[missing]}"
            )
        lines.extend(experiment.summary(experiment.run(**data)))
    print("\n".join(lines))
    return 0


def _report(args: argparse.Namespace) -> int:
    # The report runs as the fragment-level DAG (source, three world
    # slices, one stage per fragment, assembly): serially in-process
    # for --jobs 1, each wave across a --jobs process pool otherwise.
    # The source stage is a one-stage wave, so it always runs here and
    # prints the cache-hit/build messages to this process's stdout.
    from .dag import (
        InProcessBackend,
        ProcessPoolBackend,
        RunContext,
        report_spec,
        run_dag,
    )

    jobs = resolve_jobs(args.jobs)
    ledger = RunLedger()
    config = None
    data_dir = None
    if args.data is not None:
        data_dir = str(args.data)
        spec = report_spec(data_dir=data_dir)
    else:
        # No dataset directory: render from the world cache, building
        # (and caching) only on a miss.
        config = _world_config(args)
        spec = report_spec(config)
    result = run_dag(
        spec,
        backend=InProcessBackend() if jobs == 1 else ProcessPoolBackend(jobs),
        ledger=ledger,
        context=RunContext(
            jobs=jobs,
            cache_root=args.cache_dir,
            use_cache=not args.no_cache,
            data_dir=data_dir,
        ),
    )
    if config is not None and args.profile:
        world = result.artifact("world")
        if world.sanitization is not None:
            # Diagnostics channel: like the timing profile, the
            # sanitization accounting goes to stderr so the report
            # itself stays byte-identical and pipeable.
            print(world.sanitization.format(), file=sys.stderr)
    text = result.artifact("paper-report").files["report.txt"].removesuffix("\n")
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    if args.profile:
        # The profile is a view over the ledger's fragment-stage spans.
        # It goes to stderr so the report itself stays byte-identical
        # (and pipeable) whether or not it is requested.
        print(
            format_profile(ledger.spans, prefix="dag/stage/fragment/"),
            file=sys.stderr,
        )
    if args.trace:
        _write_trace(
            ledger,
            run_manifest(config, command="report", data_dir=data_dir),
            Path(args.trace_dir),
        )
    return 0


def _sweep(args: argparse.Namespace) -> int:
    from .sweep import (
        SWEEP_EXPERIMENTS,
        ScenarioGrid,
        run_sweep,
        sweep_files,
    )

    jobs = resolve_jobs(args.jobs)
    config = _world_config(args)
    grid = (
        ScenarioGrid.from_json(args.grid)
        if args.grid is not None
        else ScenarioGrid.baseline()
    )
    if args.seeds is not None:
        if args.seeds < 1:
            raise ReproError(
                f"--seeds must be a positive replicate count, got {args.seeds}"
            )
        seeds = tuple(config.seed + i for i in range(args.seeds))
    elif grid.seeds:
        seeds = grid.seeds
    else:
        seeds = (config.seed,)
    experiments = (
        tuple(key.strip() for key in args.experiments.split(",") if key.strip())
        if args.experiments
        else SWEEP_EXPERIMENTS
    )
    if args.trace and not args.out:
        raise ReproError("sweep --trace needs --out to hold the artifacts")
    print(
        f"sweeping {len(grid.scenarios)} scenarios x {len(seeds)} seeds "
        f"({len(grid.scenarios) * len(seeds)} cells, jobs={jobs})...",
        flush=True,
    )
    ledger = RunLedger()
    result = run_sweep(
        config,
        grid,
        seeds,
        experiments=experiments,
        jobs=jobs,
        cache_root=args.cache_dir,
        use_cache=not args.no_cache,
        ledger=ledger,
    )
    # Cache accounting is scheduling/state dependent, so it goes to
    # stderr: the report itself must be byte-identical cold vs warm.
    print(
        f"worlds from cache: {result.n_cache_hits}/{len(result.cells)}",
        file=sys.stderr,
    )
    files = sweep_files(result)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
        print(f"sweep report written to {out}")
        if args.trace:
            _write_trace(
                ledger,
                run_manifest(
                    config,
                    command="sweep",
                    extras={
                        "grid": grid.to_payload(),
                        "sweep_seeds": list(seeds),
                        "experiments": list(experiments),
                    },
                ),
                out,
            )
    else:
        print(files["report.txt"], end="")
    return 0


def _dag_run(args: argparse.Namespace) -> int:
    from .dag import DagSpec, DagStore, FileBundle, RunContext, get_backend, run_dag

    jobs = resolve_jobs(args.jobs)
    spec = DagSpec.from_json(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store = DagStore(out / "stages")
    if not args.resume:
        store.clear()
    backend = get_backend(args.backend, jobs=jobs)
    # The pool backend spends --jobs on stage-level fan-out; in-process
    # runs spend it on a world build's user shards. Either way the
    # artifacts are byte-identical for any value: jobs is a scheduling
    # knob, excluded from stage keys and stage outputs by construction.
    context = RunContext(
        jobs=jobs if args.backend == "inprocess" else 1,
        cache_root=args.cache_dir,
        use_cache=not args.no_cache,
        data_dir=args.data,
    )
    ledger = RunLedger()
    result = run_dag(
        spec, backend=backend, store=store, ledger=ledger, context=context
    )
    written: list[str] = []
    for stage in spec.topological_order():
        artifact = result.artifacts.get(stage.name)
        if isinstance(artifact, FileBundle):
            for name, text in artifact.files.items():
                path = out / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                written.append(name)
    (out / "trace.jsonl").write_text(ledger.to_jsonl())
    write_manifest(
        run_manifest(
            None,
            command="dag",
            data_dir=args.data,
            extras={"dag": spec.to_payload()},
        ),
        out / "manifest.json",
    )
    print(
        f"stages: {len(result.executed)} executed, "
        f"{len(result.cached)} resumed from {out / 'stages'}",
        file=sys.stderr,
    )
    files = ", ".join(written) if written else "no report files"
    print(f"dag '{spec.name}' complete: {files} in {out}")
    return 0


def _append(args: argparse.Namespace) -> int:
    from .datasets import AppendDelta, DeltaLog, append_world

    jobs = resolve_jobs(args.jobs)
    base = _world_config(args)
    cache = WorldCache(args.cache_dir)
    log = DeltaLog(base, cache=cache)
    parent = log.tip_config()
    delta = AppendDelta(
        n_dasu_users=args.add_users, n_fcc_users=args.add_fcc
    )
    result = append_world(
        parent,
        delta,
        jobs=jobs,
        cache=cache,
        use_cache=not args.no_cache,
        log=log,
    )
    how = (
        "already cached" if result.from_cache
        else "full rebuild (allocation shrank a country)" if result.rebuilt
        else "incremental append"
    )
    print(
        f"appended {delta.n_dasu_users} Dasu + {delta.n_fcc_users} FCC "
        f"users onto {cache_key(parent)[:12]} -> "
        f"{cache_key(result.config)[:12]} ({how})"
    )
    print(
        f"chain tip: {result.config.n_dasu_users} Dasu users, "
        f"{result.config.n_fcc_users} FCC users"
    )
    return 0


def _serve(args: argparse.Namespace) -> int:
    from .service import ReportServer, ReportService
    from .sweep import ScenarioGrid

    jobs = resolve_jobs(args.jobs)
    base = _world_config(args)
    cache = WorldCache(args.cache_dir)
    grid = ScenarioGrid.from_json(args.grid) if args.grid else None
    state_dir = (
        Path(args.state_dir)
        if args.state_dir is not None
        else cache.root / "serve-state"
    )
    service = ReportService(
        base,
        state_dir=state_dir,
        cache=cache,
        jobs=jobs,
        use_cache=not args.no_cache,
        grid=grid,
    )
    server = ReportServer(
        service,
        host=args.host,
        port=args.port,
        spool_dir=args.spool,
        interval_s=args.interval,
    )
    server.start()
    print(f"serving {cache_key(base)[:12]} chain on {server.url}", flush=True)
    if args.spool:
        print(f"watching spool directory {args.spool}", flush=True)
    if args.once:
        server.stop()
        return 0
    server.run()
    return 0


def _iqb(args: argparse.Namespace) -> int:
    from .analysis.iqb import (
        IQB_PRESETS,
        IqbConfig,
        format_iqb_report,
        iqb_barometer,
        iqb_payload,
        resolve_iqb_config,
    )
    from .datasets.cache import build_or_load_world
    from .obs import ledger as obs

    if args.trace and not args.out:
        raise ReproError("iqb --trace needs --out to hold the artifacts")
    jobs = resolve_jobs(args.jobs)
    if args.config is None or args.config in IQB_PRESETS:
        iqb_config = resolve_iqb_config(args.config)
    else:
        # Not a preset name: a path to an iqb.json config file.
        iqb_config = IqbConfig.from_json(args.config)
    ledger = RunLedger()
    config = None
    with obs.scoped(ledger):
        if args.data is not None:
            dasu, fcc, _ = load_dataset_dir(args.data)
        else:
            config = _world_config(args)
            world, from_cache = build_or_load_world(
                config,
                jobs=jobs,
                cache=WorldCache(args.cache_dir),
                use_cache=not args.no_cache,
                ground_truth=False,
            )
            if from_cache:
                print(
                    f"cache hit ({cache_key(config)[:12]}): "
                    "skipping build",
                    file=sys.stderr,
                )
            if world.ledger is not None:
                ledger.merge(world.ledger)
            dasu, fcc = world.dasu.columns, world.fcc.columns
        barometer = iqb_barometer(dasu, fcc, iqb_config)
        text, payload = format_iqb_report(barometer), iqb_payload(barometer)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "iqb.txt").write_text(text + "\n")
        (out / "iqb.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"barometer written to {out}")
    else:
        print(text)
    if args.trace:
        _write_trace(
            ledger,
            run_manifest(
                config,
                command="iqb",
                data_dir=None if args.data is None else str(args.data),
                extras={"iqb_config": iqb_config.to_payload()},
            ),
            Path(args.out),
        )
    return 0


def _export(args: argparse.Namespace) -> int:
    from .analysis.export import export_figure_data

    dasu, fcc, survey = load_dataset_dir(args.data)
    files = export_figure_data(Path(args.out), dasu, fcc, survey)
    print(f"wrote {len(files)} figure-data files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Need, Want, Can Afford' (IMC 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=20141105)
        p.add_argument("--users", type=int, default=2000,
                       help="Dasu users to simulate")
        p.add_argument("--fcc", type=int, default=400,
                       help="FCC gateways to simulate")
        p.add_argument("--days", type=float, default=1.5,
                       help="observed days per user per year")
        p.add_argument("--faults", default="off",
                       choices=("off", *FAULT_PROFILES),
                       help="inject seeded measurement faults at this "
                            "severity (default: off, byte-identical to "
                            "pre-fault-injection builds)")
        p.add_argument("--sanitize", action="store_true",
                       help="run the paper's data-cleaning rules while "
                            "building and report per-rule counts")

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the build and, under "
                            "'report', the fragment DAG's stage waves "
                            "(output is identical for any value; "
                            "default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore the world cache and rebuild")
        p.add_argument("--cache-dir", default=None,
                       help="world cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/worlds)")

    p_build = sub.add_parser("build", help="generate and persist a world")
    p_build.add_argument("--out", required=True, help="output directory")
    add_world_args(p_build)
    add_cache_args(p_build)
    p_build.add_argument("--trace", action="store_true",
                         help="write the run ledger (trace.jsonl) and "
                              "provenance manifest (manifest.json) next "
                              "to the dataset; byte-identical for any "
                              "--jobs value")
    p_build.set_defaults(func=_build)

    p_analyze = sub.add_parser("analyze", help="run one paper experiment")
    p_analyze.add_argument("--data", required=True,
                           help="directory written by 'build'")
    p_analyze.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_analyze.set_defaults(func=_analyze)

    p_report = sub.add_parser("report", help="full paper-vs-measured report")
    p_report.add_argument("--data",
                          help="directory written by 'build'; omit to "
                               "build/load a world from the cache instead")
    p_report.add_argument("--out", help="write the report to a file")
    p_report.add_argument("--profile", action="store_true",
                          help="print per-fragment wall/CPU timings of the "
                               "analysis stage to stderr (a view over the "
                               "run ledger)")
    p_report.add_argument("--trace", action="store_true",
                          help="write the run ledger (trace.jsonl) and "
                               "provenance manifest (manifest.json) to "
                               "--trace-dir; byte-identical for any "
                               "--jobs value")
    p_report.add_argument("--trace-dir", default=".",
                          help="directory for --trace artifacts "
                               "(default: current directory)")
    add_world_args(p_report)
    add_cache_args(p_report)
    p_report.set_defaults(func=_report)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate the paper's verdicts across a scenario grid",
    )
    p_sweep.add_argument("--grid",
                         help="scenario grid JSON (scenarios/axes/seeds); "
                              "omit for a baseline-only seed sweep")
    p_sweep.add_argument("--seeds", type=int, default=None,
                         help="replicate seeds per scenario (base seed, "
                              "base seed + 1, ...); overrides grid-declared "
                              "seeds")
    p_sweep.add_argument("--experiments", default=None,
                         help="comma-separated experiment subset "
                              "(default: every sweep-runnable experiment)")
    p_sweep.add_argument("--out",
                         help="directory for report.txt and sweep.json "
                              "(omit to print the report)")
    p_sweep.add_argument("--trace", action="store_true",
                         help="write one merged run ledger (trace.jsonl) "
                              "and provenance manifest (manifest.json) for "
                              "the whole sweep into --out; byte-identical "
                              "for any --jobs value")
    add_world_args(p_sweep)
    add_cache_args(p_sweep)
    p_sweep.set_defaults(func=_sweep)

    p_iqb = sub.add_parser(
        "iqb",
        help="internet quality barometer: use-case scores and markets",
        description=(
            "Grade every household's measured connection against a "
            "declarative use-case config (--config: a preset name or "
            "an iqb.json file), aggregate per-market barometer scores "
            "with Wilson intervals, and run the IQB-vs-demand matched "
            "experiment. Prints the barometer report; --out also "
            "writes iqb.txt and iqb.json, byte-identical for any "
            "--jobs value and for warm vs cold caches."
        ),
    )
    p_iqb.add_argument("--config", default=None,
                       help="IQB config: a preset name (default, "
                            "streaming) or a path to an iqb.json file "
                            "(default: the built-in default config)")
    p_iqb.add_argument("--data",
                       help="directory written by 'build'; omit to "
                            "build/load a world from the cache instead")
    p_iqb.add_argument("--out",
                       help="directory for iqb.txt and iqb.json "
                            "(omit to print the report only)")
    p_iqb.add_argument("--trace", action="store_true",
                       help="write the run ledger (trace.jsonl) and "
                            "provenance manifest (manifest.json) into "
                            "--out; byte-identical for any --jobs value")
    add_world_args(p_iqb)
    add_cache_args(p_iqb)
    p_iqb.set_defaults(func=_iqb)

    p_dag = sub.add_parser(
        "dag",
        help="declarative, resumable experiment DAGs (see repro.dag)",
    )
    dag_sub = p_dag.add_subparsers(dest="dag_command", required=True)
    p_dag_run = dag_sub.add_parser(
        "run",
        help="execute (or resume) a DAG spec into a run directory",
        description=(
            "Execute a declarative experiment DAG. --spec names a JSON "
            "spec: either an explicit stage list or a pipeline "
            "shorthand such as {\"pipeline\": \"sweep\", \"config\": "
            "{...}}. Every stage's output is content-addressed and "
            "persisted under <out>/stages, so a killed run resumes by "
            "re-invoking the same command: finished stages reload, "
            "unfinished ones re-execute, and the final artifacts are "
            "byte-identical to an uninterrupted run — for either "
            "backend and any --jobs value."
        ),
    )
    p_dag_run.add_argument("--spec", required=True,
                           help="DAG spec JSON (stage list or pipeline "
                                "shorthand)")
    p_dag_run.add_argument("--out", required=True,
                           help="run directory: stage store, report "
                                "files, trace.jsonl, manifest.json")
    p_dag_run.add_argument("--resume", default=True,
                           action=argparse.BooleanOptionalAction,
                           help="reuse completed stages from a previous "
                                "(possibly killed) run of the same spec "
                                "(--no-resume clears the stage store "
                                "first; default: resume)")
    p_dag_run.add_argument("--backend", default="inprocess",
                           choices=("inprocess", "pool"),
                           help="stage executor: 'inprocess' runs stages "
                                "serially in this process, 'pool' fans "
                                "each ready wave across --jobs worker "
                                "processes (identical output bytes)")
    p_dag_run.add_argument("--jobs", type=int, default=1,
                           help="worker processes: each ready wave's "
                                "stages under --backend pool, a world "
                                "build's shards under inprocess; output "
                                "is identical for any value")
    p_dag_run.add_argument("--no-cache", action="store_true",
                           help="ignore the world cache inside build "
                                "stages and rebuild")
    p_dag_run.add_argument("--cache-dir", default=None,
                           help="world cache directory (default: "
                                "$REPRO_CACHE_DIR or ~/.cache/repro/worlds)")
    p_dag_run.add_argument("--data", default=None,
                           help="dataset directory for specs with a "
                                "'load-data' stage")
    p_dag_run.set_defaults(func=_dag_run)

    p_append = sub.add_parser(
        "append",
        help="fold new households into a cached world (no full rebuild)",
        description=(
            "Incremental ingest: extend the cached world rooted at the "
            "base configuration (--seed/--users/...) by --add-users / "
            "--add-fcc households. Only the new household index ranges "
            "are simulated; the extended world is published as a normal "
            "cache entry byte-identical to a cold build of the larger "
            "configuration, and the append is recorded in a delta log "
            "so 'repro serve' replays the chain after a restart. "
            "Repeated appends stack: each extends the current chain tip."
        ),
    )
    add_world_args(p_append)
    add_cache_args(p_append)
    p_append.add_argument("--add-users", type=int, default=0,
                          help="additional Dasu users to fold in")
    p_append.add_argument("--add-fcc", type=int, default=0,
                          help="additional FCC gateways to fold in")
    p_append.set_defaults(func=_append)

    p_serve = sub.add_parser(
        "serve",
        help="warm report daemon over HTTP (see repro.service)",
        description=(
            "Keep the world chain rooted at the base configuration "
            "resident and serve its paper report over HTTP. Drop "
            "append-delta JSON files (or <name>.grid.json scenario "
            "grids) into --spool to ingest new periods; only report "
            "fragments whose input content digests changed re-execute. "
            "Endpoints: /report.txt /manifest.json /trace.jsonl "
            "/status.json /iqb.json /sweep.json /sweep-report.txt "
            "/healthz; "
            "content endpoints carry an ETag (the manifest hash) and "
            "honor If-None-Match."
        ),
    )
    add_world_args(p_serve)
    add_cache_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8423,
                         help="listen port (0 binds an ephemeral port)")
    p_serve.add_argument("--spool", default=None,
                         help="directory watched for append-delta and "
                              "grid JSON files")
    p_serve.add_argument("--state-dir", default=None,
                         help="fragment stage store directory (default: "
                              "<cache>/serve-state)")
    p_serve.add_argument("--grid", default=None,
                         help="scenario grid JSON; enables /sweep.json "
                              "and /sweep-report.txt")
    p_serve.add_argument("--interval", type=float, default=1.0,
                         help="spool poll interval in seconds")
    p_serve.add_argument("--once", action="store_true",
                         help="warm the snapshot, then exit immediately "
                              "(smoke-test mode)")
    p_serve.set_defaults(func=_serve)

    p_export = sub.add_parser(
        "export", help="write every figure's data series to CSV"
    )
    p_export.add_argument("--data", required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
