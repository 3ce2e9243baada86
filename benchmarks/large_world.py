"""Large-world scaling harness: build + report at 10^5-household scale.

Measures wall time and peak RSS for the two halves of the pipeline —
the columnar build/store path and the report path — at world sizes far
beyond the test fixtures, and optionally enforces a memory ceiling
(nonzero exit when ``ru_maxrss`` exceeds ``--max-rss-mb``), which is how
the ``large-world`` CI job keeps the data plane sub-O(objects).

Peak RSS is a per-process high-water mark, so the interesting stages run
as separate invocations::

    # Build 100k households straight onto columns, store the shard.
    python benchmarks/large_world.py --stage build \\
        --users 100000 --fcc 10000 --cache-dir /tmp/bench-cache \\
        --max-rss-mb 4096

    # Load the shard (memory-mapped) and render the full report.
    python benchmarks/large_world.py --stage report \\
        --users 100000 --fcc 10000 --cache-dir /tmp/bench-cache

``--stage all`` runs both in one process (one combined high-water mark).
Results print as one JSON object; ``--out`` also writes it to a file for
the methodology scaling table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from repro.analysis.paper_report import full_report
from repro.datasets import WorldConfig, build_world
from repro.datasets.cache import WorldCache


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return raw / (1024 * 1024)
    return raw / 1024


def _config(args: argparse.Namespace) -> WorldConfig:
    return WorldConfig(
        seed=args.seed,
        n_dasu_users=args.users,
        n_fcc_users=args.fcc,
        days_per_year=args.days,
    )


def run_build(args: argparse.Namespace, results: dict) -> None:
    config = _config(args)
    cache = WorldCache(args.cache_dir)
    started = time.perf_counter()
    # ground_truth=False: the measurement benchmark has no use for the
    # latent need/budget objects, and skipping them is what the CLI does.
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    world = build_world(config, jobs=jobs, ground_truth=False)
    results["build_s"] = round(time.perf_counter() - started, 2)
    columns = world.all_columns
    results["rows"] = columns.n_rows
    results["users"] = columns.n_users
    results["columns_mb"] = round(columns.nbytes / (1024 * 1024), 1)
    started = time.perf_counter()
    entry = cache.store(world)
    results["store_s"] = round(time.perf_counter() - started, 2)
    results["entry"] = str(entry)
    return None


def run_report(args: argparse.Namespace, results: dict) -> None:
    config = _config(args)
    cache = WorldCache(args.cache_dir)
    started = time.perf_counter()
    world = cache.load(config)
    if world is None:
        raise SystemExit(
            "no cached world for this config — run --stage build first "
            "(same --users/--fcc/--days/--seed/--cache-dir)"
        )
    results["load_s"] = round(time.perf_counter() - started, 2)
    started = time.perf_counter()
    text = full_report(world.dasu.columns, world.fcc.columns, world.survey)
    results["report_s"] = round(time.perf_counter() - started, 2)
    results["report_lines"] = text.count("\n") + 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stage", choices=("build", "report", "all"), default="all"
    )
    parser.add_argument("--users", type=int, default=100_000)
    parser.add_argument("--fcc", type=int, default=10_000)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=20141105)
    parser.add_argument(
        "--jobs", type=int, default=None, help="default: all CPUs"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="world cache root (default: env)"
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="fail (exit 1) if peak RSS exceeds this many MiB",
    )
    parser.add_argument("--out", default=None, help="also write JSON here")
    args = parser.parse_args(argv)

    results: dict = {
        "stage": args.stage,
        "n_dasu_users": args.users,
        "n_fcc_users": args.fcc,
        "days_per_year": args.days,
        "seed": args.seed,
    }
    if args.stage in ("build", "all"):
        run_build(args, results)
    if args.stage in ("report", "all"):
        run_report(args, results)
    results["peak_rss_mb"] = round(peak_rss_mb(), 1)

    print(json.dumps(results, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
    if args.max_rss_mb is not None and results["peak_rss_mb"] > args.max_rss_mb:
        print(
            f"FAIL: peak RSS {results['peak_rss_mb']} MiB exceeds the "
            f"--max-rss-mb ceiling of {args.max_rss_mb} MiB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
