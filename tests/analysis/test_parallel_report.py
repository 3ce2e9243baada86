"""In-process vs process-pool equivalence of the report DAG.

``repro report`` runs the fragment-level DAG
(:func:`repro.dag.report_spec`) on the in-process backend for
``--jobs 1`` and on a process pool otherwise. These tests pin the
determinism guarantee — the rendered report and its run ledger are
byte-identical for either backend and any worker count, and equal to the
serial :func:`~repro.analysis.paper_report.full_report` — and the ledger
contract behind ``--profile``.
"""

import re

import pytest

from repro.analysis.paper_report import fragment_keys, full_report
from repro.dag import (
    InProcessBackend,
    ProcessPoolBackend,
    RunContext,
    report_spec,
    run_dag,
)
from repro.datasets import WorldCache
from repro.datasets.io import load_dataset_dir, write_users_npy
from repro.exceptions import ReproError
from repro.obs.ledger import RunLedger, format_profile

from ..conftest import SMALL_WORLD_CONFIG

#: The span prefix ``--profile`` renders: one span per fragment stage.
FRAGMENT_SPANS = "dag/stage/fragment/"


@pytest.fixture(scope="module")
def cache_root(small_world, tmp_path_factory):
    """A world cache holding ``small_world``, for the config route."""
    root = tmp_path_factory.mktemp("parallel-report-cache")
    WorldCache(root).store(small_world)
    return str(root)


@pytest.fixture(scope="module")
def serial_report(small_world) -> str:
    return full_report(
        small_world.dasu.columns, small_world.fcc.columns, small_world.survey
    )


def _backend(jobs: int):
    return InProcessBackend() if jobs == 1 else ProcessPoolBackend(jobs)


def _report(
    jobs: int,
    *,
    cache_root: str | None = None,
    data_dir=None,
    ledger: RunLedger | None = None,
) -> str:
    """``repro report --jobs N``: the report DAG on that backend, from
    the cached ``small_world`` or from a ``--data`` directory."""
    if data_dir is not None:
        spec = report_spec(data_dir=str(data_dir))
    else:
        spec = report_spec(SMALL_WORLD_CONFIG)
    run = run_dag(
        spec,
        backend=_backend(jobs),
        ledger=ledger,
        context=RunContext(
            cache_root=cache_root,
            data_dir=None if data_dir is None else str(data_dir),
        ),
    )
    return run.artifact("paper-report").files["report.txt"].removesuffix("\n")


def _data_dir(path, dasu) -> str:
    """A ``--data`` directory holding only ``dasu`` (no FCC, no survey)."""
    path.mkdir()
    write_users_npy(dasu, path / "users.npy")
    return str(path)


class TestParallelEquivalence:
    def test_two_workers_byte_identical(self, cache_root, serial_report):
        serial = _report(1, cache_root=cache_root)
        parallel = _report(2, cache_root=cache_root)
        assert serial == parallel == serial_report

    def test_without_optional_datasets(self, small_world, tmp_path):
        data = _data_dir(tmp_path / "dasu-only", small_world.dasu.columns)
        serial = _report(1, data_dir=data)
        parallel = _report(2, data_dir=data)
        assert parallel == serial == full_report(*load_dataset_dir(data))
        assert "Table 4" not in serial  # needs the survey

    def test_skipped_sections_identical_in_parallel(self, small_world, tmp_path):
        # A US-only subset cannot run the India analyses; the skip
        # marker (and its message) must not depend on the backend.
        users = small_world.dasu.columns
        us_only = users.select_users(users.current("country") == b"US")
        data = _data_dir(tmp_path / "us-only", us_only)
        serial = _report(1, data_dir=data)
        parallel = _report(2, data_dir=data)
        assert parallel == serial
        assert "[section skipped:" in serial

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ReproError):
            ProcessPoolBackend(0)


def _report_ledger(cache_root: str, jobs: int) -> RunLedger:
    """The run ledger of one report DAG run with ``jobs`` workers."""
    ledger = RunLedger()
    _report(jobs, cache_root=cache_root, ledger=ledger)
    return ledger


def _fragment_spans(ledger: RunLedger) -> list[str]:
    return sorted(
        s.name.removeprefix(FRAGMENT_SPANS)
        for s in ledger.spans
        if s.name.startswith(FRAGMENT_SPANS)
    )


class TestProfiler:
    """``--profile`` renders the ledger's fragment-stage spans, so every
    run must record exactly one such span per fragment."""

    def test_profiler_collects_every_fragment(self, cache_root):
        assert len(fragment_keys()) == 19
        for jobs in (1, 2):
            ledger = _report_ledger(cache_root, jobs)
            assert _fragment_spans(ledger) == sorted(fragment_keys())
            assert all(s.wall_s >= 0.0 and s.cpu_s >= 0.0 for s in ledger.spans)

    def test_parallel_profile_covers_same_fragments(self, cache_root):
        serial = _fragment_spans(_report_ledger(cache_root, 1))
        parallel = _fragment_spans(_report_ledger(cache_root, 2))
        assert serial == parallel == sorted(fragment_keys())


def _masked_profile(ledger: RunLedger) -> str:
    """The rendered --profile table with every duration blanked out —
    what must be byte-identical across worker counts."""
    table = format_profile(ledger.spans, prefix=FRAGMENT_SPANS)
    # Absorb the numbers' right-align padding as well as their digits:
    # a duration crossing a power of ten between runs (slow CI box,
    # scheduling noise) changes its width, and that is still "only the
    # durations differ".
    return re.sub(r" *[0-9][0-9.]*", " #", table)


class TestReportLedger:
    def test_ledger_byte_identical_across_jobs(self, cache_root):
        ledgers = [_report_ledger(cache_root, jobs) for jobs in (1, 4)]
        assert ledgers[0].to_jsonl() == ledgers[1].to_jsonl()

    def test_spans_cover_every_fragment(self, cache_root):
        ledger = _report_ledger(cache_root, 2)
        names = {s.name for s in ledger.spans}
        for key in ("fig1", "table1", "fig6", "table7", "fig12", "iqb"):
            assert f"{FRAGMENT_SPANS}{key}" in names
        # Source, three slices, every fragment and the assembly, each
        # completed exactly once.
        assert ledger.counters["dag.stages.completed"] == len(fragment_keys()) + 5

    def test_experiment_counters_recorded(self, cache_root):
        ledger = _report_ledger(cache_root, 2)
        assert ledger.counters["experiments.run"] > 0
        assert ledger.counters["matching.runs"] > 0

    def test_masked_profile_byte_identical_across_jobs(self, cache_root):
        # The --profile table once printed rows in wall-time order,
        # which made its bytes depend on scheduling noise. With the
        # name-sorted table, only the durations may differ.
        ledgers = [_report_ledger(cache_root, jobs) for jobs in (1, 4)]
        assert _masked_profile(ledgers[0]) == _masked_profile(ledgers[1])
        table = format_profile(ledgers[1].spans, prefix=FRAGMENT_SPANS)
        rows = [line.split()[0] for line in table.splitlines()[1:]]
        assert rows == sorted(fragment_keys()) + ["total"]
