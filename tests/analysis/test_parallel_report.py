"""Serial-vs-parallel equivalence of the analysis engine.

The report's fragments run through the same process pool as the world
builder; these tests pin the determinism guarantee — the rendered report
is byte-identical for any ``jobs`` — and the ledger contract behind
``--profile``.
"""

import re

import pytest

from repro.analysis.paper_report import fragment_keys, full_report, section_reports
from repro.exceptions import ReproError
from repro.obs.ledger import RunLedger, format_profile, scoped


@pytest.fixture(scope="module")
def serial_report(small_world) -> str:
    return full_report(
        small_world.dasu.users, small_world.fcc.users, small_world.survey
    )


class TestParallelEquivalence:
    def test_two_workers_byte_identical(self, small_world, serial_report):
        parallel = full_report(
            small_world.dasu.users,
            small_world.fcc.users,
            small_world.survey,
            jobs=2,
        )
        assert parallel == serial_report

    def test_without_optional_datasets(self, small_world):
        serial = full_report(small_world.dasu.users)
        parallel = full_report(small_world.dasu.users, jobs=2)
        assert parallel == serial

    def test_skipped_sections_identical_in_parallel(self, small_world):
        # A US-only subset cannot run the India analyses; the skip
        # marker (and its message) must not depend on the worker count.
        us_only = [u for u in small_world.dasu.users if u.country == "US"]
        serial = section_reports(us_only)
        parallel = section_reports(us_only, jobs=2)
        assert parallel == serial
        assert any("skipped" in s for s in serial)

    def test_invalid_jobs_rejected(self, small_world):
        with pytest.raises(ReproError):
            full_report(small_world.dasu.users, jobs=0)


def _report_ledger(small_world, jobs: int, **kwargs) -> RunLedger:
    """The run ledger of one full report rendered with ``jobs`` workers."""
    with scoped(RunLedger()) as ledger:
        full_report(small_world.dasu.users, jobs=jobs, **kwargs)
    return ledger


class TestProfiler:
    """``--profile`` renders the ledger's report/<key> spans, so every
    run must record exactly one such span per fragment."""

    @staticmethod
    def _fragment_spans(ledger: RunLedger) -> list[str]:
        return sorted(
            s.name.removeprefix("report/")
            for s in ledger.spans
            if s.name.startswith("report/")
        )

    def test_profiler_collects_every_fragment(self, small_world):
        assert len(fragment_keys()) == 19
        for jobs in (1, 2):
            ledger = _report_ledger(
                small_world,
                jobs,
                fcc=small_world.fcc.users,
                survey=small_world.survey,
            )
            assert self._fragment_spans(ledger) == sorted(fragment_keys())
            assert all(s.wall_s >= 0.0 and s.cpu_s >= 0.0 for s in ledger.spans)

    def test_parallel_profile_covers_same_fragments(self, small_world):
        serial = self._fragment_spans(_report_ledger(small_world, 1))
        parallel = self._fragment_spans(_report_ledger(small_world, 2))
        assert serial == parallel == sorted(fragment_keys())


def _masked_profile(ledger: RunLedger) -> str:
    """The rendered --profile table with every duration blanked out —
    what must be byte-identical across worker counts."""
    table = format_profile(ledger.spans, prefix="report/")
    # Absorb the numbers' right-align padding as well as their digits:
    # a duration crossing a power of ten between runs (slow CI box,
    # scheduling noise) changes its width, and that is still "only the
    # durations differ".
    return re.sub(r" *[0-9][0-9.]*", " #", table)


class TestReportLedger:
    def test_ledger_byte_identical_across_jobs(self, small_world):
        ledgers = []
        for jobs in (1, 4):
            ledgers.append(
                _report_ledger(
                    small_world,
                    jobs,
                    fcc=small_world.fcc.users,
                    survey=small_world.survey,
                )
            )
        assert ledgers[0].to_jsonl() == ledgers[1].to_jsonl()

    def test_spans_cover_every_fragment(self, small_world):
        ledger = _report_ledger(
            small_world,
            2,
            fcc=small_world.fcc.users,
            survey=small_world.survey,
        )
        names = {s.name for s in ledger.spans}
        for key in ("fig1", "table1", "fig6", "table7", "fig12", "iqb"):
            assert f"report/{key}" in names
        # Fragments may open nested analysis spans (the iqb fragment
        # records iqb/* spans), so count only the report/* ones.
        fragment_spans = sum(
            1 for s in ledger.spans if s.name.startswith("report/")
        )
        assert ledger.counters["report.fragments.run"] == fragment_spans

    def test_experiment_counters_recorded(self, small_world):
        ledger = _report_ledger(small_world, 2)
        assert ledger.counters["experiments.run"] > 0
        assert ledger.counters["matching.runs"] > 0

    def test_masked_profile_byte_identical_across_jobs(self, small_world):
        # Satellite: the --profile table once printed rows in wall-time
        # order, which made its bytes depend on scheduling noise. With
        # the name-sorted table, only the durations may differ.
        tables = []
        for jobs in (1, 4):
            tables.append(_masked_profile(_report_ledger(small_world, jobs)))
        assert tables[0] == tables[1]
