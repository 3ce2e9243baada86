"""Golden snapshots of the full report and of ``repro analyze``.

The parallel/cached build refactor must not change a single analysis
number, so the complete ``full_report`` text for a small fixed-seed
world is pinned byte-for-byte under ``tests/golden/``, and so is the
stdout of ``repro analyze`` for every experiment over a ``repro build``
of the same world. Any behavioral drift in the generative substrate,
the measurement clients, or the analysis toolkit fails these tests
loudly.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_report.py --regen-golden

then review the golden diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.paper_report import full_report
from repro.cli import EXPERIMENTS, main
from repro.datasets import WorldConfig, build_world
from repro.datasets.io import read_config_json

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REPORT = GOLDEN_DIR / "full_report_seed11.txt"
GOLDEN_ANALYZE = GOLDEN_DIR / "analyze_seed11.txt"

#: Small enough to build in ~1 s, large enough that every report section
#: has data. Changing this config invalidates the snapshot — regenerate.
GOLDEN_CONFIG = WorldConfig(
    seed=11, n_dasu_users=400, n_fcc_users=80, days_per_year=1.0
)


@pytest.fixture(scope="module")
def report_text() -> str:
    world = build_world(GOLDEN_CONFIG)
    return full_report(world.dasu.columns, world.fcc.columns, world.survey)


def _check_golden(path: Path, text: str, request) -> None:
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        "golden snapshot missing — regenerate with "
        "`python -m pytest tests/test_golden_report.py --regen-golden`"
    )
    assert text == path.read_text(), (
        f"output drifted from the golden snapshot {path.name}; if the "
        "change is intentional, regenerate with --regen-golden and review "
        "the diff"
    )


def test_full_report_matches_golden(report_text, request):
    _check_golden(GOLDEN_REPORT, report_text + "\n", request)


def test_analyze_matches_golden(tmp_path, capsys, request):
    """``repro analyze`` for every experiment, in ``EXPERIMENTS`` order,
    over a ``repro build`` of :data:`GOLDEN_CONFIG`."""
    data = tmp_path / "data"
    rc = main([
        "build", "--out", str(data), "--no-cache",
        "--seed", str(GOLDEN_CONFIG.seed),
        "--users", str(GOLDEN_CONFIG.n_dasu_users),
        "--fcc", str(GOLDEN_CONFIG.n_fcc_users),
        "--days", str(GOLDEN_CONFIG.days_per_year),
    ])
    assert rc == 0
    assert read_config_json(data / "config.json") == GOLDEN_CONFIG
    capsys.readouterr()
    for key in EXPERIMENTS:
        assert main(["analyze", "--data", str(data), "--experiment", key]) == 0
    _check_golden(GOLDEN_ANALYZE, capsys.readouterr().out, request)


def test_report_is_parallel_invariant(report_text):
    """The pinned report is also what a 2-worker build produces."""
    world = build_world(GOLDEN_CONFIG, jobs=2, chunk_size=17)
    parallel_text = full_report(
        world.dasu.columns, world.fcc.columns, world.survey
    )
    assert parallel_text == report_text
