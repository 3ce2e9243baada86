"""Executor-backend equivalence: identical bytes from either backend."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.dag import (
    BACKENDS,
    DagSpec,
    DagStore,
    InProcessBackend,
    ProcessPoolBackend,
    StageSpec,
    get_backend,
    run_dag,
)
from repro.exceptions import DagError
from repro.obs.ledger import RunLedger

from . import toy_kinds  # noqa: F401


def _wide_spec(n: int = 6) -> DagSpec:
    stages = [
        StageSpec(name=f"s{i}", kind="toy-emit",
                  config={"tag": f"s{i}", "value": i})
        for i in range(n)
    ]
    stages.append(
        StageSpec(
            name="sum",
            kind="toy-combine",
            depends_on=tuple(f"s{i}" for i in range(n)),
        )
    )
    return DagSpec(name="wide", stages=tuple(stages))


class TestBackendEquivalence:
    def test_artifacts_and_trace_identical(self):
        spec = _wide_spec()
        led_in, led_pool = RunLedger(), RunLedger()
        run_in = run_dag(spec, backend=InProcessBackend(), ledger=led_in)
        run_pool = run_dag(
            spec, backend=ProcessPoolBackend(jobs=3), ledger=led_pool
        )
        assert run_pool.artifacts == run_in.artifacts
        assert run_pool.keys == run_in.keys
        assert run_pool.output_hashes == run_in.output_hashes
        assert led_pool.to_jsonl() == led_in.to_jsonl()

    def test_pool_worker_count_invariant(self):
        spec = _wide_spec()
        ledgers = []
        for jobs in (1, 2, 5):
            ledger = RunLedger()
            run_dag(spec, backend=ProcessPoolBackend(jobs=jobs), ledger=ledger)
            ledgers.append(ledger.to_jsonl())
        assert len(set(ledgers)) == 1

    def test_cross_backend_resume(self, tmp_path):
        """A store written by one backend resumes under the other."""
        spec = _wide_spec()
        store = DagStore(tmp_path / "stages")
        first = run_dag(spec, backend=ProcessPoolBackend(jobs=2), store=store)
        second = run_dag(spec, backend=InProcessBackend(), store=store)
        assert second.executed == ()
        assert second.artifacts == first.artifacts


def _fan_spec(readers: int = 6) -> DagSpec:
    """One payload stage read by ``readers`` stages of the next wave."""
    stages = [StageSpec(name="src", kind="toy-payload", config={"value": 40})]
    stages.extend(
        StageSpec(name=f"r{i}", kind="toy-read", config={"offset": i},
                  depends_on=("src",))
        for i in range(readers)
    )
    return DagSpec(name="fan", stages=tuple(stages))


class TestSharedWaveInputs:
    def test_wave_input_pickled_at_most_once_per_worker(self):
        """A wave's input artifacts travel through the pool initializer,
        not inside each of the wave's tasks."""
        toy_kinds.Payload.pickles = 0
        result = run_dag(_fan_spec(6), backend=ProcessPoolBackend(jobs=2))
        assert [result.artifact(f"r{i}") for i in range(6)] == [
            40 + i for i in range(6)
        ]
        assert toy_kinds.Payload.pickles <= 2

    @pytest.mark.parametrize(
        "backend", [InProcessBackend(), ProcessPoolBackend(jobs=2)],
        ids=["inprocess", "pool"],
    )
    def test_no_artifact_outlives_the_run(self, backend):
        result = run_dag(_fan_spec(3), backend=backend)
        artifact = weakref.ref(result.artifact("src"))
        del result
        gc.collect()
        assert artifact() is None


class TestBackendRegistry:
    def test_names(self):
        assert BACKENDS == ("inprocess", "pool")
        assert get_backend("inprocess").name == "inprocess"
        assert get_backend("pool", jobs=2).name == "pool"

    def test_unknown_backend_rejected(self):
        with pytest.raises(DagError, match="unknown executor backend"):
            get_backend("cluster")

    def test_cli_choices_stay_in_sync(self):
        """The hardcoded argparse choices must track BACKENDS."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["dag", "run", "--spec", "s.json", "--out", "o",
             "--backend", "pool"]
        )
        assert args.backend in BACKENDS
