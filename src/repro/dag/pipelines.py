"""Built-in stage kinds and the pipeline templates built from them.

This module is where the paper's fixed chain (build world → sanitize →
match → verdict → report) meets the generic DAG runtime: each link
becomes a registered stage kind, and the two production pipelines —
``repro report`` and ``repro sweep`` — become thin spec builders over
those kinds. The CLI and the sweep engine call :func:`report_spec` /
:func:`sweep_spec`; ``repro dag run`` additionally accepts the
``{"pipeline": ..., "config": ...}`` shorthand via
:func:`expand_pipeline`.

Registered kinds:

``build``
    Build (or load from the world cache) the world for a full
    ``WorldConfig`` payload. Sanitization and fault injection run
    inside the build when the config enables them, exactly as in the
    non-DAG pipeline. Output-fingerprinted by world-cache key, since a
    cache-loaded world memory-maps its columns and would pickle
    differently from a value-identical fresh build.
``load-data``
    Read a pre-built dataset directory (``repro report --data``). Not
    cacheable: the directory's contents are outside the spec.
``report``
    Render the full paper-vs-measured report from its one dependency
    (a built world or a loaded dataset).
``sweep-cell``
    One (scenario, seed) sweep cell: build/load the world, run the
    chosen experiments, return the cell's verdicts.
``sweep-report``
    Fold every cell into the verdict-stability report and the
    ``sweep.json`` payload.

All kind callables are module-level functions, so any pipeline runs
unchanged on the process-pool backend.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..datasets.cache import WorldCache, build_or_load_world, cache_key
from ..datasets.io import config_from_payload, config_payload, survey_csv_text
from ..datasets.world import World, WorldConfig
from ..exceptions import DagError
from ..faults import fault_profile
from ..obs.ledger import current
from .spec import DagSpec, StageSpec, register_stage_kind

__all__ = [
    "DatasetTriple",
    "FileBundle",
    "WorldSlice",
    "expand_pipeline",
    "fragment_report_spec",
    "report_spec",
    "sweep_spec",
]


@dataclass(frozen=True)
class FileBundle:
    """Named text files a stage wants materialized by ``dag run``.

    The scheduler treats a bundle like any other artifact; only the CLI
    gives it meaning, writing each entry into the run's ``--out``
    directory after the DAG completes.
    """

    files: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", dict(self.files))


@dataclass(frozen=True)
class DatasetTriple:
    """A loaded dataset directory: the ``load-data`` kind's artifact."""

    dasu: tuple
    fcc: tuple
    survey: Any


@dataclass(frozen=True)
class WorldSlice:
    """One named view of a world (``dasu``, ``fcc``, or ``survey``) plus
    its content digest.

    The digest — SHA-256 over the slice's canonical byte rendering, not
    over a pickle — is the slice stage's output fingerprint, so a
    downstream fragment's stage key changes exactly when the *data it
    reads* changes. Appending households re-hashes the dasu slice but
    leaves the survey digest untouched, which is what confines the
    recompute to the fragments whose inputs actually moved.
    """

    name: str
    data: Any
    digest: str


@dataclass(frozen=True)
class CellOutcome:
    """A sweep cell's result plus its (scheduling-state) cache flag."""

    result: Any  # CellResult; typed loosely to keep imports lazy
    #: Whether the cell's *world* came from the world cache — stderr
    #: accounting only, excluded from the cell's output fingerprint so
    #: warm and cold runs key (and therefore resume) identically.
    from_cache: bool = False


# ---------------------------------------------------------------------------
# Stage kinds. Lazy imports below break the repro.sweep → repro.dag →
# repro.sweep cycle (the sweep engine schedules through the DAG).
# ---------------------------------------------------------------------------


def _build_kind(config: dict, inputs: dict, ctx) -> World:
    world_config = config_from_payload(config["world"])
    cache = WorldCache(ctx.cache_root)
    key = cache_key(world_config)
    world = cache.load(world_config) if ctx.use_cache else None
    if world is not None:
        print(f"cache hit ({key[:12]}): skipping build")
    else:
        print(
            f"building world (seed={world_config.seed}, "
            f"{world_config.n_dasu_users} Dasu users, jobs={ctx.jobs})...",
            flush=True,
        )
        world, _ = build_or_load_world(
            world_config,
            jobs=ctx.jobs,
            cache=cache,
            use_cache=ctx.use_cache,
            ground_truth=False,
        )
    ambient = current()
    if ambient is not None and world.ledger is not None:
        # Fold the build's events (fresh or cached — the cache stores
        # each build's trace) into this stage's shard, so hit and miss
        # runs trace identically.
        ambient.merge(world.ledger)
    return world


def _build_fingerprint(world: World) -> str:
    return cache_key(world.config)


def _load_data_kind(config: dict, inputs: dict, ctx) -> DatasetTriple:
    from ..cli import _load  # lazy: cli imports this module's package

    if ctx.data_dir is None:
        raise DagError("the load-data kind needs RunContext.data_dir")
    from pathlib import Path

    dasu, fcc, survey = _load(Path(ctx.data_dir))
    return DatasetTriple(dasu=tuple(dasu), fcc=tuple(fcc), survey=survey)


def _report_kind(config: dict, inputs: dict, ctx) -> FileBundle:
    from ..analysis.paper_report import full_report

    if len(inputs) != 1:
        raise DagError(
            f"the report kind takes exactly one dependency, got "
            f"{sorted(inputs)}"
        )
    (data,) = inputs.values()
    if isinstance(data, World):
        dasu, fcc, survey = data.dasu.users, data.fcc.users, data.survey
    elif isinstance(data, DatasetTriple):
        dasu, fcc, survey = data.dasu, data.fcc, data.survey
    else:
        raise DagError(
            f"the report kind needs a world or dataset input, got "
            f"{type(data).__name__}"
        )
    text = full_report(dasu, fcc, survey, jobs=ctx.jobs)
    return FileBundle(files={"report.txt": text + "\n"})


def _sweep_cell_kind(config: dict, inputs: dict, ctx) -> CellOutcome:
    from ..sweep.engine import _CellTask, _run_cell

    world_config = config_from_payload(config["world"])
    task = _CellTask(
        scenario=str(config["scenario"]),
        seed=int(config["seed"]),
        config=world_config,
        experiments=tuple(config["experiments"]),
        cache_root=ctx.cache_root,
        use_cache=ctx.use_cache,
        iqb_config=config.get("iqb_config"),
    )
    result, from_cache = _run_cell(task)
    return CellOutcome(result=result, from_cache=from_cache)


def _sweep_cell_fingerprint(outcome: CellOutcome) -> str:
    # Address by the cell's result alone: the cache flag is scheduling
    # state and must not re-key downstream stages between runs.
    from .store import hash_artifact

    return hash_artifact(outcome.result)[1]


def _sweep_report_kind(config: dict, inputs: dict, ctx) -> FileBundle:
    from ..sweep.engine import SweepResult
    from ..sweep.grid import ScenarioGrid
    from ..sweep.report import format_sweep_report, sweep_payload

    grid = ScenarioGrid.from_payload(config["grid"])
    sweep = SweepResult(
        grid=grid,
        base_config=config_from_payload(config["base"]),
        seeds=tuple(int(s) for s in config["seeds"]),
        experiments=tuple(config["experiments"]),
        cells=tuple(inputs[name].result for name in config["cells"]),
    )
    return FileBundle(
        files={
            "report.txt": format_sweep_report(sweep) + "\n",
            "sweep.json": json.dumps(
                sweep_payload(sweep), indent=2, sort_keys=True
            )
            + "\n",
        }
    )


def _world_slice_kind(config: dict, inputs: dict, ctx) -> WorldSlice:
    name = str(config["slice"])
    (data,) = inputs.values()
    if isinstance(data, World):
        dasu, fcc, survey = data.dasu, data.fcc, data.survey
        if name == "dasu":
            return WorldSlice(
                name=name,
                data=dasu.users,
                digest=hashlib.sha256(
                    np.ascontiguousarray(dasu.columns.rows).tobytes()
                ).hexdigest(),
            )
        if name == "fcc":
            return WorldSlice(
                name=name,
                data=fcc.users,
                digest=hashlib.sha256(
                    np.ascontiguousarray(fcc.columns.rows).tobytes()
                ).hexdigest(),
            )
        if name == "survey":
            return WorldSlice(
                name=name,
                data=survey,
                digest=hashlib.sha256(
                    survey_csv_text(survey).encode("utf-8")
                ).hexdigest(),
            )
        raise DagError(f"unknown world slice {name!r}")
    raise DagError(
        f"the world-slice kind needs a world input, got "
        f"{type(data).__name__}"
    )


def _world_slice_fingerprint(slice_: WorldSlice) -> str:
    return slice_.digest


def _report_fragment_kind(config: dict, inputs: dict, ctx) -> dict:
    from ..analysis.paper_report import fragment_keys, render_fragment

    key = str(config["fragment"])
    if key not in fragment_keys():
        raise DagError(
            f"unknown report fragment {key!r}; known fragments: "
            f"{', '.join(fragment_keys())}"
        )
    slices: dict[str, Any] = {}
    for value in inputs.values():
        if not isinstance(value, WorldSlice):
            raise DagError(
                f"the report-fragment kind takes world-slice inputs, got "
                f"{type(value).__name__}"
            )
        slices[value.name] = value.data
    text, error = render_fragment(
        key,
        dasu=slices.get("dasu", ()),
        fcc=slices.get("fcc"),
        survey=slices.get("survey"),
    )
    # Text and error only — no timings, no wall-clock state — so an
    # unchanged fragment pickles to unchanged bytes and downstream
    # assembly keys stay stable across runs.
    return {"text": text, "error": error}


def _report_assemble_kind(config: dict, inputs: dict, ctx) -> FileBundle:
    from ..analysis.paper_report import assemble_report

    fragments: dict[str, tuple] = {}
    slices: dict[str, WorldSlice] = {}
    for dep_name, value in inputs.items():
        if isinstance(value, WorldSlice):
            slices[value.name] = value
        elif isinstance(value, dict) and dep_name.startswith("fragment/"):
            fragments[dep_name.split("/", 1)[1]] = (
                value.get("text"), value.get("error"),
            )
        else:
            raise DagError(
                f"unexpected report-assemble input {dep_name!r}"
            )
    for required in ("dasu", "fcc", "survey"):
        if required not in slices:
            raise DagError(
                f"the report-assemble kind needs the {required!r} slice"
            )
    survey = slices["survey"].data
    text = assemble_report(
        fragments,
        n_dasu=len(slices["dasu"].data),
        n_fcc=len(slices["fcc"].data),
        n_plans=None if survey is None else survey.n_plans,
    )
    return FileBundle(files={"report.txt": text + "\n"})


register_stage_kind("build", _build_kind, fingerprint=_build_fingerprint)
register_stage_kind("load-data", _load_data_kind, cacheable=False)
register_stage_kind("report", _report_kind)
register_stage_kind(
    "sweep-cell", _sweep_cell_kind, fingerprint=_sweep_cell_fingerprint
)
register_stage_kind("sweep-report", _sweep_report_kind)
#: The fragment pipeline's world stage: same callable as ``build``, but
#: not cacheable — a resident service re-slices its warm world every
#: refresh (loading from the world cache is an mmap, not a rebuild), and
#: a pickled World in the DAG store would duplicate the whole dataset.
register_stage_kind(
    "world-source",
    _build_kind,
    fingerprint=_build_fingerprint,
    cacheable=False,
)
#: Slices re-run with the world (cheap views), but their *output hash*
#: is the content digest, so fragment stage keys — and therefore the
#: store hits that skip recompute — follow the data, not the schedule.
register_stage_kind(
    "world-slice",
    _world_slice_kind,
    fingerprint=_world_slice_fingerprint,
    cacheable=False,
)
register_stage_kind("report-fragment", _report_fragment_kind)
register_stage_kind("report-assemble", _report_assemble_kind)


# ---------------------------------------------------------------------------
# Pipeline templates: the paper's two production pipelines as specs.
# ---------------------------------------------------------------------------


def _world_payload(raw: Mapping | WorldConfig, where: str) -> dict:
    """A full canonical config payload from a (possibly partial) one.

    Accepts a ``WorldConfig`` or a payload dict; a ``"faults"`` profile
    *name* is resolved for hand-written specs. Round-tripping through
    :class:`WorldConfig` validates and fills defaults, so every stage
    config carries the complete, canonical world description.
    """
    if isinstance(raw, WorldConfig):
        return config_payload(raw)
    if not isinstance(raw, Mapping):
        raise DagError(f"{where} must be a world-config object, got {raw!r}")
    data = dict(raw)
    if isinstance(data.get("faults"), str):
        profile = fault_profile(data["faults"])
        data["faults"] = (
            None if profile is None else dataclasses.asdict(profile)
        )
        if data["faults"] is None:
            del data["faults"]
    try:
        return config_payload(config_from_payload(data))
    except Exception as exc:
        raise DagError(f"{where}: {exc}") from None


def report_spec(
    config: WorldConfig | Mapping | None = None,
    *,
    data_dir: str | None = None,
    name: str = "report",
) -> DagSpec:
    """The ``repro report`` pipeline as a two-stage DAG.

    Either a world configuration (build → report) or ``data_dir``
    (load-data → report); exactly one source must be given.
    """
    if (config is None) == (data_dir is None):
        raise DagError(
            "report_spec needs exactly one of a world config or data_dir"
        )
    if config is not None:
        source = StageSpec(
            name="world",
            kind="build",
            config={"world": _world_payload(config, "report world config")},
        )
    else:
        source = StageSpec(name="world", kind="load-data")
    return DagSpec(
        name=name,
        stages=(
            source,
            StageSpec(name="paper-report", kind="report", depends_on=("world",)),
        ),
    )


def fragment_report_spec(
    config: WorldConfig | Mapping,
    *,
    name: str = "fragment-report",
) -> DagSpec:
    """The paper report as a fragment-level DAG.

    ``world-source`` (build or cache-load) fans into three ``world-slice``
    stages (dasu, fcc, survey), each fragment depends on exactly the
    slices it reads (:data:`repro.analysis.paper_report.FRAGMENT_INPUTS`),
    and ``report-assemble`` folds every fragment into a ``report.txt``
    byte-identical to :func:`repro.analysis.paper_report.full_report`.

    Run against a persistent :class:`~repro.dag.store.DagStore`, only
    fragments whose input content digests changed re-execute — appending
    households recomputes the Dasu-driven fragments while survey-only
    ones reload. This is the report service's refresh pipeline.
    """
    from ..analysis.paper_report import fragment_inputs, fragment_keys

    stages: list[StageSpec] = [
        StageSpec(
            name="world",
            kind="world-source",
            config={"world": _world_payload(config, "report world config")},
        )
    ]
    for slice_name in ("dasu", "fcc", "survey"):
        stages.append(
            StageSpec(
                name=f"slice/{slice_name}",
                kind="world-slice",
                config={"slice": slice_name},
                depends_on=("world",),
            )
        )
    fragment_stage_names: list[str] = []
    for key in fragment_keys():
        stage_name = f"fragment/{key}"
        fragment_stage_names.append(stage_name)
        stages.append(
            StageSpec(
                name=stage_name,
                kind="report-fragment",
                config={"fragment": key},
                depends_on=tuple(
                    f"slice/{s}" for s in fragment_inputs(key)
                ),
            )
        )
    stages.append(
        StageSpec(
            name="paper-report",
            kind="report-assemble",
            depends_on=(
                "slice/dasu", "slice/fcc", "slice/survey",
                *fragment_stage_names,
            ),
        )
    )
    return DagSpec(name=name, stages=tuple(stages))


def sweep_spec(
    base_config: WorldConfig | Mapping,
    grid,
    seeds,
    experiments,
    *,
    with_report: bool = True,
    name: str = "sweep",
) -> DagSpec:
    """The ``repro sweep`` fan-out as a DAG: one stage per cell.

    Cells are independent, so they form one wave and fan across the
    backend exactly as the pre-DAG engine fanned them through
    ``run_sharded`` — scenario-major, seed-minor, the order the report
    lists them in. ``with_report`` appends the ``sweep-report`` stage
    that folds every cell into the stability report (``repro sweep``
    formats in-process instead and omits it).
    """
    from ..sweep.grid import ScenarioGrid  # lazy: cycle with repro.sweep

    if not isinstance(grid, ScenarioGrid):
        grid = ScenarioGrid.from_payload(grid)
    base_payload = _world_payload(base_config, "sweep base config")
    base = config_from_payload(base_payload)
    seeds = tuple(int(s) for s in seeds)
    experiments = tuple(experiments)
    stages: list[StageSpec] = []
    cell_names: list[str] = []
    for scenario, seed, cell_config in grid.configs(base, seeds):
        stage_name = f"cell/{scenario.name}/seed={seed}"
        cell_names.append(stage_name)
        stage_config = {
            "scenario": scenario.name,
            "seed": seed,
            "world": config_payload(cell_config),
            "experiments": list(experiments),
        }
        # Only present when set, so grids without an iqb_config axis
        # keep their pre-existing stage keys (and store hits).
        if scenario.iqb_config is not None:
            stage_config["iqb_config"] = scenario.iqb_config
        stages.append(
            StageSpec(
                name=stage_name,
                kind="sweep-cell",
                config=stage_config,
            )
        )
    if with_report:
        stages.append(
            StageSpec(
                name="sweep-report",
                kind="sweep-report",
                depends_on=tuple(cell_names),
                config={
                    "grid": grid.to_payload(),
                    "base": base_payload,
                    "seeds": list(seeds),
                    "experiments": list(experiments),
                    "cells": list(cell_names),
                },
            )
        )
    return DagSpec(name=name, stages=tuple(stages))


def expand_pipeline(payload: Mapping) -> DagSpec:
    """Expand a ``{"pipeline": ..., "config": ...}`` shorthand spec."""
    unknown = set(payload) - {"pipeline", "name", "config"}
    if unknown:
        raise DagError(
            f"pipeline spec has unknown keys: {', '.join(sorted(unknown))}"
        )
    pipeline = str(payload["pipeline"])
    config = payload.get("config", {})
    if not isinstance(config, Mapping):
        raise DagError(f"pipeline config must be an object, got {config!r}")
    name = str(payload.get("name", pipeline))
    if pipeline == "report":
        unknown = set(config) - {"world"}
        if unknown:
            raise DagError(
                "report pipeline config has unknown keys: "
                f"{', '.join(sorted(unknown))}"
            )
        return report_spec(config.get("world", {}), name=name)
    if pipeline == "fragment-report":
        unknown = set(config) - {"world"}
        if unknown:
            raise DagError(
                "fragment-report pipeline config has unknown keys: "
                f"{', '.join(sorted(unknown))}"
            )
        return fragment_report_spec(config.get("world", {}), name=name)
    if pipeline == "sweep":
        from ..sweep.grid import ScenarioGrid
        from ..sweep.runners import SWEEP_EXPERIMENTS

        unknown = set(config) - {"base", "grid", "seeds", "experiments"}
        if unknown:
            raise DagError(
                "sweep pipeline config has unknown keys: "
                f"{', '.join(sorted(unknown))}"
            )
        grid = (
            ScenarioGrid.from_payload(config["grid"])
            if "grid" in config
            else ScenarioGrid.baseline()
        )
        base = config_from_payload(
            _world_payload(config.get("base", {}), "sweep base config")
        )
        seeds = tuple(int(s) for s in config.get("seeds", ())) or (
            grid.seeds or (base.seed,)
        )
        experiments = tuple(config.get("experiments", SWEEP_EXPERIMENTS))
        return sweep_spec(base, grid, seeds, experiments, name=name)
    raise DagError(
        f"unknown pipeline {pipeline!r} (expected 'report', "
        "'fragment-report', or 'sweep')"
    )
