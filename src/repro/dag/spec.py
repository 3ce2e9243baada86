"""Declarative experiment-DAG specifications.

A :class:`DagSpec` names the stages of an experiment pipeline: each
:class:`StageSpec` has a unique name, a registered stage *kind* (the
callable that executes it), the names of the stages it depends on, and a
per-stage configuration dict. Specs are plain data — they parse from a
JSON/YAML-compatible payload (``repro dag run --spec dag.json``), or are
built in code by the pipeline helpers in :mod:`repro.dag.pipelines`.

Validation happens entirely at parse/construction time: duplicate stage
names, dangling ``depends_on`` references, dependency cycles, unknown
kinds, and non-canonical configs are all rejected before anything runs.
A constructed :class:`DagSpec` is therefore guaranteed schedulable, and
:meth:`DagSpec.topological_order` is total and deterministic (Kahn's
algorithm with spec-declaration order breaking ties), so the scheduler's
execution and ledger-merge order never depend on scheduling luck.

Stage kinds live in a module-level registry. The built-in kinds
(``world-source``, ``load-data``, ``world-slice``,
``report-fragment``, ``report-assemble``, ``sweep-cell``,
``sweep-report``) are registered when :mod:`repro.dag` imports; user
code adds its own
with :func:`register_stage_kind`. A kind's callable must be a
module-level function if the DAG will run on the process-pool backend
(tasks are pickled into workers); in-process runs accept any callable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..exceptions import DagError

__all__ = [
    "DagSpec",
    "StageKind",
    "StageSpec",
    "register_stage_kind",
    "stage_kind",
]


@dataclass(frozen=True)
class StageKind:
    """One registered stage implementation.

    ``fn(config, inputs, ctx)`` receives the stage's config dict, a
    ``{dependency name: artifact}`` mapping, and the run's
    :class:`~repro.dag.schedule.RunContext` (scheduling knobs that must
    never influence a stage's output bytes — worker counts, cache
    directories). ``cacheable=False`` marks kinds whose output depends
    on state outside the spec (e.g. reading a user-supplied data
    directory); their artifacts are never reused across runs.

    ``fingerprint(artifact)``, when given, supplies the stage's output
    hash (the content address downstream keys incorporate) in place of
    the default SHA-256 over the artifact's pickle. Kinds whose
    artifacts are value-equal but representation-dependent need one:
    a world loaded from the on-disk cache memory-maps its columns while
    a fresh build holds them in memory, so the ``build`` kind
    fingerprints by world-cache key instead of by pickle bytes.
    """

    name: str
    fn: Callable
    cacheable: bool = True
    fingerprint: Callable | None = None


#: The global kind registry (name → :class:`StageKind`).
_KINDS: dict[str, StageKind] = {}


def register_stage_kind(
    name: str,
    fn: Callable,
    *,
    cacheable: bool = True,
    fingerprint: Callable | None = None,
) -> StageKind:
    """Register (or deterministically re-register) a stage kind.

    Re-registering an existing name with the *same* callable is a no-op
    (idempotent imports); rebinding a name to a different callable
    raises, so two libraries cannot silently fight over a kind.
    """
    if not name or not isinstance(name, str):
        raise DagError(f"stage kinds need a non-empty string name, got {name!r}")
    existing = _KINDS.get(name)
    if existing is not None:
        if (
            existing.fn is fn
            and existing.cacheable == cacheable
            and existing.fingerprint is fingerprint
        ):
            return existing
        raise DagError(
            f"stage kind {name!r} is already registered to "
            f"{existing.fn!r}; refusing to rebind"
        )
    kind = StageKind(
        name=name, fn=fn, cacheable=cacheable, fingerprint=fingerprint
    )
    _KINDS[name] = kind
    return kind


def stage_kind(name: str) -> StageKind:
    """Look up a registered kind; unknown names raise :class:`DagError`."""
    try:
        return _KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_KINDS)) or "<none>"
        raise DagError(
            f"unknown stage kind {name!r} (registered kinds: {known})"
        ) from None


def _canonical_config(name: str, config: Mapping) -> dict:
    """Validate a stage config is canonical-JSON material.

    Stage configs feed the content-addressed stage key, so — like
    world-cache keys — they must round-trip through JSON without any
    ``str()`` fallback. The canonicalizer in :mod:`repro.datasets.io`
    owns that contract.
    """
    from ..datasets.io import _canonical_json

    if not isinstance(config, Mapping):
        raise DagError(
            f"stage {name!r}: config must be a mapping, got {config!r}"
        )
    try:
        return _canonical_json(dict(config), f"stage[{name}].config")
    except Exception as exc:  # DatasetError carries the precise path
        raise DagError(f"stage {name!r}: {exc}") from None


@dataclass(frozen=True)
class StageSpec:
    """One named stage: a kind, its dependencies, and its config."""

    name: str
    kind: str
    depends_on: tuple[str, ...] = ()
    config: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DagError(f"stages need a non-empty string name, got {self.name!r}")
        stage_kind(self.kind)  # unknown kinds rejected at construction
        deps = tuple(str(d) for d in self.depends_on)
        if len(set(deps)) != len(deps):
            raise DagError(
                f"stage {self.name!r} lists a dependency twice: {deps}"
            )
        if self.name in deps:
            raise DagError(f"stage {self.name!r} depends on itself")
        object.__setattr__(self, "depends_on", deps)
        object.__setattr__(
            self, "config", _canonical_config(self.name, self.config)
        )

    def to_payload(self) -> dict:
        payload: dict = {"name": self.name, "kind": self.kind}
        if self.depends_on:
            payload["depends_on"] = list(self.depends_on)
        if self.config:
            payload["config"] = dict(self.config)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "StageSpec":
        if not isinstance(payload, Mapping):
            raise DagError(f"stage entries must be objects, got {payload!r}")
        unknown = set(payload) - {"name", "kind", "depends_on", "config"}
        if unknown:
            raise DagError(
                f"stage has unknown keys: {', '.join(sorted(unknown))}"
            )
        missing = {"name", "kind"} - set(payload)
        if missing:
            raise DagError(
                f"stage needs {', '.join(sorted(missing))}: {dict(payload)!r}"
            )
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            depends_on=tuple(payload.get("depends_on", ())),
            config=payload.get("config", {}),
        )


@dataclass(frozen=True)
class DagSpec:
    """An ordered, validated set of stages forming an acyclic graph."""

    name: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DagError(f"a DAG needs a non-empty string name, got {self.name!r}")
        if not self.stages:
            raise DagError(f"DAG {self.name!r} declares no stages")
        object.__setattr__(self, "stages", tuple(self.stages))
        names = [s.name for s in self.stages]
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DagError(f"duplicate stage name {name!r}")
            seen.add(name)
        for stage in self.stages:
            for dep in stage.depends_on:
                if dep not in seen:
                    raise DagError(
                        f"stage {stage.name!r} depends on unknown stage "
                        f"{dep!r}"
                    )
        # Reject cycles now, so every constructed spec is schedulable.
        order = self.topological_order()
        assert len(order) == len(self.stages)

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise DagError(f"DAG {self.name!r} has no stage {name!r}")

    def topological_order(self) -> tuple[StageSpec, ...]:
        """A deterministic dependency-respecting order over all stages.

        Kahn's algorithm; among simultaneously-ready stages, the spec's
        declaration order wins. Raises :class:`DagError` naming the
        stages on a cycle if one exists.
        """
        index = {s.name: i for i, s in enumerate(self.stages)}
        pending = {s.name: set(s.depends_on) for s in self.stages}
        ordered: list[StageSpec] = []
        done: set[str] = set()
        while pending:
            ready = sorted(
                (name for name, deps in pending.items() if deps <= done),
                key=index.__getitem__,
            )
            if not ready:
                cycle = ", ".join(sorted(pending))
                raise DagError(
                    f"DAG {self.name!r} has a dependency cycle among: {cycle}"
                )
            for name in ready:
                ordered.append(self.stages[index[name]])
                done.add(name)
                del pending[name]
        return tuple(ordered)

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "stages": [s.to_payload() for s in self.stages],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DagSpec":
        """Parse a spec payload (the ``dag.json`` schema).

        Two forms are accepted: an explicit stage list
        (``{"name": ..., "stages": [...]}``) or a pipeline shorthand
        (``{"pipeline": "sweep", "config": {...}}``) expanded by the
        registered pipeline templates in :mod:`repro.dag.pipelines`.
        """
        if not isinstance(payload, Mapping):
            raise DagError("a DAG spec must be a JSON object")
        if "pipeline" in payload:
            from .pipelines import expand_pipeline

            return expand_pipeline(payload)
        unknown = set(payload) - {"name", "stages"}
        if unknown:
            raise DagError(
                f"DAG spec has unknown keys: {', '.join(sorted(unknown))}"
            )
        stages = payload.get("stages", [])
        if not isinstance(stages, (list, tuple)):
            raise DagError(f"'stages' must be a list, got {stages!r}")
        return cls(
            name=str(payload.get("name", "dag")),
            stages=tuple(StageSpec.from_payload(entry) for entry in stages),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "DagSpec":
        """Load a spec from a ``dag.json`` file."""
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise DagError(f"cannot read DAG spec {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DagError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_payload(payload)
