"""repro — a reproduction of "Need, Want, Can Afford: Broadband Markets
and the Behavior of Users" (Bischof, Bustamante & Stanojevic, IMC 2014).

The package has two halves:

* a **generative substrate** that replaces the paper's proprietary
  datasets — retail broadband markets (:mod:`repro.market`), access
  networks (:mod:`repro.network`), user behavior (:mod:`repro.behavior`),
  traffic (:mod:`repro.traffic`) and measurement clients
  (:mod:`repro.measurement`), assembled into datasets by
  :mod:`repro.datasets`;
* the **analysis toolkit** that reproduces the paper's methodology —
  capacity classes, demand metrics, nearest-neighbor matching with a
  caliper, one-tailed binomial natural experiments (:mod:`repro.core`)
  and one entry point per paper table/figure (:mod:`repro.analysis`),
  each reading a dataset's user columns.

Quickstart::

    from repro import WorldConfig, build_world
    from repro.analysis import capacity

    world = build_world(WorldConfig(n_dasu_users=2000, n_fcc_users=400))
    result = capacity.table1(world.dasu.columns)
    print(result.peak.row())
"""

from ._version import __version__
from .core import (
    Bin,
    BinSpec,
    DemandSummary,
    ExperimentResult,
    NaturalExperiment,
    binomial_test_greater,
    capacity_class,
    demand_summary,
    match_pairs,
)
from .datasets import World, WorldConfig, build_world
from .exceptions import ReproError

__all__ = [
    "Bin",
    "BinSpec",
    "DemandSummary",
    "ExperimentResult",
    "NaturalExperiment",
    "ReproError",
    "World",
    "WorldConfig",
    "__version__",
    "binomial_test_greater",
    "build_world",
    "capacity_class",
    "demand_summary",
    "match_pairs",
]
