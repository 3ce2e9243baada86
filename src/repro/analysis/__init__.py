"""Reproduction analyses: one entry point per paper table and figure.

Every function takes analysis-ready datasets (:class:`repro.datasets.world.World`
or its parts) and returns a structured result object with the numbers the
paper reports; the benchmark harness renders them next to the paper's
values. See DESIGN.md for the experiment index.

Modules follow the paper's sections:

* :mod:`repro.analysis.characterization` — Sec. 2.2 (Fig. 1);
* :mod:`repro.analysis.capacity` — Sec. 3 (Figs. 2-5, Tables 1-2);
* :mod:`repro.analysis.longitudinal` — Sec. 4 (Fig. 6);
* :mod:`repro.analysis.price` — Sec. 5 (Table 3, Table 4, Figs. 7-9);
* :mod:`repro.analysis.upgrade_cost` — Sec. 6 (Fig. 10, Tables 5-6);
* :mod:`repro.analysis.quality` — Sec. 7 (Tables 7-8, Figs. 11-12).
"""

from . import (
    capacity,
    caps,
    characterization,
    diurnal,
    export,
    longitudinal,
    paper_report,
    price,
    quality,
    segments,
    upgrade_cost,
    upload,
)
from .common import binned_demand_curve, matched_experiment
from .paper_report import full_report

__all__ = [
    "binned_demand_curve",
    "capacity",
    "caps",
    "characterization",
    "diurnal",
    "export",
    "full_report",
    "longitudinal",
    "matched_experiment",
    "paper_report",
    "price",
    "quality",
    "segments",
    "upgrade_cost",
    "upload",
]
