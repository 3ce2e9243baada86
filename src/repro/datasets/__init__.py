"""Dataset assembly: the simulated equivalents of the paper's datasets.

* :mod:`repro.datasets.columns` — the data model: one row per (user,
  service period) in a numpy structured array, the only in-memory form
  of a dataset (what a cleaned measurement dataset contains; no ground
  truth);
* :mod:`repro.datasets.world` — the world configuration and container;
* :mod:`repro.datasets.builder` — the end-to-end generator: markets,
  populations, traffic, measurement clients, row assembly;
* :mod:`repro.datasets.records` — the per-period hourly-profile kernel
  the builder uses;
* :mod:`repro.datasets.io` — CSV/JSON/npy persistence for the generated
  datasets;
* :mod:`repro.datasets.sanitize` — the hardened ingest/cleaning stage
  (the paper's data-cleaning rules, with per-rule accounting);
* :mod:`repro.datasets.cache` — on-disk build cache keyed by
  configuration and code version;
* :mod:`repro.datasets.append` — incremental ingest: fold new
  households into a cached world without a full rebuild.
"""

from .append import AppendDelta, AppendResult, DeltaLog, append_world
from .builder import build_world
from .cache import WorldCache, build_or_load_world, cache_key
from .columns import (
    COLUMNS_FORMAT_VERSION,
    ROW_DTYPE,
    UserColumns,
    records_to_rows,
)
from .sanitize import SanitizationReport, ingest_users, sanitize_columns
from .traces import UsageTrace, read_traces_npz, write_traces_npz
from .world import DasuDataset, FccDataset, World, WorldConfig

__all__ = [
    "COLUMNS_FORMAT_VERSION",
    "ROW_DTYPE",
    "AppendDelta",
    "AppendResult",
    "DeltaLog",
    "UserColumns",
    "DasuDataset",
    "FccDataset",
    "SanitizationReport",
    "UsageTrace",
    "World",
    "WorldCache",
    "WorldConfig",
    "append_world",
    "build_or_load_world",
    "build_world",
    "cache_key",
    "ingest_users",
    "read_traces_npz",
    "records_to_rows",
    "sanitize_columns",
    "write_traces_npz",
]
