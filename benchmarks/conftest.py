"""Benchmark harness fixtures.

Provides one paper-scale world per benchmark session (larger than the
test world so that every per-country tier of the case study crosses the
paper's 30-user reporting threshold) and a tiny report printer so each
benchmark shows its paper-vs-measured rows inline.

The world is obtained through the on-disk build cache
(:mod:`repro.datasets.cache`): the first session builds it — sharded
across every available CPU, which is bit-identical to a serial build —
and later sessions load the persisted datasets instead of rebuilding.
Set ``REPRO_CACHE_DIR`` to relocate the cache.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import World, WorldConfig
from repro.datasets.cache import build_or_load_world

PAPER_WORLD_CONFIG = WorldConfig(
    seed=20141105,
    n_dasu_users=12_000,
    n_fcc_users=2_000,
    days_per_year=2.0,
)


@pytest.fixture(scope="session")
def paper_world() -> World:
    """The world every reproduction benchmark runs against."""
    world, from_cache = build_or_load_world(
        PAPER_WORLD_CONFIG, jobs=os.cpu_count() or 1
    )
    source = "cache" if from_cache else "fresh build"
    n_users = world.dasu.n_users + world.fcc.n_users
    print(f"\npaper world ready ({source}, {n_users} users)")
    return world


@pytest.fixture(scope="session")
def dasu_users(paper_world: World):
    """The paper world's Dasu panel, as the analyses read it (columns)."""
    return paper_world.dasu.columns


@pytest.fixture(scope="session")
def fcc_users(paper_world: World):
    """The paper world's FCC panel, as the analyses read it (columns)."""
    return paper_world.fcc.columns


def emit(title: str, lines) -> None:
    """Print a benchmark's paper-vs-measured block."""
    print()
    print(f"=== {title} ===")
    for line in lines:
        print(line)
