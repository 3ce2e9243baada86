"""Shared fixtures for the test suite.

The expensive fixtures are the session-scoped worlds, each built at most
once per session and only when a test actually requests it:

* ``small_world`` — large enough for every analysis to run, small enough
  to build in a few seconds (the workhorse of the analysis tests);
* ``tiny_world`` — the smallest world that still exercises every
  builder code path (unit-level dataset tests);
* ``faulted_world_light`` / ``faulted_world_default`` /
  ``faulted_world_heavy`` — ``small_world``'s configuration with fault
  injection at each severity profile plus sanitization, for the
  robustness regression suite;
* ``sanitized_small_world`` — ``small_world`` rebuilt with the cleaning
  stage enabled but no faults (must be equivalent to ``small_world``).

Unit tests build their own tiny inputs instead.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.datasets import World, WorldConfig, build_world
from repro.faults import fault_profile


@pytest.fixture(scope="session", autouse=True)
def _isolated_world_cache(tmp_path_factory):
    """Keep tests hermetic: never touch the user's real world cache."""
    root = tmp_path_factory.mktemp("world-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


SMALL_WORLD_CONFIG = WorldConfig(
    seed=7,
    n_dasu_users=2500,
    n_fcc_users=500,
    days_per_year=1.5,
)


@pytest.fixture(scope="session")
def small_world() -> World:
    """A compact but fully featured world, built once per test session."""
    return build_world(SMALL_WORLD_CONFIG)


@pytest.fixture(scope="session")
def dasu_users(small_world: World):
    """``small_world``'s Dasu panel, as the analyses read it (columns)."""
    return small_world.dasu.columns


@pytest.fixture(scope="session")
def fcc_users(small_world: World):
    """``small_world``'s FCC panel, as the analyses read it (columns)."""
    return small_world.fcc.columns


TINY_WORLD_CONFIG = WorldConfig(
    seed=11, n_dasu_users=150, n_fcc_users=40, days_per_year=1.0
)


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """The smallest world exercising every builder code path."""
    return build_world(TINY_WORLD_CONFIG)


def faulted_config(profile: str, base: WorldConfig = SMALL_WORLD_CONFIG) -> WorldConfig:
    """``base`` with fault injection at ``profile`` plus sanitization."""
    return dataclasses.replace(
        base, faults=fault_profile(profile), sanitize=True
    )


@pytest.fixture(scope="session")
def faulted_world_light() -> World:
    return build_world(faulted_config("light"))


@pytest.fixture(scope="session")
def faulted_world_default() -> World:
    return build_world(faulted_config("default"))


@pytest.fixture(scope="session")
def faulted_world_heavy() -> World:
    return build_world(faulted_config("heavy"))


@pytest.fixture(scope="session")
def sanitized_small_world() -> World:
    """``small_world`` rebuilt with cleaning on but a pristine substrate."""
    return build_world(
        dataclasses.replace(SMALL_WORLD_CONFIG, sanitize=True)
    )
