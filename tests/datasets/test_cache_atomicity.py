"""Crash-injection: the world cache's publish path under interruption.

:meth:`repro.datasets.cache.WorldCache.store` promises that a process
killed at *any* point leaves either no entry or a complete one — a
concurrent (or later) loader can never observe a partial store. These
tests make the promise empirical: a subprocess stores a world and is
SIGKILLed at adversarial points along the publish path (first file,
mid-write, just before the final ``os.replace``), and the parent then
verifies the cache is indistinguishable from one that never stored.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.staging import STAGING_MAX_AGE_S, STAGING_PREFIX
from repro.datasets import WorldConfig, build_world
from repro.datasets.cache import WorldCache, build_or_load_world

SRC = str(Path(__file__).resolve().parents[2] / "src")

CONFIG = WorldConfig(seed=3, n_dasu_users=60, n_fcc_users=10, days_per_year=1.0)

#: Where along the publish path the victim subprocess kills itself. Each
#: hook fires inside ``store()`` after progressively more staging work.
KILL_POINTS = ("first-file", "mid-write", "before-replace")

_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    from repro.datasets import WorldConfig, build_world
    from repro.datasets import cache as cache_mod

    kill_point, cache_root = sys.argv[1], sys.argv[2]
    config = WorldConfig(
        seed=3, n_dasu_users=60, n_fcc_users=10, days_per_year=1.0
    )
    world = build_world(config, ground_truth=False)

    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    if kill_point == "first-file":
        cache_mod.write_users_npy = die          # staging dir still empty
    elif kill_point == "mid-write":
        cache_mod.write_survey_csv = die         # users files written
    elif kill_point == "before-replace":
        cache_mod.os.replace = die               # staging fully written
    else:
        raise SystemExit(f"unknown kill point {kill_point!r}")
    cache_mod.WorldCache(cache_root).store(world)
    raise SystemExit("store survived the kill hook")
    """
)


def _store_killed_at(kill_point: str, cache_root: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT, kill_point, str(cache_root)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode


@pytest.mark.parametrize("kill_point", KILL_POINTS)
def test_killed_store_is_never_visible(tmp_path, kill_point):
    cache_root = tmp_path / "cache"
    rc = _store_killed_at(kill_point, cache_root)
    assert rc == -signal.SIGKILL

    cache = WorldCache(cache_root)
    # A concurrent loader sees a miss — never a partial entry.
    assert cache.load(CONFIG) is None
    assert not cache.entry_dir(CONFIG).exists()
    # The only residue is an invisible staging directory (none at all
    # when the kill came before any file was written into it is fine
    # too — mkdtemp itself may or may not have run).
    residue = list(cache_root.iterdir()) if cache_root.exists() else []
    assert all(p.name.startswith(STAGING_PREFIX) for p in residue)


@pytest.mark.parametrize("kill_point", KILL_POINTS)
def test_interrupted_store_then_clean_rebuild(tmp_path, kill_point):
    """After a killed store, the normal path recovers completely."""
    cache_root = tmp_path / "cache"
    assert _store_killed_at(kill_point, cache_root) == -signal.SIGKILL
    world, from_cache = build_or_load_world(
        CONFIG, cache=WorldCache(cache_root), ground_truth=False
    )
    assert not from_cache  # the partial store read as a miss
    reloaded = WorldCache(cache_root).load(CONFIG)
    assert reloaded is not None
    assert reloaded.dasu.n_users == world.dasu.n_users


def test_stale_staging_swept_fresh_left_alone(tmp_path):
    cache_root = tmp_path / "cache"
    cache_root.mkdir()
    stale = cache_root / f"{STAGING_PREFIX}stale"
    fresh = cache_root / f"{STAGING_PREFIX}fresh"
    stale.mkdir()
    fresh.mkdir()
    old = time.time() - (STAGING_MAX_AGE_S + 60)
    os.utime(stale, (old, old))

    world = build_world(CONFIG, ground_truth=False)
    cache = WorldCache(cache_root)
    entry = cache.store(world)
    assert entry is not None
    assert not stale.exists()  # abandoned residue reclaimed
    assert fresh.exists()      # an in-flight store is never disturbed
    assert cache.load(CONFIG) is not None


def test_store_replaces_invalid_occupant(tmp_path):
    """A corrupt directory squatting on the entry path is replaced."""
    cache = WorldCache(tmp_path / "cache")
    occupant = cache.entry_dir(CONFIG)
    occupant.mkdir(parents=True)
    (occupant / "config.json").write_text("{corrupt")
    world = build_world(CONFIG, ground_truth=False)
    assert cache.store(world) == occupant
    assert cache.load(CONFIG) is not None
