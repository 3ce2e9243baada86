"""Appends racing readers and dying mid-publish.

The cache's staging + ``os.replace`` discipline is what makes appends
safe to run while a service reads: an entry either exists completely or
not at all. These tests drive that contract with real concurrent
processes and with deterministic kill points.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.datasets import (
    AppendDelta,
    WorldCache,
    WorldConfig,
    append_world,
    build_or_load_world,
)
from repro.datasets import cache as cache_mod

BASE = WorldConfig(
    seed=13, n_dasu_users=64, n_fcc_users=8, days_per_year=1.0, sanitize=True
)

_APPEND_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.datasets import (
        AppendDelta, DeltaLog, WorldCache, WorldConfig, append_world,
    )
    cache = WorldCache(sys.argv[1])
    base = WorldConfig(
        seed=13, n_dasu_users=64, n_fcc_users=8, days_per_year=1.0,
        sanitize=True,
    )
    delta = AppendDelta(
        n_dasu_users=int(sys.argv[2]), n_fcc_users=int(sys.argv[3])
    )
    append_world(base, delta, cache=cache, log=DeltaLog(base, cache=cache))
    """
)


def _spawn_append(cache_root: Path, n_dasu: int, n_fcc: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return subprocess.Popen(
        [sys.executable, "-c", _APPEND_SCRIPT, str(cache_root), str(n_dasu),
         str(n_fcc)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _assert_whole(world, config) -> None:
    """A loaded world is complete enough to analyze: unique users, and
    at least the base population (a torn splice would lose users)."""
    dasu_ids = [u.user_id for u in world.dasu.users]
    assert len(set(dasu_ids)) == len(dasu_ids)
    assert world.config == config


def test_concurrent_appends_never_serve_a_torn_world(tmp_path):
    """Two processes append distinct deltas while this one keeps reading.

    Every load during the race must observe either "no entry yet" or
    the complete extended entry — byte-identical to one produced by an
    unraced append — never a partial one.
    """
    reference = WorldCache(tmp_path / "reference")
    build_or_load_world(BASE, cache=reference, ground_truth=False)
    delta_a = AppendDelta(n_dasu_users=16)
    delta_b = AppendDelta(n_fcc_users=8)
    ext_a, ext_b = delta_a.apply(BASE), delta_b.apply(BASE)
    append_world(BASE, delta_a, cache=reference)
    append_world(BASE, delta_b, cache=reference)
    expected = {
        ext: (reference.entry_dir(ext) / "users.npy").read_bytes()
        for ext in (ext_a, ext_b)
    }

    cache = WorldCache(tmp_path / "cache")
    shutil.copytree(
        reference.entry_dir(BASE), cache.entry_dir(BASE), dirs_exist_ok=False
    )
    writers = [
        _spawn_append(cache.root, 16, 0),
        _spawn_append(cache.root, 0, 8),
    ]
    try:
        while any(w.poll() is None for w in writers):
            for ext in (ext_a, ext_b):
                world = cache.load(ext)
                if world is not None:
                    _assert_whole(world, ext)
                    shard = cache.entry_dir(ext) / "users.npy"
                    assert shard.read_bytes() == expected[ext]
    finally:
        for w in writers:
            stderr = w.communicate()[1]
            assert w.returncode == 0, stderr.decode()
    for ext in (ext_a, ext_b):
        assert (cache.entry_dir(ext) / "users.npy").read_bytes() == expected[ext]


def test_append_killed_mid_publish_then_resumed(tmp_path, monkeypatch):
    """Dying inside the cache publish leaves no entry; a rerun succeeds.

    The kill point is deterministic: the survey write happens after the
    users files inside the staging directory, so the interrupt lands
    with a half-written staging dir on disk and no published entry.
    """
    cache = WorldCache(tmp_path / "cache")
    build_or_load_world(BASE, cache=cache, ground_truth=False)
    delta = AppendDelta(n_dasu_users=16, n_fcc_users=4)
    extended = delta.apply(BASE)

    real_write = cache_mod.write_survey_csv

    def die(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cache_mod, "write_survey_csv", die)
    with pytest.raises(KeyboardInterrupt):
        append_world(BASE, delta, cache=cache)
    assert cache.load(extended) is None

    monkeypatch.setattr(cache_mod, "write_survey_csv", real_write)
    result = append_world(BASE, delta, cache=cache)
    assert not result.from_cache
    world = cache.load(extended)
    assert world is not None
    _assert_whole(world, extended)


def test_append_process_sigkilled_then_resumed(tmp_path):
    """A real SIGKILL mid-store, then a clean rerun from another process."""
    cache = WorldCache(tmp_path / "cache")
    build_or_load_world(BASE, cache=cache, ground_truth=False)
    delta = AppendDelta(n_dasu_users=16)
    extended = delta.apply(BASE)
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.datasets import (
            AppendDelta, WorldCache, WorldConfig, append_world,
        )
        from repro.datasets import cache as cache_mod

        def die(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        cache_mod.write_survey_csv = die
        cache = WorldCache(sys.argv[1])
        base = WorldConfig(
            seed=13, n_dasu_users=64, n_fcc_users=8, days_per_year=1.0,
            sanitize=True,
        )
        append_world(base, AppendDelta(n_dasu_users=16), cache=cache)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cache.root)],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL
    assert cache.load(extended) is None

    result = append_world(BASE, delta, cache=cache)
    assert not result.from_cache
    world = cache.load(extended)
    assert world is not None
    _assert_whole(world, extended)
