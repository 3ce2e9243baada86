"""Atomic publish of on-disk store entries.

Both persistence layers — the world cache
(:class:`repro.datasets.cache.WorldCache`) and the DAG artifact store
(:class:`repro.dag.store.DagStore`) — publish entries through
:func:`publish`: every file is written into a hidden ``.staging-*``
directory and made visible by a single ``os.replace``. A process killed
mid-store leaves only an orphaned staging directory, which must
eventually be reclaimed without ever disturbing a *live* concurrent
store.

The abandoned check here is deliberately paranoid about wall clocks.
Comparing ``time.time()`` against a single directory mtime is wrong
twice over: a forward clock step (NTP catch-up) makes an in-flight
store's staging directory look hours old the instant the step lands,
and writing *into* an already-created file never advances the directory
mtime at all, so a long single-file write looks idle. Instead:

* the storer touches a **heartbeat file** inside the staging directory
  before and between every artifact write (:func:`touch_heartbeat`), so
  liveness is stamped with the *current* clock throughout the store;
* the sweeper ages a candidate by the **newest** mtime across the
  directory and everything in it (heartbeat included), and treats
  non-positive ages — mtimes in the future, i.e. a clock stepped
  backwards — as fresh, never as abandoned.

A clock step can therefore delay a sweep (harmless; the next store
retries) but can no longer reap a staging directory another process is
actively writing.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

__all__ = [
    "HEARTBEAT_NAME",
    "STAGING_MAX_AGE_S",
    "STAGING_PREFIX",
    "publish",
    "touch_heartbeat",
]

#: Liveness marker inside a staging directory; removed before publish so
#: it never appears inside a visible entry.
HEARTBEAT_NAME = ".heartbeat"
#: Staging directories are hidden, so they can never collide with an
#: entry (world-cache keys are 64 hex characters, DAG stage directories
#: are percent-encoded); ones untouched longer than this belong to
#: killed stores and are swept.
STAGING_PREFIX = ".staging-"
STAGING_MAX_AGE_S = 3600.0


def touch_heartbeat(staging: str | Path) -> None:
    """Stamp ``staging`` as live *now* (create or update the marker).

    Call between artifact writes: each touch re-dates the staging
    directory with the current clock, so a forward clock step mid-store
    stops making the directory look abandoned as soon as the next
    artifact lands.
    """
    try:
        (Path(staging) / HEARTBEAT_NAME).touch()
    except OSError:
        pass  # liveness marking is best-effort; the store itself decides


def _clear_heartbeat(staging: Path) -> None:
    """Drop the liveness marker just before the staging dir publishes."""
    try:
        (staging / HEARTBEAT_NAME).unlink()
    except OSError:
        pass


def _newest_mtime(path: Path) -> float:
    """The most recent mtime across ``path`` and its direct entries.

    Scanning the entries matters: writing into an existing file updates
    the file's mtime but not the directory's, and the heartbeat file is
    itself just another entry here.
    """
    newest = path.stat().st_mtime
    for child in path.iterdir():
        try:
            newest = max(newest, child.stat().st_mtime)
        except OSError:
            continue
    return newest


def _sweep_stale_staging(root: Path) -> None:
    """Reclaim abandoned staging directories under ``root``.

    A candidate is abandoned only when the newest mtime anywhere inside
    it is *strictly more* than :data:`STAGING_MAX_AGE_S` in the past.
    Negative ages (timestamps in the future — the wall clock stepped
    backwards since the store wrote them) read as fresh: the sweep
    tolerates them and leaves the directory for a later pass rather than
    racing a possibly live writer. Every failure mode is a skip, never
    an error.
    """
    try:
        candidates = list(root.iterdir())
    except OSError:
        return
    now = time.time()
    for path in candidates:
        if not path.name.startswith(STAGING_PREFIX):
            continue
        try:
            age = now - _newest_mtime(path)
        except OSError:
            continue
        if age > STAGING_MAX_AGE_S:
            shutil.rmtree(path, ignore_errors=True)


def publish(
    root: Path,
    entry: Path,
    write: Callable[[Path], None],
    is_valid: Callable[[], bool],
) -> Path:
    """Write an entry through a staging directory and publish it at
    ``entry`` (a direct child of ``root``); returns ``entry``.

    ``write(staging)`` writes the entry's files into a fresh staging
    directory under ``root``, calling :func:`touch_heartbeat` between
    files; one ``os.replace`` then makes the entry visible. Interruption
    anywhere earlier leaves only an invisible staging directory, and
    abandoned ones are swept first.

    Safe under concurrent stores of one entry: when the path is already
    occupied and ``is_valid()`` accepts the occupant, the staging copy
    is discarded and the occupant kept (stores are deterministic, so
    losing the race is a benign success). Only an invalid occupant —
    stale format, corruption, another key — is replaced.
    """
    root.mkdir(parents=True, exist_ok=True)
    _sweep_stale_staging(root)
    staging = Path(tempfile.mkdtemp(prefix=STAGING_PREFIX, dir=root))
    try:
        touch_heartbeat(staging)
        write(staging)
        _clear_heartbeat(staging)
        try:
            os.replace(staging, entry)
        except OSError:
            # Occupied: validate the occupant before touching it.
            if is_valid():
                shutil.rmtree(staging, ignore_errors=True)
                return entry
            shutil.rmtree(entry, ignore_errors=True)
            try:
                os.replace(staging, entry)
            except OSError:
                # A concurrent storer re-published between the rmtree
                # and the replace; a valid occupant is equivalent to
                # ours, anything else is a real failure.
                if not is_valid():
                    raise
                shutil.rmtree(staging, ignore_errors=True)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return entry
