"""The serve-ingest traffic: an open-loop HTTP read mix plus spool appends.

Readers are an **open loop**: each sender thread follows a Poisson
schedule fixed in advance from the workload seed, whatever the daemon
does. A read is timed from when it was *due*, so a stalled daemon also
charges the wait it imposes on the reads queued behind the stall, and
the sender's own lateness (send time minus due time) is kept as the
generator lag. Each sender keeps at most one connection open; the
daemon speaks HTTP/1.0, so that is one connection per read.

Appends are spool files dropped one after another. An append counts
as fresh once any reader receives a response carrying a new ETag; at
200 reads/s that is within a few milliseconds of the daemon's swap.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from pathlib import Path

#: Read mix: (share, path, conditional). Conditional reads send the
#: newest ETag seen so far in ``If-None-Match``.
READ_MIX = (
    (0.8, "/report.txt", True),
    (0.1, "/report.txt", False),
    (0.1, "/iqb.json", False),
)
#: Upper bound on one window's schedule; windows end far earlier.
_SCHEDULE_S = 120.0


class EtagWatch:
    """The newest ETag any reader has seen, and when it was first seen."""

    def __init__(self, etag: str) -> None:
        self.latest = etag
        self.first_seen = {etag: 0.0}
        self._changed = threading.Condition()

    def observe(self, etag: str, when: float) -> None:
        with self._changed:
            if etag not in self.first_seen:
                self.first_seen[etag] = when
                self.latest = etag
                self._changed.notify_all()

    def wait_for_new(self, old: str, timeout: float) -> tuple[str, float] | None:
        with self._changed:
            if not self._changed.wait_for(lambda: self.latest != old, timeout):
                return None
            return self.latest, self.first_seen[self.latest]


def schedule(rng: random.Random, rate_per_s: float) -> list[tuple[float, str, bool]]:
    """Poisson arrival offsets with a path drawn from ``READ_MIX`` each."""
    out = []
    t = 0.0
    while t < _SCHEDULE_S:
        t += rng.expovariate(rate_per_s)
        draw = rng.random()
        for share, path, conditional in READ_MIX:
            draw -= share
            if draw < 0:
                break
        out.append((t, path, conditional))
    return out


class Reader(threading.Thread):
    """One sender thread following its schedule until stopped."""

    def __init__(self, port: int, plan, start: float, watch: EtagWatch,
                 stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.plan = plan
        self.start_at = start
        self.watch = watch
        self.stop_event = stop
        #: (due, lag_s, latency_s, status or None)
        self.samples: list[tuple[float, float, float, int | None]] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            for offset, path, conditional in self.plan:
                due = self.start_at + offset
                delay = due - time.perf_counter()
                if delay > 0 and self.stop_event.wait(delay):
                    break
                if self.stop_event.is_set():
                    break
                sent = time.perf_counter()
                headers = {"If-None-Match": self.watch.latest} if conditional else {}
                try:
                    conn.request("GET", path, headers=headers)
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                    etag = response.getheader("ETag")
                except (OSError, http.client.HTTPException):
                    status, etag = None, None
                    conn.close()
                done = time.perf_counter()
                self.samples.append((due, sent - due, done - due, status))
                if status == 200 and etag:
                    self.watch.observe(etag, done)
        finally:
            conn.close()


def get(port: int, path: str, headers: dict | None = None) -> tuple[int, str | None, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.getheader("ETag"), response.read()
    finally:
        conn.close()


def drop_append(spool: Path, index: int, delta: dict) -> float:
    """Publish one append-delta spool file atomically; returns when."""
    staging = spool / f".append-{index:04d}.tmp"
    staging.write_text(json.dumps(delta))
    os.replace(staging, spool / f"append-{index:04d}.json")
    return time.perf_counter()


def ingest_window(port: int, spool: Path, etag: str, *, seed: int, senders: int,
                  rate_per_s: float, appends: int, delta: dict,
                  lead_in_s: float = 0.5, timeout_s: float = 60.0) -> dict:
    """Run the read mix while appending ``appends`` deltas in turn.

    Returns the freshness of each append (drop to first new ETag seen),
    every read sample, and the window's (start, end) on the monotonic
    clock. An append not seen within ``timeout_s`` is a failed append.
    """
    watch = EtagWatch(etag)
    stop = threading.Event()
    start = time.perf_counter() + 0.05
    readers = [
        Reader(port, schedule(random.Random(seed * 1000 + i), rate_per_s / senders),
               start, watch, stop)
        for i in range(senders)
    ]
    for reader in readers:
        reader.start()
    fresh: list[float] = []
    failed_appends = 0
    try:
        time.sleep(lead_in_s)
        for index in range(appends):
            old = watch.latest
            dropped = drop_append(spool, index, delta)
            seen = watch.wait_for_new(old, timeout_s)
            if seen is None:
                failed_appends += 1
                break
            fresh.append(seen[1] - dropped)
        end = time.perf_counter()
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
    return {
        "fresh_s": fresh,
        "failed_appends": failed_appends,
        "reads": [s for reader in readers for s in reader.samples],
        "window": (start, end),
        "etag": watch.latest,
    }
