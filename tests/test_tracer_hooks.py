"""The benchmark's layer tracer still finds what it wraps.

``perfbench/tracer.py`` wraps library functions by module and name and
reads two attributes of the builder's per-household value; ``install()``
raises if a name is gone. This runs it in a fresh interpreter (the
wrappers patch modules in place) on a 20-household sanitized build and
checks that the wrappers installed, the household hooks counted, and the
build's layers produced spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.path.insert(0, {perfbench!r})
import tracer
from repro.datasets import WorldConfig, build_world

t = tracer.Tracer("hooks")
t.install()
build_world(
    WorldConfig(seed=3, n_dasu_users=16, n_fcc_users=4, days_per_year=1.0,
                sanitize=True),
    jobs=1, ground_truth=False,
)
counts = {{}}
for _, name, amount in t.events:
    counts[name] = counts.get(name, 0) + amount
print(json.dumps({{"counts": counts, "layers": sorted({{s[0] for s in t.spans}})}}))
"""


def test_tracer_installs_and_counts_a_small_build():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(perfbench=str(_ROOT / "perfbench"))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    counts = result["counts"]
    assert counts["datasets.builder.households"] == 20
    assert 0 < counts["datasets.builder.kept"] <= 20
    assert counts["datasets.periods.dasu"] > 0
    for layer in (
        "datasets.builder",
        "datasets.records",
        "datasets.columns.to_rows",
        "datasets.sanitize.columns",
    ):
        assert layer in result["layers"], layer
