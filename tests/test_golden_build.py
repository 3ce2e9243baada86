"""Golden digests of the world builder's bytes.

The report goldens pin analysis text, which rounds; these pin what the
builder itself writes. For a small world, clean and under two fault
profiles with sanitization, ``tests/golden/build_digests.json`` holds
the SHA-256 of each dataset's period rows (``columns.rows.tobytes()``,
every column including the hourly profile) and the sanitization
report's payload. A per-household kernel that drifts by one ulp, or
reads its random stream in a different order, fails here, at every
``jobs`` value.

Float bytes also depend on the host: numpy dispatches ``exp`` and
``log`` to a SIMD target chosen from the CPU, and the targets need not
agree in the last ulp. The file therefore records the numpy version and
those targets, and on a host where either differs the check skips with
a message instead of failing on a difference no code change made.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_golden_build.py --regen-golden

then review the golden diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from repro.datasets import World, WorldConfig, build_world
from repro.faults import fault_profile

GOLDEN = Path(__file__).parent / "golden" / "build_digests.json"

#: 300 Dasu + 60 FCC households: every builder path, in about a second.
BASE_CONFIG = WorldConfig(
    seed=3, n_dasu_users=300, n_fcc_users=60, days_per_year=1.0
)

CONFIGS = {
    "clean": BASE_CONFIG,
    "default-sanitized": dataclasses.replace(
        BASE_CONFIG, faults=fault_profile("default"), sanitize=True
    ),
    "heavy-sanitized": dataclasses.replace(
        BASE_CONFIG, faults=fault_profile("heavy"), sanitize=True
    ),
}


def float_platform() -> dict:
    """What, besides the code, decides the builder's float bytes."""
    targets = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return {
        "numpy": np.__version__,
        "float64_dispatch": {
            name: loops["dd"]["current"] for name, loops in targets.items()
        },
    }


def build_digest(world: World) -> dict:
    """The pinned facts of one built world."""
    return {
        "dasu_rows": world.dasu.columns.n_rows,
        "dasu_rows_sha256": hashlib.sha256(
            world.dasu.columns.rows.tobytes()
        ).hexdigest(),
        "fcc_rows": world.fcc.columns.n_rows,
        "fcc_rows_sha256": hashlib.sha256(
            world.fcc.columns.rows.tobytes()
        ).hexdigest(),
        "sanitization": (
            None
            if world.sanitization is None
            else world.sanitization.to_payload()
        ),
    }


@pytest.fixture(scope="module")
def pinned(request) -> dict:
    if request.config.getoption("--regen-golden"):
        pinned = {
            "platform": float_platform(),
            "worlds": {
                name: build_digest(build_world(config))
                for name, config in CONFIGS.items()
            },
        }
        GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.exists(), (
        "build digests missing — regenerate with "
        "`python -m pytest tests/test_golden_build.py --regen-golden`"
    )
    pinned = json.loads(GOLDEN.read_text())
    if pinned["platform"] != float_platform():
        pytest.skip(
            f"{GOLDEN.name} was pinned under {pinned['platform']}, this host "
            f"runs {float_platform()}; regenerate it from the parent commit "
            "on this host to compare here"
        )
    return pinned["worlds"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_build_bytes_match_golden(name, jobs, pinned):
    world = build_world(CONFIGS[name], jobs=jobs, chunk_size=41)
    assert build_digest(world) == pinned[name], (
        f"{name} at jobs={jobs} drifted from {GOLDEN.name}; if the change "
        "is intentional, regenerate with --regen-golden and review the diff"
    )
