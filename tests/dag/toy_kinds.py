"""Tiny module-level stage kinds for the DAG tests.

They live in their own importable module (not a conftest) because the
process-pool backend pickles kind callables by reference: workers must
be able to import them. Registration is idempotent, so every test
module can import this one safely.
"""

from __future__ import annotations

from pathlib import Path

from repro.dag import register_stage_kind
from repro.obs.ledger import count, span


def emit(config: dict, inputs: dict, ctx) -> int:
    """Return a configured value, recording ledger events on the way."""
    with span(f"toy/emit/{config['tag']}"):
        count(f"toy.emit.{config['tag']}")
    return int(config["value"])


def combine(config: dict, inputs: dict, ctx) -> int:
    """Sum the inputs plus an optional bias (order-independent)."""
    count("toy.combine")
    return sum(int(v) for v in inputs.values()) + int(config.get("bias", 0))


def logged(config: dict, inputs: dict, ctx) -> int:
    """Append one line to ``config['log']`` per *execution*.

    The log is deliberately outside the ledger: it counts real
    executions, so tests can prove a resumed run re-executed nothing
    even though its trace is indistinguishable from a fresh run's.
    """
    log = Path(config["log"])
    with open(log, "a") as fh:
        fh.write(f"{config.get('tag', '?')}\n")
    return sum(int(v) for v in inputs.values()) + int(config.get("value", 1))


def volatile(config: dict, inputs: dict, ctx) -> int:
    """A kind whose output depends on on-disk state (never cacheable)."""
    path = Path(config["path"])
    return len(path.read_text()) if path.exists() else 0


class Payload:
    """An artifact that counts how often this process pickles it."""

    pickles = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __reduce__(self):
        type(self).pickles += 1
        return (Payload, (self.value,))


def payload(config: dict, inputs: dict, ctx) -> Payload:
    return Payload(int(config["value"]))


def payload_fingerprint(artifact: Payload) -> str:
    # Hash without pickling, so only shipping the payload counts.
    return f"payload:{artifact.value}"


def read_payload(config: dict, inputs: dict, ctx) -> int:
    """Read one :class:`Payload` input plus a configured offset."""
    (value,) = inputs.values()
    return value.value + int(config["offset"])


def boom(config: dict, inputs: dict, ctx) -> int:
    """A kind that always fails — for mid-wave crash tests."""
    raise RuntimeError("toy-boom detonated")


register_stage_kind("toy-emit", emit)
register_stage_kind("toy-combine", combine)
register_stage_kind("toy-logged", logged)
register_stage_kind("toy-volatile", volatile, cacheable=False)
register_stage_kind("toy-boom", boom)
register_stage_kind("toy-payload", payload, fingerprint=payload_fingerprint)
register_stage_kind("toy-read", read_payload)
