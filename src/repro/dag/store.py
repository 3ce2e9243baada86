"""Content-addressed, crash-safe persistence of DAG stage artifacts.

A :class:`DagStore` is a run directory holding one entry per stage
name. Each entry records the stage *key* it was computed under (the
content address over stage config + upstream output hashes + code
version, see :mod:`repro.dag.schedule`), the pickled artifact, a SHA-256
of the artifact bytes, and the stage's own run-ledger shard. A killed
run resumes by reloading every entry whose key still matches; anything
else — absent, truncated, corrupted, or computed under a different key
or code version — reads as a miss and the stage re-executes.

Entries publish through the same path as the world cache's
(:func:`repro.core.staging.publish`): every file is written into a
hidden ``.staging-*`` directory and made visible by a single
``os.replace``. A SIGKILL at any point therefore leaves either no entry
or a complete one; a concurrent (or interrupted-then-resumed) reader can
never observe a partial artifact. Artifact bytes are additionally
verified against the stored hash on load, so even damage *after* a
successful publish reads as a miss rather than as wrong data.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import quote

from ..core.staging import publish, touch_heartbeat
from ..obs.ledger import RunLedger

__all__ = ["DagStore", "StoredStage", "hash_artifact"]

#: Bump when the on-disk entry layout or an artifact's shape changes
#: (invalidates all entries). 2: report fragments carry their payload.
DAG_STORE_FORMAT = 2

_META_FILE = "meta.json"
_ARTIFACT_FILE = "artifact.pkl"
_LEDGER_FILE = "ledger.jsonl"


def hash_artifact(artifact: Any) -> tuple[bytes, str]:
    """Pickle an artifact and hash the bytes.

    Returns ``(pickle_bytes, sha256_hex)``. Artifacts of this package
    (cell results, report text, file bundles) pickle deterministically
    for a fixed construction path, so the hash is a stable content
    address a downstream stage key can safely incorporate. Kinds whose
    artifacts have representation-dependent pickles (a cache-loaded
    world memory-maps its columns, a fresh build holds them in memory)
    register a ``fingerprint`` instead — see
    :func:`repro.dag.spec.register_stage_kind`.
    """
    blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class StoredStage:
    """A successfully reloaded stage entry."""

    artifact: Any
    output_hash: str
    #: The ledger shard the original execution recorded (``None`` when
    #: the stage recorded nothing) — merged on a hit so a resumed run's
    #: trace is byte-identical to an uninterrupted one.
    ledger: RunLedger | None


class DagStore:
    """A run directory of persisted stage artifacts, one entry per stage."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def stage_dir(self, stage_name: str) -> Path:
        # Stage names may contain '/' (e.g. "cell/baseline/seed=5");
        # percent-encoding keeps one flat, reversible directory per
        # stage without any collision risk.
        return self.root / quote(stage_name, safe="")

    def load(self, stage_name: str, key: str) -> StoredStage | None:
        """The stored artifact for ``stage_name`` at ``key``, or ``None``.

        Every failure mode — missing entry, stale key, truncated or
        corrupt artifact, unreadable ledger — is a miss; the scheduler
        falls back to re-executing the stage.
        """
        entry = self.stage_dir(stage_name)
        try:
            meta = json.loads((entry / _META_FILE).read_text())
            if meta.get("dag_store_format") != DAG_STORE_FORMAT:
                return None
            if meta.get("stage") != stage_name or meta.get("key") != key:
                return None
            output_hash = meta.get("output_hash")
            blob = (entry / _ARTIFACT_FILE).read_bytes()
            if hashlib.sha256(blob).hexdigest() != meta.get("blob_sha256"):
                return None
            artifact = pickle.loads(blob)
            ledger = None
            ledger_path = entry / _LEDGER_FILE
            if ledger_path.exists():
                ledger = RunLedger.from_jsonl(ledger_path.read_text())
        except Exception:
            # Unpickling arbitrary damaged bytes can raise nearly
            # anything; all of it means the same thing here — a miss.
            return None
        return StoredStage(
            artifact=artifact, output_hash=str(output_hash), ledger=ledger
        )

    def store(
        self,
        stage_name: str,
        key: str,
        artifact: Any,
        *,
        ledger: RunLedger | None = None,
        artifact_blob: bytes | None = None,
        output_hash: str | None = None,
    ) -> Path:
        """Atomically persist one stage's output; returns the entry path.

        ``artifact_blob``/``output_hash`` let the scheduler reuse the
        pickle it already produced for keying instead of serializing
        twice. The entry becomes visible only through the final
        ``os.replace``; interruption anywhere earlier leaves only an
        invisible staging directory.
        """
        if artifact_blob is None:
            artifact_blob = pickle.dumps(
                artifact, protocol=pickle.HIGHEST_PROTOCOL
            )
        blob_sha256 = hashlib.sha256(artifact_blob).hexdigest()
        if output_hash is None:
            output_hash = blob_sha256

        def write(staging: Path) -> None:
            (staging / _ARTIFACT_FILE).write_bytes(artifact_blob)
            touch_heartbeat(staging)
            if ledger is not None and not ledger.is_empty:
                (staging / _LEDGER_FILE).write_text(ledger.to_jsonl())
            (staging / _META_FILE).write_text(
                json.dumps(
                    {
                        "dag_store_format": DAG_STORE_FORMAT,
                        "stage": stage_name,
                        "key": key,
                        "blob_sha256": blob_sha256,
                        "output_hash": output_hash,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )

        # An occupant under another key (a previous run's entry) is
        # replaced; an equivalent valid one wins a concurrent store.
        return publish(
            self.root,
            self.stage_dir(stage_name),
            write,
            lambda: self.load(stage_name, key) is not None,
        )

    def clear(self) -> None:
        """Drop every stored stage (``repro dag run --no-resume``)."""
        if self.root.exists():
            shutil.rmtree(self.root)
