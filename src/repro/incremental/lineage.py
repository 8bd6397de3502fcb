"""Content-addressed persistence of matrix revisions.

One JSON file per revision, named by the *child* digest — a child has
exactly one recorded parent (its digest pins the full content, so two
different deltas reaching the same child are equivalent by
construction), while a parent may have many children.  Stored beside
the service's other content-addressed artifacts; a restarted daemon
sees every revision it ever accepted, so index delta updates chain
across generations (a grandchild's index is updated from its child's,
and so on).
"""

# The store's lock serializes revision-file I/O against concurrent
# readers, same as the job store; RL303's blocking-I/O-under-lock
# warning is this class's design, not a defect (docs/robustness.md,
# "Concurrency model").
# reglint: disable-file=RL303

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.incremental.delta import MatrixRevision

__all__ = ["RevisionStore"]

_DIGEST_PATTERN = re.compile(r"^[0-9a-f]{64}$")


class RevisionStore:
    """Crash-safe revision storage: one JSON file per child digest."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    def _path(self, child_digest: str) -> Path:
        if not _DIGEST_PATTERN.match(child_digest):
            raise KeyError(f"malformed matrix digest {child_digest!r}")
        return self.root / f"{child_digest}.json"

    def save(self, revision: MatrixRevision) -> MatrixRevision:
        """Persist one revision atomically (idempotent per child)."""
        path = self._path(revision.child_digest)
        with self._lock:
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(revision.to_dict(), sort_keys=True, indent=2)
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        return revision

    def get(self, child_digest: str) -> Optional[MatrixRevision]:
        """The revision that produced ``child_digest``, or ``None``.

        A malformed or unreadable file answers ``None`` — the child is
        then treated as a root matrix (mined from scratch), which is
        always safe.
        """
        try:
            path = self._path(child_digest)
        except KeyError:
            return None
        with self._lock:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError, OSError):
                return None
        try:
            return MatrixRevision.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def children_of(self, parent_digest: str) -> List[MatrixRevision]:
        """Every stored revision whose parent is ``parent_digest``."""
        return [
            revision
            for revision in self.list_revisions()
            if revision.parent_digest == parent_digest
        ]

    def list_revisions(self) -> List[MatrixRevision]:
        """Every readable stored revision, oldest first."""
        with self._lock:
            paths = sorted(self.root.glob("*.json"))
            revisions = []
            for path in paths:
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                    revisions.append(MatrixRevision.from_dict(payload))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError, OSError):
                    continue
        revisions.sort(key=lambda r: (r.created_at, r.child_digest))
        return revisions
