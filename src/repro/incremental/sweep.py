"""Batched gamma/epsilon parameter sweeps over one matrix.

A sweep submits the cross product of a gamma grid and an epsilon grid
as ordinary mining jobs sharing one matrix.  The batching win is the
RWave^gamma index: it depends on ``(matrix, gamma)`` only, so the grid
is expanded *gamma-major* — all epsilon points of a gamma run back to
back, the first builds (and caches) the index and the rest hit the
artifact cache.  The service asserts exactly one index build per
distinct gamma via the ``repro_incremental_index_builds_total`` metric
family.

Points map to ordinary job ids (``compute_job_id`` over the derived
parameters), so sweep results deduplicate against — and are shared
with — individually submitted jobs for free.
"""

# The store's lock serializes sweep-file I/O against concurrent
# readers, same as the job store; RL303's blocking-I/O-under-lock
# warning is this class's design, not a defect (docs/robustness.md,
# "Concurrency model").
# reglint: disable-file=RL303

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "MAX_SWEEP_POINTS",
    "SWEEP_FORMAT",
    "SweepBatch",
    "SweepPoint",
    "SweepStore",
    "compute_sweep_id",
    "expand_grid",
]

SWEEP_FORMAT = "reg-cluster-sweep/v1"

#: Cap on grid points per batch.  A sweep fans out through the ordinary
#: fair job queue, so the cap bounds how much queue a single request can
#: occupy — mirroring the front door's per-tenant admission quotas.
MAX_SWEEP_POINTS = 64

_SWEEP_ID_PATTERN = re.compile(r"^sweep-[0-9a-f]{16}$")


def _checked_axis(values: Sequence[float], name: str) -> Tuple[float, ...]:
    axis = tuple(float(v) for v in values)
    if not axis:
        raise ValueError(f"a sweep needs at least one {name} value")
    if len(set(axis)) != len(axis):
        raise ValueError(f"sweep {name} values must be unique")
    return axis


def expand_grid(
    gammas: Sequence[float], epsilons: Sequence[float]
) -> List[Tuple[float, float]]:
    """The (gamma, epsilon) cross product, gamma-major.

    Gamma-major order is the batching contract: consecutive points
    share a gamma, so each ``(matrix, gamma)`` index is built exactly
    once and every later point of that gamma reuses it from the
    artifact cache.
    """
    gamma_axis = _checked_axis(gammas, "gamma")
    epsilon_axis = _checked_axis(epsilons, "epsilon")
    total = len(gamma_axis) * len(epsilon_axis)
    if total > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep grid has {total} points, exceeding the cap of "
            f"{MAX_SWEEP_POINTS}"
        )
    return [
        (gamma, epsilon)
        for gamma in sorted(gamma_axis)
        for epsilon in sorted(epsilon_axis)
    ]


def compute_sweep_id(
    matrix_digest: str,
    base_parameters: Dict[str, Any],
    gammas: Sequence[float],
    epsilons: Sequence[float],
) -> str:
    """Deterministic sweep id over (matrix, base parameters, grid)."""
    payload = json.dumps(
        {
            "matrix": matrix_digest,
            "parameters": base_parameters,
            "gammas": sorted(float(g) for g in gammas),
            "epsilons": sorted(float(e) for e in epsilons),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(
        b"reg-cluster-sweep/v1\x00" + payload.encode("utf-8")
    ).hexdigest()
    return f"sweep-{digest[:16]}"


@dataclass(frozen=True)
class SweepPoint:
    """One grid point, bound to the ordinary job that computes it."""

    gamma: float
    epsilon: float
    job_id: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepPoint":
        return cls(
            gamma=float(payload["gamma"]),
            epsilon=float(payload["epsilon"]),
            job_id=str(payload["job_id"]),
        )


@dataclass(frozen=True)
class SweepBatch:
    """A submitted sweep: the grid, its jobs, and the base parameters."""

    sweep_id: str
    matrix_digest: str
    base_parameters: Dict[str, Any]
    points: Tuple[SweepPoint, ...]
    created_at: float

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep batch needs at least one point")
        if len(self.points) > MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep batch has {len(self.points)} points, exceeding "
                f"the cap of {MAX_SWEEP_POINTS}"
            )

    @property
    def gammas(self) -> Tuple[float, ...]:
        """Distinct gammas, in grid order (first occurrence wins)."""
        seen: Dict[float, None] = {}
        for point in self.points:
            seen.setdefault(point.gamma, None)
        return tuple(seen)

    @property
    def job_ids(self) -> Tuple[str, ...]:
        return tuple(point.job_id for point in self.points)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SWEEP_FORMAT,
            "sweep_id": self.sweep_id,
            "matrix_digest": self.matrix_digest,
            "base_parameters": dict(self.base_parameters),
            "points": [point.to_dict() for point in self.points],
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepBatch":
        if payload.get("format") != SWEEP_FORMAT:
            raise ValueError(
                f"unsupported sweep format {payload.get('format')!r}; "
                f"expected {SWEEP_FORMAT!r}"
            )
        return cls(
            sweep_id=str(payload["sweep_id"]),
            matrix_digest=str(payload["matrix_digest"]),
            base_parameters=dict(payload["base_parameters"]),
            points=tuple(
                SweepPoint.from_dict(point) for point in payload["points"]
            ),
            created_at=float(payload["created_at"]),
        )


class SweepStore:
    """Crash-safe sweep storage: one JSON file per sweep id."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    def _path(self, sweep_id: str) -> Path:
        if not _SWEEP_ID_PATTERN.match(sweep_id):
            raise KeyError(f"malformed sweep id {sweep_id!r}")
        return self.root / f"{sweep_id}.json"

    def save(self, batch: SweepBatch) -> SweepBatch:
        """Persist one batch atomically (idempotent per sweep id)."""
        path = self._path(batch.sweep_id)
        with self._lock:
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(batch.to_dict(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        return batch

    def get(self, sweep_id: str) -> Optional[SweepBatch]:
        """The stored batch, or ``None`` when unknown or unreadable."""
        try:
            path = self._path(sweep_id)
        except KeyError:
            return None
        with self._lock:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError, OSError):
                return None
        try:
            return SweepBatch.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def list_sweeps(self) -> List[SweepBatch]:
        """Every readable stored batch, oldest first."""
        with self._lock:
            paths = sorted(self.root.glob("sweep-*.json"))
            batches = []
            for path in paths:
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                    batches.append(SweepBatch.from_dict(payload))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError, OSError):
                    continue
        batches.sort(key=lambda b: (b.created_at, b.sweep_id))
        return batches
