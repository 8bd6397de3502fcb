"""The job engine: persistent, deterministic mining jobs.

A *job* is one request to mine a matrix at one parameter setting.  Its
identity is a pure function of the work — the matrix content digest (see
:func:`repro.matrix.summary.matrix_digest`) plus the
:class:`~repro.core.params.MiningParameters` — so resubmitting identical
work lands on the same job id and can be answered from the completed
result instead of re-mining.  Worker count is deliberately *excluded*
from the identity: the sharded executor guarantees results independent
of it (see :mod:`repro.service.executor`).

Job records move through a small state machine::

    submitted ──> running ──> done
        │            ├──────> degraded
        │            ├──────> failed
        └────────────┴──────> cancelled

and are persisted as one JSON file per job (atomic replace), so a
restarted service sees every job it ever accepted.  ``degraded`` is the
graceful-degradation terminal state (``docs/robustness.md``): the job
finished with the merged clusters of its surviving shards, and its
record lists the ``missing_shards`` that exhausted their retry budget.

Beside the records, the store persists **shard checkpoints**: one JSON
file per completed shard of a running job (:meth:`JobStore.save_shard`).
A daemon killed mid-job resumes from them — completed shards are merged
without re-mining (the deterministic shard merge makes the resumed
result bit-identical to an uninterrupted run).
"""

# The store's lock exists precisely to serialize record/checkpoint file
# I/O against concurrent readers; RL303's blocking-I/O-under-lock
# warning is this class's design, not a defect (docs/robustness.md,
# "Concurrency model").
# reglint: disable-file=RL303

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.params import MiningParameters
from repro.service.executor import ShardResult, shard_from_wire, shard_to_wire

__all__ = [
    "JobState",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "RESULT_STATES",
    "JobRecord",
    "JobStore",
    "compute_job_id",
    "parameters_to_dict",
    "parameters_from_dict",
]

class JobState(str, Enum):
    """Lifecycle states of a mining job."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    #: Finished with partial output: the retry budget ran out on at
    #: least one shard, and the result merges the surviving shards
    #: (the record's ``missing_shards`` lists the losses).
    DEGRADED = "degraded"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States in which a job still owns (or awaits) compute.
ACTIVE_STATES = frozenset({JobState.SUBMITTED, JobState.RUNNING})
#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.DEGRADED, JobState.FAILED, JobState.CANCELLED}
)
#: Terminal states whose jobs carry a result payload.
RESULT_STATES = frozenset({JobState.DONE, JobState.DEGRADED})

_JOB_ID_PATTERN = re.compile(r"^job-[0-9a-f]{16}$")


def parameters_to_dict(params: MiningParameters) -> Dict[str, Any]:
    """The canonical JSON form of a parameter bundle (sorted keys)."""
    return {
        "min_genes": params.min_genes,
        "min_conditions": params.min_conditions,
        "gamma": params.gamma,
        "epsilon": params.epsilon,
        "max_clusters": params.max_clusters,
    }


def parameters_from_dict(payload: Dict[str, Any]) -> MiningParameters:
    """Inverse of :func:`parameters_to_dict` (re-validated on build).

    Raises :class:`ValueError` for anything but an object of numbers.
    """
    if not isinstance(payload, dict):
        raise ValueError("parameters must be a JSON object")
    known = {"min_genes", "min_conditions", "gamma", "epsilon", "max_clusters"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"unknown mining parameter(s): {', '.join(sorted(unknown))}"
        )
    missing = {"min_genes", "min_conditions", "gamma", "epsilon"} - set(payload)
    if missing:
        raise ValueError(
            f"missing mining parameter(s): {', '.join(sorted(missing))}"
        )
    for name, value in payload.items():
        if not isinstance(value, (int, float, str)) and not (
            name == "max_clusters" and value is None
        ):
            raise ValueError(f"mining parameter {name!r} must be a number")
    return MiningParameters(
        min_genes=int(payload["min_genes"]),
        min_conditions=int(payload["min_conditions"]),
        gamma=float(payload["gamma"]),
        epsilon=float(payload["epsilon"]),
        max_clusters=(
            None if payload.get("max_clusters") is None
            else int(payload["max_clusters"])
        ),
    )


def compute_job_id(matrix_digest: str, params: MiningParameters) -> str:
    """Deterministic job id from (matrix digest, parameters).

    >>> from repro.core.params import MiningParameters
    >>> p = MiningParameters(min_genes=3, min_conditions=5,
    ...                      gamma=0.15, epsilon=0.1)
    >>> compute_job_id("abc123", p) == compute_job_id("abc123", p)
    True
    >>> compute_job_id("abc123", p) == compute_job_id(
    ...     "abc123", p.with_overrides(epsilon=0.2))
    False
    >>> compute_job_id("abc123", p).startswith("job-")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(b"reg-cluster-job/v1")
    hasher.update(matrix_digest.encode("ascii"))
    hasher.update(
        json.dumps(parameters_to_dict(params), sort_keys=True).encode("ascii")
    )
    return f"job-{hasher.hexdigest()[:16]}"


#: Keys that records written by earlier versions carry for fields
#: since removed.  Dropped on load so such a store still opens; any
#: other unknown key still raises.
_RETIRED_KEYS = (
    "kernel_cache_hit", "kernel_build", "reused_shards", "revision_parent",
)


@dataclass(frozen=True)
class JobRecord:
    """One job's persisted metadata (everything but the result payload)."""

    job_id: str
    state: JobState
    matrix_digest: str
    parameters: Dict[str, Any]
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: live counters: ``nodes_expanded``, ``clusters_emitted``
    progress: Dict[str, int] = field(default_factory=dict)
    #: was the RWave index served from the artifact cache? (``None``
    #: until the job reaches the index-acquisition step)
    index_cache_hit: Optional[bool] = None
    #: was the whole result served from the artifact cache?
    result_cache_hit: Optional[bool] = None
    #: wall-clock seconds per search phase (candidates / windows /
    #: emit), summed across shards; set when the job completes
    phase_timers: Optional[Dict[str, float]] = None
    #: shards lost to an exhausted retry budget (``degraded`` jobs
    #: only; the result merges the surviving shards)
    missing_shards: Optional[List[int]] = None
    #: shards answered from checkpoints of an earlier (interrupted or
    #: degraded) run instead of being re-mined
    resumed_shards: Optional[List[int]] = None
    #: failed attempts per shard (as ``{"<start>": count}``), recorded
    #: when any shard needed a retry
    shard_failures: Optional[Dict[str, int]] = None
    #: who mined each shard (``{"<start>": {"node": <node id,
    #: "local", or "checkpoint">, "attempts": total attempts}}``) —
    #: set when the job finishes with a result; fleet jobs name the
    #: worker node, local jobs say ``local``, resumed shards say
    #: ``checkpoint`` (docs/distributed.md)
    shard_provenance: Optional[Dict[str, Any]] = None
    #: scheduling class (``high`` / ``normal`` / ``low``) — weighted-
    #: fair dequeue into the executor (docs/service.md).  Excluded from
    #: the job identity: resubmitting at a different priority re-ranks
    #: the same job, it does not fork a new one.
    priority: str = "normal"
    #: the ``X-Repro-Tenant`` this job was submitted under (``None``
    #: for direct/in-process submissions) — admission accounting only,
    #: never part of the job identity
    tenant: Optional[str] = None
    #: how this job's RWave index was obtained: ``cached`` (artifact
    #: cache) or ``cold`` (built from scratch); ``None`` until
    #: acquisition.  Records of earlier versions may say ``delta``
    #: (updated from the parent matrix's index) and load as they are.
    index_build: Optional[str] = None
    #: the sweep batch this job was submitted under (``None`` for
    #: individually submitted jobs)
    sweep_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["state"] = self.state.value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        data = dict(payload)
        for key in _RETIRED_KEYS:
            data.pop(key, None)
        data["state"] = JobState(data["state"])
        return cls(**data)


class JobStore:
    """Crash-safe job-record storage: one JSON file per job.

    Writes go through a temp file + :func:`os.replace`, so a record on
    disk is always a complete JSON document.  All mutation happens under
    one lock, making the store safe to share between the HTTP threads
    and the execution worker.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _path(self, job_id: str) -> Path:
        if not _JOB_ID_PATTERN.match(job_id):
            raise KeyError(f"malformed job id {job_id!r}")
        return self.root / f"{job_id}.json"

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------

    def save(self, record: JobRecord) -> JobRecord:
        """Persist (create or overwrite) one record atomically."""
        path = self._path(record.job_id)
        with self._lock:
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        return record

    def exists(self, job_id: str) -> bool:
        try:
            return self._path(job_id).exists()
        except KeyError:
            return False

    def get(self, job_id: str) -> JobRecord:
        """Load one record; raises :class:`KeyError` for unknown ids."""
        path = self._path(job_id)
        with self._lock:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise KeyError(f"unknown job {job_id!r}") from None
        return JobRecord.from_dict(payload)

    def update(self, job_id: str, **changes: Any) -> JobRecord:
        """Read-modify-write one record under the store lock."""
        with self._lock:
            record = replace(self.get(job_id), **changes)
            return self.save(record)

    def delete(self, job_id: str) -> None:
        """Remove one record; raises :class:`KeyError` for unknown ids."""
        path = self._path(job_id)
        with self._lock:
            try:
                path.unlink()
            except FileNotFoundError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def list_records(self) -> List[JobRecord]:
        """Every stored record, oldest submission first."""
        with self._lock:
            records = [
                JobRecord.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
                for path in sorted(self.root.glob("job-*.json"))
            ]
        records.sort(key=lambda r: (r.submitted_at, r.job_id))
        return records

    # ------------------------------------------------------------------
    # Shard checkpoints
    # ------------------------------------------------------------------
    #
    # One JSON file per completed shard, written atomically the moment
    # the shard finishes — never read-modify-write, so a daemon killed
    # mid-checkpoint loses at most the shard being written.  A corrupt
    # or half-written file is simply skipped on load (the shard is
    # re-mined), keeping resume strictly safe.

    def _shards_dir(self, job_id: str) -> Path:
        if not _JOB_ID_PATTERN.match(job_id):
            raise KeyError(f"malformed job id {job_id!r}")
        return self.root / f"{job_id}.shards"

    def save_shard(self, job_id: str, shard: ShardResult) -> None:
        """Checkpoint one completed shard of a running job."""
        directory = self._shards_dir(job_id)
        payload = json.dumps(shard_to_wire(shard), sort_keys=True) + "\n"
        with self._lock:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"shard-{int(shard[0]):04d}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)

    def load_shards(self, job_id: str) -> Dict[int, ShardResult]:
        """Every readable shard checkpoint of a job, keyed by start.

        Unreadable or malformed checkpoint files are skipped — resuming
        re-mines those shards instead of trusting torn writes.
        """
        directory = self._shards_dir(job_id)
        shards: Dict[int, ShardResult] = {}
        with self._lock:
            paths = sorted(directory.glob("shard-*.json"))
            for path in paths:
                try:
                    shard = shard_from_wire(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, ValueError):
                    continue
                shards[shard[0]] = shard
        return shards

    def clear_shards(self, job_id: str) -> None:
        """Drop every shard checkpoint of a job (no-op when absent)."""
        directory = self._shards_dir(job_id)
        with self._lock:
            if not directory.is_dir():
                return
            for path in directory.glob("shard-*.json*"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            try:
                directory.rmdir()
            except OSError:
                pass
