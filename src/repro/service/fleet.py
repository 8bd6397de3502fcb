"""Distributed shard mining: the multi-node work-queue fleet.

The sharded executor (:mod:`repro.service.executor`) proves that the
Fig. 5 search decomposes into independent shards — one per first chain
condition — whose deterministic merge is bit-identical to
single-process mining.  This module stretches that decomposition across
machines: the daemon becomes a **coordinator** handing out *shard
leases* over HTTP/JSON, and **node daemons** (``reg-cluster node``)
pull leases, mine their shards locally with the very same
:func:`~repro.service.executor.mine_sharded_outcome`, and post the
results back.  A fleet job's shards are booked by the executor's shard
ledger — the one the in-process and pool drivers use — so a distributed
job resumes, degrades, traces, reports provenance and — crucially —
produces *byte-identical* output to a local one (docs/distributed.md).

Coordinator side
----------------
:class:`FleetState` is the work queue.  One lock plus one condition
variable guard every mutable field; the HTTP handler threads
(lease/complete/heartbeat) and the executor thread
(:meth:`FleetState.run_job`) rendezvous on it.

* **Leases** — a node leases up to ``max_lease_shards`` shards of one
  job at a time.  A leased shard cannot be leased again (double-lease
  prevention); the lease carries the matrix digest, parameters, and
  the job's mine-span :class:`~repro.obs.trace.SpanContext` so remote
  shard spans stitch under the coordinator's job root trace.
* **Liveness** — every lease has a deadline ``granted_at +
  lease_ttl``; a heartbeat from the owning node extends its leases.  A
  node that dies (SIGKILL, partition) stops heartbeating, its leases
  expire, and the reclaim sweep re-queues the shards — each reclaim
  charges **one failed attempt** against the shard's existing
  :class:`~repro.service.resilience.RetryPolicy` budget, so a shard
  that keeps landing on dying nodes eventually degrades exactly like a
  shard that keeps crashing locally.
* **Affinity** — lease requests advertise the kernel artifacts the
  node already holds (:meth:`~repro.service.cache.ArtifactCache
  .kernel_keys`); the coordinator prefers handing out shards of a job
  whose (matrix, gamma) kernel the node has already built, falling
  back freely.  The bit-packed RWave^gamma kernel is thus built once
  per node, not once per shard.
* **Idempotence** — a ``complete`` for a reclaimed or finished lease
  is rejected with ``{"accepted": false}`` and counted; the result the
  late node computed is identical to whatever the retry produced
  (shards are deterministic), so dropping it is always safe.

Node side
---------
:class:`FleetNode` is the worker: heartbeat thread + lease loop.  It
fetches matrices and kernels from the coordinator *by content digest*
(``GET /artifacts/...``), keeps them in its own
:class:`~repro.service.cache.ArtifactCache`, and mines leased shards
via ``mine_sharded_outcome(..., shards=leased)`` — reusing the entire
retry-free single-machine pipeline, including its tracing.

Lock discipline (docs/robustness.md, "Concurrency model"): no file
I/O, sleeping, or network calls ever run under the fleet lock.  Handler
threads only move shards between lease states and charge failures to
the job's shard ledger; an accepted completion waits in the job's
inbox until the :meth:`FleetState.run_job` thread books it, so its
checkpoint persistence and trace emission happen there, outside the
lock, before the job can finish.
"""

from __future__ import annotations

import io
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.miner import ProgressCallback, RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.io import read_matrix_npz
from repro.matrix.summary import matrix_digest
from repro.obs.log import get_logger
from repro.obs.trace import (
    NULL_TRACER,
    SpanContext,
    Tracer,
    load_spans,
)
from repro.service.cache import ArtifactCache, kernel_cache_key
from repro.service.executor import (
    ShardResult,
    ShardedOutcome,
    _ShardDriver,
    mine_sharded_outcome,
    shard_from_wire,
    shard_to_wire,
)
from repro.service.jobs import parameters_from_dict, parameters_to_dict
from repro.service.resilience import FaultInjected, FaultPlan, RetryPolicy

__all__ = ["FleetNode", "FleetState", "ShardLease"]

_LOG = get_logger("repro.service.fleet")

#: Default lease time-to-live in seconds; heartbeats extend it.
DEFAULT_LEASE_TTL = 30.0
#: Default shards handed out per lease.
DEFAULT_LEASE_SHARDS = 2


def _new_lease_id() -> str:
    return os.urandom(8).hex()


# ----------------------------------------------------------------------
# Coordinator state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardLease:
    """One granted lease: a batch of shards of one job, one deadline."""

    lease_id: str
    node_id: str
    job_id: str
    shards: Tuple[int, ...]
    granted_at: float  # monotonic
    deadline: float  # monotonic; extended by heartbeats


@dataclass
class _NodeInfo:
    """What the coordinator knows about one worker node."""

    node_id: str
    last_seen: float  # monotonic
    kernels: Set[str] = field(default_factory=set)
    shards_completed: int = 0
    shards_failed: int = 0


@dataclass
class _FleetStats:
    """Counters behind the ``repro_fleet_*`` metric families.

    Mutated only under the owning :class:`FleetState` lock.
    """

    leases_granted: int = 0
    leases_expired: int = 0
    shards_reclaimed: int = 0
    affinity_hits: int = 0
    affinity_misses: int = 0
    heartbeats: int = 0
    completions_rejected: Dict[str, int] = field(default_factory=dict)
    shards_completed: Dict[str, int] = field(default_factory=dict)


class _FleetJob:
    """Lease state of one job while :meth:`FleetState.run_job` drives it.

    Everything else about the job's shards — resume, attempts, faults,
    provenance, progress, the merge — lives in its shard ledger, the
    same one behind the single-machine drivers
    (:mod:`repro.service.executor`).
    """

    def __init__(
        self, job_id: str, ledger: _ShardDriver, matrix_digest: str
    ) -> None:
        self.job_id = job_id
        self.ledger = ledger
        self.matrix_digest = matrix_digest
        self.kernel_key = kernel_cache_key(matrix_digest, ledger.params.gamma)
        self.pending: List[int] = list(ledger.pending)
        #: monotonic time before which a re-queued shard must not be
        #: leased again (the RetryPolicy backoff, enforced queue-side).
        self.retry_at: Dict[int, float] = {}
        self.leases: Dict[int, ShardLease] = {}
        #: shards with a result: resumed, or a completion accepted
        self.done: Set[int] = set(ledger.resumed)
        #: accepted reports — (shard, node, spans), shard ``None`` for
        #: a failure — whose spans and result the run_job thread has yet
        #: to emit and book into the ledger
        self.inbox: List[
            Tuple[Optional[ShardResult], str, List[Dict[str, Any]]]
        ] = []

    def due_pending(self, now: float) -> List[int]:
        """Shards leasable right now (pending and past any backoff)."""
        return [
            start
            for start in self.pending
            if self.retry_at.get(start, 0.0) <= now
        ]

    def finished(self) -> bool:
        return not self.pending and not self.leases and not self.inbox


class FleetState:
    """The coordinator's work queue: leases, liveness, reclaim, affinity.

    Parameters
    ----------
    lease_ttl:
        Seconds a lease stays valid without a heartbeat from its node.
        Heartbeats extend every lease the node holds; an expired lease
        is reclaimed and its shards re-queued.
    retry:
        The per-shard retry budget and backoff shared with local
        execution.  Every reclaim or reported node-side failure counts
        one attempt; an exhausted budget degrades the job, exactly as
        in :func:`~repro.service.executor.mine_sharded_outcome`.
    max_lease_shards:
        Shards handed out per lease grant.
    local_mining:
        When true (default), :meth:`run_job` mines unleased shards on
        the coordinator itself between waits — a fleet with zero nodes
        degenerates to plain local execution, never a hung job.
    """

    def __init__(
        self,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        retry: Optional[RetryPolicy] = None,
        max_lease_shards: int = DEFAULT_LEASE_SHARDS,
        local_mining: bool = True,
    ) -> None:
        if lease_ttl <= 0.0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_lease_shards < 1:
            raise ValueError(
                f"max_lease_shards must be >= 1, got {max_lease_shards}"
            )
        self.lease_ttl = float(lease_ttl)
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_lease_shards = int(max_lease_shards)
        self.local_mining = local_mining
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, _FleetJob] = {}
        self._nodes: Dict[str, _NodeInfo] = {}
        self._stats = _FleetStats()

    # ------------------------------------------------------------------
    # Locked helpers (callers hold self._lock)
    # ------------------------------------------------------------------

    def _touch_node_locked(
        self, node_id: str, kernels: Optional[Sequence[str]], now: float
    ) -> _NodeInfo:
        node = self._nodes.get(node_id)
        if node is None:
            node = _NodeInfo(node_id=node_id, last_seen=now)
            self._nodes[node_id] = node
        node.last_seen = now
        if kernels is not None:
            node.kernels = {str(key) for key in kernels}
        return node

    def _fail_shard_locked(
        self, job: _FleetJob, start: int, error: Union[BaseException, str]
    ) -> bool:
        """Charge one failed attempt; ``True`` if the shard re-queued."""
        job.leases.pop(start, None)
        if not job.ledger.record_failure(start, error):
            return False
        job.pending.append(start)
        job.pending.sort()
        job.retry_at[start] = job.ledger.retry_time(start)
        return True

    def _reclaim_locked(self, now: float) -> None:
        """Expire dead leases and re-queue their shards."""
        for job in self._jobs.values():
            expired_leases: Set[str] = set()
            for start, lease in list(job.leases.items()):
                if lease.deadline > now:
                    continue
                expired_leases.add(lease.lease_id)
                requeued = self._fail_shard_locked(
                    job,
                    start,
                    f"lease {lease.lease_id} on node {lease.node_id} "
                    f"expired after {self.lease_ttl:g}s",
                )
                self._stats.shards_reclaimed += 1
                _LOG.warning(
                    "fleet.lease.reclaimed",
                    job_id=job.job_id,
                    shard=start,
                    node=lease.node_id,
                    lease_id=lease.lease_id,
                    requeued=requeued,
                )
            if expired_leases:
                self._stats.leases_expired += len(expired_leases)
                self._cond.notify_all()

    def _grant_locked(
        self,
        job: _FleetJob,
        starts: Sequence[int],
        node_id: str,
        now: float,
        deadline: float,
    ) -> ShardLease:
        """Move ``starts`` from the job's queue into one new lease."""
        lease = ShardLease(
            lease_id=_new_lease_id(),
            node_id=node_id,
            job_id=job.job_id,
            shards=tuple(starts),
            granted_at=now,
            deadline=deadline,
        )
        for start in starts:
            job.pending.remove(start)
            job.retry_at.pop(start, None)
            job.leases[start] = lease
        return lease

    def _accept_locked(
        self,
        job: _FleetJob,
        shard: ShardResult,
        node: str,
        spans: List[Dict[str, Any]],
    ) -> None:
        """Take one completed shard off its lease, into the job's inbox."""
        job.leases.pop(shard[0], None)
        job.done.add(shard[0])
        job.inbox.append((shard, node, spans))
        source = "local" if node == "local" else "remote"
        self._stats.shards_completed[source] = (
            self._stats.shards_completed.get(source, 0) + 1
        )
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Node-facing protocol (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def heartbeat(
        self, node_id: str, kernels: Sequence[str] = ()
    ) -> Dict[str, Any]:
        """Record node liveness; extends every lease the node holds."""
        now = time.monotonic()
        with self._cond:
            self._touch_node_locked(node_id, kernels, now)
            self._stats.heartbeats += 1
            extended = 0
            for job in self._jobs.values():
                for start, lease in list(job.leases.items()):
                    if lease.node_id == node_id and lease.deadline > now:
                        job.leases[start] = ShardLease(
                            lease_id=lease.lease_id,
                            node_id=lease.node_id,
                            job_id=lease.job_id,
                            shards=lease.shards,
                            granted_at=lease.granted_at,
                            deadline=now + self.lease_ttl,
                        )
                        extended += 1
        return {
            "ok": True,
            "lease_ttl": self.lease_ttl,
            "leases_extended": extended,
        }

    def lease(
        self,
        node_id: str,
        kernels: Sequence[str] = (),
        max_shards: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """Grant a batch of shards of one job, or ``None`` when idle.

        Affinity: jobs whose kernel artifact the node already holds are
        preferred; the grant says whether it was an affinity hit so the
        node (and the metrics) can tell.
        """
        now = time.monotonic()
        budget = (
            self.max_lease_shards
            if max_shards is None
            else max(1, min(int(max_shards), self.max_lease_shards))
        )
        with self._cond:
            node = self._touch_node_locked(node_id, kernels, now)
            self._reclaim_locked(now)
            candidates = [
                job for job in self._jobs.values() if job.due_pending(now)
            ]
            if not candidates:
                return None
            affine = [
                job for job in candidates if job.kernel_key in node.kernels
            ]
            if affine:
                job = affine[0]
                self._stats.affinity_hits += 1
                affinity_hit = True
            else:
                job = candidates[0]
                self._stats.affinity_misses += 1
                affinity_hit = False
            take = job.due_pending(now)[:budget]
            lease = self._grant_locked(
                job, take, node_id, now, now + self.lease_ttl
            )
            self._stats.leases_granted += 1
            ledger = job.ledger
            trace = (
                None
                if ledger.trace_parent is None or not ledger.tracer.enabled
                else {
                    "trace_id": ledger.trace_parent.trace_id,
                    "span_id": ledger.trace_parent.span_id,
                }
            )
            payload = {
                "lease_id": lease.lease_id,
                "job_id": job.job_id,
                "shards": list(take),
                "attempts": {
                    str(start): ledger.failed_attempts.get(start, 0)
                    for start in take
                },
                "matrix_digest": job.matrix_digest,
                "parameters": parameters_to_dict(ledger.params),
                "ttl": self.lease_ttl,
                "affinity_hit": affinity_hit,
                "trace": trace,
            }
        _LOG.info(
            "fleet.lease.granted",
            job_id=payload["job_id"],
            node=node_id,
            shards=payload["shards"],
            affinity_hit=affinity_hit,
        )
        return payload

    def complete(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Accept (or idempotently reject) one shard completion.

        A late ``complete`` — the lease was reclaimed, the job
        finished, or the shard already has a result — returns
        ``{"accepted": false, "reason": ...}`` without raising: shard
        results are deterministic, so dropping a duplicate is always
        correct.  Malformed payloads raise :class:`ValueError` (HTTP
        400).
        """
        try:
            job_id = str(payload["job_id"])
            lease_id = str(payload["lease_id"])
            node_id = str(payload["node_id"])
            start = int(payload["shard"])
            status = str(payload.get("status", "ok"))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"malformed complete payload: {error}"
            ) from None
        shard: Optional[ShardResult] = None
        if status == "ok":
            shard = shard_from_wire(payload)  # parse outside the lock
        spans: List[Dict[str, Any]] = []
        for span in payload.get("spans") or []:
            if isinstance(span, dict):
                attrs = span.setdefault("attributes", {})
                if isinstance(attrs, dict):
                    attrs.setdefault("node", node_id)
                spans.append(span)
        now = time.monotonic()
        with self._cond:
            node = self._touch_node_locked(node_id, None, now)
            job = self._jobs.get(job_id)
            if job is None:
                return self._reject_locked("unknown-job", job_id, start)
            if start in job.done:
                return self._reject_locked("duplicate", job_id, start)
            lease = job.leases.get(start)
            if lease is None or lease.lease_id != lease_id:
                return self._reject_locked("lease-expired", job_id, start)
            if shard is None:
                message = str(payload.get("error") or "node-reported failure")
                requeued = self._fail_shard_locked(
                    job, start, f"node {node_id}: {message}"
                )
                node.shards_failed += 1
                job.inbox.append((None, node_id, spans))
                self._cond.notify_all()
                return {
                    "accepted": True,
                    "status": "failure-recorded",
                    "will_retry": requeued,
                }
            self._accept_locked(job, shard, node_id, spans)
            node.shards_completed += 1
        _LOG.info(
            "fleet.shard.completed",
            job_id=job_id,
            shard=start,
            node=node_id,
        )
        return {"accepted": True}

    def _reject_locked(
        self, reason: str, job_id: str, start: int
    ) -> Dict[str, Any]:
        self._stats.completions_rejected[reason] = (
            self._stats.completions_rejected.get(reason, 0) + 1
        )
        _LOG.warning(
            "fleet.complete.rejected",
            reason=reason,
            job_id=job_id,
            shard=start,
        )
        return {"accepted": False, "reason": reason}

    # ------------------------------------------------------------------
    # Executor-facing: run one job through the queue
    # ------------------------------------------------------------------

    def run_job(
        self,
        job_id: str,
        matrix: ExpressionMatrix,
        params: MiningParameters,
        *,
        matrix_digest: str,
        index: Optional[RWaveIndex] = None,
        fault_plan: Optional[FaultPlan] = None,
        completed: Optional[Mapping[int, ShardResult]] = None,
        completed_origin: Optional[Mapping[int, str]] = None,
        on_shard_complete: Optional[Callable[[ShardResult], None]] = None,
        progress_callback: Optional[ProgressCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[SpanContext] = None,
        poll_interval: float = 0.05,
    ) -> ShardedOutcome:
        """Drive one job to completion through the fleet queue.

        Blocks until every shard is completed (by nodes, local mining,
        or checkpoints) or lost to an exhausted retry budget.  The job's
        shards are booked by the same ledger as
        :func:`~repro.service.executor.mine_sharded_outcome` (the
        keyword arguments mean the same there), so it returns the same
        :class:`~repro.service.executor.ShardedOutcome`, provenance
        included.  This queue only decides where each shard runs.
        Cancellation and timeout raise
        :class:`~repro.core.miner.MiningCancelled` /
        :class:`~repro.core.miner.MiningTimeout` with partial clusters
        attached — mid-shard, too, for shards mined locally.

        Lock discipline: handler threads touch the ledger only to
        charge failures, under the lock.  Accepted completions wait in
        the job's inbox until this thread books them — checkpoint,
        trace and progress I/O all run here, outside the lock.
        """
        ledger = _ShardDriver(
            matrix,
            params,
            index=index,
            fault_plan=fault_plan,
            retry=self.retry,
            timeout=timeout,
            completed=completed,
            completed_origin=completed_origin,
            on_shard_complete=on_shard_complete,
            progress_callback=progress_callback,
            should_stop=should_stop,
            tracer=tracer,
            trace_parent=trace_parent,
        )
        job = _FleetJob(job_id, ledger, matrix_digest)
        with self._cond:
            if job_id in self._jobs:
                raise ValueError(f"job {job_id} is already queued")
            self._jobs[job_id] = job
        miner: Optional[RegClusterMiner] = None  # built on first local shard
        try:
            while True:
                local: Optional[int] = None
                attempt = 0
                with self._cond:
                    now = time.monotonic()
                    self._reclaim_locked(now)
                    if job.finished():
                        break
                    landed, job.inbox = job.inbox, []
                    due = job.due_pending(now) if self.local_mining else []
                    if due:
                        local = due[0]
                        attempt = ledger.failed_attempts.get(local, 0)
                        self._grant_locked(
                            job, [local], "local", now, float("inf")
                        )
                    elif not landed:
                        self._cond.wait(timeout=poll_interval)
                for shard, node, spans in landed:
                    for span in spans:
                        ledger.tracer.emit(span)
                    if shard is not None:
                        ledger.record_shard(shard, node)
                ledger.check_interrupts("in the fleet queue")
                if local is not None:
                    if miner is None:
                        miner = ledger.in_process_miner()
                    self._mine_local(job, miner, local, attempt)
        finally:
            with self._cond:
                self._jobs.pop(job_id, None)
        return ledger.outcome()

    def _mine_local(
        self,
        job: _FleetJob,
        miner: RegClusterMiner,
        start: int,
        attempt: int,
    ) -> None:
        """Mine one claimed shard on the coordinator, outside the lock,
        through the ledger's in-process shard body."""
        try:
            shard = job.ledger.mine_here(miner, start, attempt, node="local")
        except FaultInjected as error:
            with self._cond:
                self._fail_shard_locked(job, start, error)
            return
        with self._cond:
            self._accept_locked(job, shard, "local", [])

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def active_nodes(self, now: Optional[float] = None) -> List[str]:
        """Nodes heard from within the last lease TTL."""
        now = time.monotonic() if now is None else now
        with self._cond:
            return sorted(
                node_id
                for node_id, node in self._nodes.items()
                if now - node.last_seen <= self.lease_ttl
            )

    def queue_depth(self) -> int:
        """Shards currently waiting to be leased, across all jobs."""
        with self._cond:
            return sum(len(job.pending) for job in self._jobs.values())

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly view of the queue (``GET /fleet/status``)."""
        now = time.monotonic()
        with self._cond:
            held: Dict[str, int] = {}
            for job in self._jobs.values():
                for lease in job.leases.values():
                    held[lease.node_id] = held.get(lease.node_id, 0) + 1
            return {
                "lease_ttl": self.lease_ttl,
                "local_mining": self.local_mining,
                "queue_depth": sum(
                    len(job.pending) for job in self._jobs.values()
                ),
                "jobs": {
                    job_id: {
                        "pending": len(job.pending),
                        "leased": len(job.leases),
                        "completed": len(job.done),
                        "missing": len(job.ledger.missing),
                    }
                    for job_id, job in self._jobs.items()
                },
                "nodes": {
                    node_id: {
                        "active": now - node.last_seen <= self.lease_ttl,
                        "last_seen_s": round(now - node.last_seen, 3),
                        "kernels": len(node.kernels),
                        "leases_held": held.get(node_id, 0),
                        "shards_completed": node.shards_completed,
                        "shards_failed": node.shards_failed,
                    }
                    for node_id, node in self._nodes.items()
                },
            }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Plain numbers for the ``repro_fleet_*`` collector."""
        now = time.monotonic()
        with self._cond:
            return {
                "queue_depth": sum(
                    len(job.pending) for job in self._jobs.values()
                ),
                "nodes_active": sum(
                    1
                    for node in self._nodes.values()
                    if now - node.last_seen <= self.lease_ttl
                ),
                "leases_granted": self._stats.leases_granted,
                "leases_expired": self._stats.leases_expired,
                "shards_reclaimed": self._stats.shards_reclaimed,
                "affinity_hits": self._stats.affinity_hits,
                "affinity_misses": self._stats.affinity_misses,
                "heartbeats": self._stats.heartbeats,
                "completions_rejected": dict(
                    self._stats.completions_rejected
                ),
                "shards_completed": dict(self._stats.shards_completed),
            }


# ----------------------------------------------------------------------
# Worker-node daemon
# ----------------------------------------------------------------------

class FleetNode:
    """A worker node: lease shards, mine locally, post results.

    Parameters
    ----------
    coordinator_url:
        Base URL of the coordinator daemon (``reg-cluster serve
        --fleet``).
    node_id:
        Stable identity advertised to the coordinator; defaults to
        ``<hostname>-<pid>``.
    workers:
        Worker processes used to mine one lease's shards (the same
        knob as the daemon's ``--workers``).
    cache_dir:
        Directory of the node's own
        :class:`~repro.service.cache.ArtifactCache` (indexes, kernels)
        and fetched-trace scratch space.
    poll_interval:
        Seconds to sleep between empty lease polls.
    max_lease_shards:
        Upper bound on shards requested per lease.
    fault_plan:
        Chaos hook, defaulting to the plan named by ``REPRO_FAULTS`` —
        each node process reads its *own* environment, so a smoke test
        can slow down one node and not the other.
    """

    def __init__(
        self,
        coordinator_url: str,
        *,
        node_id: Optional[str] = None,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        poll_interval: float = 0.2,
        max_lease_shards: int = DEFAULT_LEASE_SHARDS,
        fault_plan: Optional[FaultPlan] = None,
        client: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.node_id = (
            node_id
            if node_id is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        if client is None:
            # Imported here: http.py imports service.py which imports
            # this module, so a module-level import would be a cycle.
            from repro.service.http import ServiceClient

            # The node's id doubles as its tenant tag, so coordinator
            # admission metrics attribute fleet traffic per node.
            client = ServiceClient(coordinator_url, tenant=self.node_id)
        self.client = client
        self.workers = workers
        self.cache_dir = (
            Path(cache_dir)
            if cache_dir is not None
            else Path(f".reg-cluster-node-{os.getpid()}")
        )
        self.cache = ArtifactCache(self.cache_dir / "cache")
        self.poll_interval = poll_interval
        self.max_lease_shards = max_lease_shards
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._matrices: Dict[str, ExpressionMatrix] = {}
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._lease_ttl = DEFAULT_LEASE_TTL
        self.leases_mined = 0
        self.shards_mined = 0

    # -- heartbeat ----------------------------------------------------

    def _heartbeat_interval(self) -> float:
        return min(5.0, max(0.2, self._lease_ttl / 3.0))

    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self._heartbeat_interval()):
            try:
                answer = self.client.fleet_heartbeat(
                    self.node_id, kernels=self.cache.kernel_keys()
                )
                self._lease_ttl = float(
                    answer.get("lease_ttl", self._lease_ttl)
                )
            except Exception as error:  # reglint: disable=RL103
                # A dead or restarting coordinator must not kill the
                # heartbeat thread; the next beat retries.
                _LOG.warning(
                    "fleet.node.heartbeat_failed",
                    node=self.node_id,
                    error=f"{type(error).__name__}: {error}",
                )

    def start_heartbeat(self) -> None:
        if (
            self._heartbeat_thread is not None
            and self._heartbeat_thread.is_alive()
        ):
            return
        self._heartbeat_stop.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"fleet-heartbeat-{self.node_id}",
            daemon=True,
        )
        self._heartbeat_thread.start()

    def stop_heartbeat(self) -> None:
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None

    # -- artifacts ----------------------------------------------------

    def _matrix(self, digest: str) -> ExpressionMatrix:
        matrix = self._matrices.get(digest)
        if matrix is not None:
            return matrix
        matrix = read_matrix_npz(io.BytesIO(self.client.fetch_matrix(digest)))
        if matrix_digest(matrix) != digest:
            raise ValueError(
                f"fetched matrix does not hash to {digest} — refusing to "
                f"mine corrupted data"
            )
        self._matrices[digest] = matrix
        return matrix

    # -- mining -------------------------------------------------------

    def step(self) -> bool:
        """One poll: lease, mine, report.  ``True`` when work was done."""
        lease = self.client.fleet_lease(
            self.node_id,
            kernels=self.cache.kernel_keys(),
            max_shards=self.max_lease_shards,
        )
        if lease is None:
            return False
        self._lease_ttl = float(lease.get("ttl", self._lease_ttl))
        try:
            self._mine_lease(lease)
        except Exception as error:  # reglint: disable=RL103
            # A broken lease (unfetchable matrix, bad payload) fails
            # every shard back to the coordinator so its retry budget —
            # not a silent lease expiry — decides the shards' fate.
            message = f"{type(error).__name__}: {error}"
            _LOG.error(
                "fleet.node.lease_failed",
                node=self.node_id,
                job_id=lease.get("job_id"),
                error=message,
            )
            for start in lease.get("shards", []):
                self._post_complete({
                    "node_id": self.node_id,
                    "lease_id": lease["lease_id"],
                    "job_id": lease["job_id"],
                    "shard": int(start),
                    "status": "failed",
                    "error": message,
                })
        return True

    def _post_complete(self, payload: Dict[str, Any]) -> None:
        try:
            answer = self.client.fleet_complete(payload)
        except Exception as error:  # reglint: disable=RL103
            # The coordinator reclaims the lease on its own; nothing
            # useful to do but log and move on.
            _LOG.warning(
                "fleet.node.complete_failed",
                node=self.node_id,
                shard=payload.get("shard"),
                error=f"{type(error).__name__}: {error}",
            )
            return
        if not answer.get("accepted", False):
            _LOG.info(
                "fleet.node.complete_rejected",
                node=self.node_id,
                shard=payload.get("shard"),
                reason=answer.get("reason"),
            )

    def _mine_lease(self, lease: Mapping[str, Any]) -> None:
        job_id = str(lease["job_id"])
        lease_id = str(lease["lease_id"])
        digest = str(lease["matrix_digest"])
        params = parameters_from_dict(dict(lease["parameters"]))
        shards = [int(start) for start in lease["shards"]]
        matrix = self._matrix(digest)
        kernel_key = kernel_cache_key(digest, params.gamma)
        if kernel_key not in self.cache.kernel_keys():
            # The coordinator's kernel beats building one here.
            raw = self.client.fetch_kernel(digest, params.gamma)
            if raw is not None:
                try:
                    self.cache.put_kernel_bytes(digest, params.gamma, raw)
                except OSError:
                    pass
        index, __, __ = self.cache.resolve(
            "index", digest, params.gamma, matrix
        )
        kernel, __, __ = self.cache.resolve(
            "kernel", digest, params.gamma, matrix, index=index
        )
        index.attach_kernel(kernel)
        trace = lease.get("trace")
        tracer: Tracer = NULL_TRACER
        trace_parent: Optional[SpanContext] = None
        trace_path: Optional[Path] = None
        shipped: Set[str] = set()
        if isinstance(trace, dict):
            # Spans are written to a scratch JSONL (the same sink both
            # the in-process and pool drivers know how to share), then
            # shipped back inside each complete payload.
            trace_path = (
                self.cache_dir / "traces" / f"lease-{lease_id}.jsonl"
            )
            tracer = Tracer(
                trace_path,
                trace_id=str(trace["trace_id"]),
                overwrite=True,
            )
            trace_parent = SpanContext(
                trace_id=str(trace["trace_id"]),
                span_id=str(trace["span_id"]),
            )

        def collect_new_spans() -> List[Dict[str, Any]]:
            if trace_path is None or not trace_path.exists():
                return []
            fresh = [
                span
                for span in load_spans(trace_path)
                if span.get("span_id") not in shipped
            ]
            shipped.update(str(span.get("span_id")) for span in fresh)
            return fresh

        def on_shard(shard: ShardResult) -> None:
            payload = shard_to_wire(shard)
            payload.update({
                "node_id": self.node_id,
                "lease_id": lease_id,
                "job_id": job_id,
                "shard": shard[0],
                "status": "ok",
                "spans": collect_new_spans(),
            })
            self._post_complete(payload)
            self.shards_mined += 1

        try:
            outcome = mine_sharded_outcome(
                matrix,
                params,
                n_workers=min(self.workers, max(1, len(shards))),
                index=index,
                shards=shards,
                retry=None,  # the coordinator owns the retry budget
                fault_plan=self.fault_plan,
                on_shard_complete=on_shard,
                tracer=tracer,
                trace_parent=trace_parent,
            )
        finally:
            tracer.close()
            if trace_path is not None:
                try:
                    trace_path.unlink()
                except OSError:
                    pass
        for start in outcome.missing_shards:
            self._post_complete({
                "node_id": self.node_id,
                "lease_id": lease_id,
                "job_id": job_id,
                "shard": start,
                "status": "failed",
                "error": outcome.shard_errors.get(start, "shard failed"),
                "spans": collect_new_spans(),
            })
        self.leases_mined += 1
        _LOG.info(
            "fleet.node.lease_mined",
            node=self.node_id,
            job_id=job_id,
            shards=shards,
            missing=outcome.missing_shards,
            affinity_hit=bool(lease.get("affinity_hit")),
        )

    def run(
        self,
        *,
        stop: Optional[threading.Event] = None,
        max_idle_polls: Optional[int] = None,
    ) -> None:
        """Heartbeat + lease loop until ``stop`` (or idle exhaustion).

        ``max_idle_polls`` bounds consecutive empty polls — handy for
        tests and one-shot tooling; ``None`` (the daemon default) polls
        forever.
        """
        self.start_heartbeat()
        idle = 0
        try:
            while stop is None or not stop.is_set():
                try:
                    worked = self.step()
                except Exception as error:  # reglint: disable=RL103
                    # Lease polls against a restarting coordinator fail
                    # transiently; keep polling.
                    _LOG.warning(
                        "fleet.node.poll_failed",
                        node=self.node_id,
                        error=f"{type(error).__name__}: {error}",
                    )
                    worked = False
                if worked:
                    idle = 0
                    continue
                idle += 1
                if max_idle_polls is not None and idle >= max_idle_polls:
                    return
                if stop is not None:
                    stop.wait(self.poll_interval)
                else:
                    time.sleep(self.poll_interval)
        finally:
            self.stop_heartbeat()
