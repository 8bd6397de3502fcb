"""The mining daemon: jobs + cache + sharded executor, wired together.

:class:`MiningService` is the long-lived object behind the HTTP front
end and the ``reg-cluster serve`` CLI.  It owns

* a :class:`~repro.service.jobs.JobStore` (persistent job records),
* an :class:`~repro.service.cache.ArtifactCache` (RWave indexes and
  completed results),
* a content-addressed matrix store (exact ``.npz`` round-trip, so the
  digest of a reloaded matrix is bit-identical to the submitted one),
* one background execution thread draining a FIFO of submitted jobs
  through :func:`~repro.service.executor.mine_sharded`.

Submission is idempotent: a job's id is a function of (matrix digest,
parameters), so resubmitting identical work returns the existing record
— and a completed job is answered straight from the result cache
without touching the index or the search.  Cancellation is cooperative:
``DELETE``-ing a running job flips a :class:`threading.Event` that the
miner's ``should_stop`` hook polls once per search node.

Crash safety and degradation (``docs/robustness.md``)
-----------------------------------------------------
Execution runs through :func:`~repro.service.executor
.mine_sharded_outcome`, which layers recovery over the sharded search:

* every completed shard is **checkpointed** into the
  :class:`~repro.service.jobs.JobStore` the moment it finishes, and a
  daemon restarted over the same store re-queues jobs found ``running``
  (killed mid-flight) — the resumed run merges checkpointed shards
  without re-mining them, bit-identical to an uninterrupted run;
* shard failures are **retried** under the service's
  :class:`~repro.service.resilience.RetryPolicy`; a shard that
  exhausts the budget does not sink the job — it finishes
  ``degraded``, carrying the merged clusters of the surviving shards
  and an explicit ``missing_shards`` list (resubmitting a degraded job
  resumes its surviving shards and re-mines only the missing ones);
* an optional **per-job wall-clock timeout** cooperatively cancels
  runaway searches (the job fails with a timeout error; its
  checkpoints survive, so a resubmission picks up where it stopped);
* artifact-cache writes are **best-effort**: a failed write (e.g. disk
  full) never fails a job — a result that could not be cached is served
  from an in-process fallback until the daemon exits.

Chaos testing drives all of the above deterministically through a
seeded :class:`~repro.service.resilience.FaultPlan`, activated per
service (the ``fault_plan`` argument) or via the ``REPRO_FAULTS``
environment variable.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.miner import MiningCancelled, MiningTimeout
from repro.core.params import MiningParameters
from repro.core.serialize import result_to_dict
from repro.incremental.delta import (
    MatrixDelta,
    MatrixRevision,
    apply_delta,
    delta_to_dict,
)
from repro.incremental.sweep import (
    SweepBatch,
    SweepPoint,
    SweepStore,
    compute_sweep_id,
    expand_grid,
)
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.io import read_matrix_npz, write_matrix_npz
from repro.matrix.summary import matrix_digest
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, render_family
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.service.cache import DEFAULT_MAX_BYTES, ArtifactCache
from repro.service.executor import ShardResult, mine_sharded_outcome
from repro.service.fleet import DEFAULT_LEASE_TTL, FleetState
from repro.service.jobs import (
    ACTIVE_STATES,
    RESULT_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobState,
    JobStore,
    compute_job_id,
    parameters_from_dict,
    parameters_to_dict,
)
from repro.service.resilience import FaultKind, FaultPlan, RetryPolicy
from repro.service.scheduling import FairJobQueue, normalize_priority

__all__ = ["MiningService", "MAX_LONGPOLL_SECONDS"]

#: Server-side cap on one long-poll wait (``GET /jobs/<id>?wait=``) —
#: a front-door worker parks for at most this long before answering
#: with the current record (clients simply poll again).
MAX_LONGPOLL_SECONDS = 30.0

_LOG = get_logger("repro.service.daemon")

#: Persist live progress counters each time the node count crosses a
#: multiple of this (keeps the on-disk record fresh without one fsync
#: per node).
_PROGRESS_PERSIST_EVERY = 2048


class MiningService:
    """Job-oriented mining daemon (see module docstring).

    Parameters
    ----------
    store_dir:
        Root directory for job records, the matrix store and the
        artifact cache.  Created if absent; a service restarted on the
        same directory sees all previous jobs and cached artifacts.
    n_workers:
        Worker processes per job (see
        :func:`~repro.service.executor.mine_sharded`).  Results are
        identical for every value.
    max_cache_bytes:
        Artifact-cache size bound.
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` (default)
        disables timeouts.  A timed-out job fails with a timeout error
        but keeps its shard checkpoints, so resubmitting resumes it.
    retry:
        Per-shard :class:`~repro.service.resilience.RetryPolicy`;
        defaults to the service default (two retries with exponential
        backoff + jitter).  ``RetryPolicy(max_retries=0)`` disables
        retries.
    fault_plan:
        Chaos-testing :class:`~repro.service.resilience.FaultPlan`;
        defaults to the plan named by ``REPRO_FAULTS`` (usually unset —
        no plan, zero overhead).  Shared with the artifact cache so
        injected cache-write failures are coordinated.
    progress_observer:
        Optional hook ``(job_id, event, nodes_expanded)`` invoked on
        every progress event of every job — used by tests and by
        verbose serving.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` to publish
        into; a private registry is created when omitted.  The HTTP
        layer renders it at ``GET /metrics``
        (``docs/observability.md``).
    trace_dir:
        When set, every executed job writes a stitched span trace to
        ``<trace_dir>/<job_id>.trace.jsonl`` (re-running a job
        replaces its file).  ``None`` (default) disables tracing at
        null-tracer cost.
    fleet:
        Enable the distributed work queue: jobs are driven through
        :class:`~repro.service.fleet.FleetState` and worker nodes
        (``reg-cluster node``) can lease shards over the
        ``/fleet/...`` endpoints (``docs/distributed.md``).  Off by
        default — a non-fleet daemon mines exactly as before.
    lease_ttl:
        Fleet shard-lease time-to-live in seconds; an un-heartbeated
        lease past its TTL is reclaimed and its shards re-queued.
    fleet_local:
        When fleet mode is on, also mine unleased shards on the
        coordinator itself (default).  Turning this off leaves all
        mining to the nodes — useful for tests and dedicated
        coordinators, but a node-less fleet then only finishes jobs
        via the per-job timeout.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        *,
        n_workers: int = 1,
        max_cache_bytes: int = DEFAULT_MAX_BYTES,
        start_method: Optional[str] = None,
        job_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        progress_observer: Optional[Callable[[str, str, int], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        fleet: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        fleet_local: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if job_timeout is not None and job_timeout <= 0.0:
            raise ValueError(
                f"job_timeout must be positive, got {job_timeout}"
            )
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.n_workers = n_workers
        self.start_method = start_method
        self.job_timeout = job_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self.progress_observer = progress_observer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self._started_monotonic = time.monotonic()
        self._register_metrics()
        self.jobs = JobStore(self.store_dir / "jobs")
        self.cache = ArtifactCache(
            self.store_dir / "cache",
            max_bytes=max_cache_bytes,
            fault_plan=self.fault_plan,
            fault_observer=self._observe_fault,
        )
        self.metrics.register_collector(self._collect_cache_metrics)
        #: the distributed work queue, or ``None`` on a non-fleet daemon
        #: (docs/distributed.md)
        self.fleet: Optional[FleetState] = None
        if fleet:
            self.fleet = FleetState(
                lease_ttl=lease_ttl,
                retry=self.retry,
                local_mining=fleet_local,
            )
            self.metrics.register_collector(self._collect_fleet_metrics)
        self._matrix_dir = self.store_dir / "matrices"
        self._matrix_dir.mkdir(parents=True, exist_ok=True)
        #: submitted parameter-sweep batches (grid -> ordinary job ids)
        self.sweeps = SweepStore(self.store_dir / "sweeps")
        #: weighted-fair submission queue: high/normal/low classes
        #: share the executor 4:2:1 under contention (docs/service.md)
        self._queue = FairJobQueue()
        #: notified on every job state change — the seam long-poll
        #: status requests (``GET /jobs/<id>?wait=``) block on
        self._state_cond = threading.Condition()
        self._cancel_events: Dict[str, threading.Event] = {}
        #: results whose cache write failed, served from memory instead
        #: of failing the job (best-effort cache, docs/robustness.md).
        self._result_fallback: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        # Crash recovery: re-enqueue jobs that were submitted (or
        # interrupted while queued) before a restart, in original
        # submission order — and re-arm jobs a killed daemon left
        # ``running``; their shard checkpoints make the re-run resume
        # instead of re-mining.
        for record in self.jobs.list_records():
            if record.state is JobState.SUBMITTED:
                self._queue.put(record.job_id, priority=record.priority)
            elif record.state is JobState.RUNNING:
                self.jobs.update(record.job_id, state=JobState.SUBMITTED)
                self._queue.put(record.job_id, priority=record.priority)
                _LOG.info("job.rearmed", job_id=record.job_id)
        for record in self.jobs.list_records():
            self._m_jobs_current.labels(state=record.state.value).inc()

    # ------------------------------------------------------------------
    # Observability (docs/observability.md)
    # ------------------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = self.metrics
        self._m_submitted = registry.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted by submit(), including idempotent re-arms.",
        )
        self._m_jobs_total = registry.counter(
            "repro_jobs_total",
            "Jobs that reached a terminal state, by state.",
            labelnames=("state",),
        )
        self._m_jobs_current = registry.gauge(
            "repro_jobs_current",
            "Jobs currently in each lifecycle state.",
            labelnames=("state",),
        )
        self._m_job_seconds = registry.histogram(
            "repro_job_seconds",
            "Wall-clock seconds from job start to terminal state.",
        )
        self._m_timeouts = registry.counter(
            "repro_job_timeouts_total",
            "Jobs failed by the per-job wall-clock budget.",
        )
        self._m_nodes = registry.counter(
            "repro_mining_nodes_expanded_total",
            "Search nodes expanded across all jobs.",
        )
        self._m_clusters = registry.counter(
            "repro_mining_clusters_emitted_total",
            "Reg-clusters emitted across all jobs.",
        )
        self._m_retries = registry.counter(
            "repro_shard_retries_total",
            "Shard attempts that failed and were retried.",
        )
        self._m_lost = registry.counter(
            "repro_shards_lost_total",
            "Shards that exhausted their retry budget (degradation).",
        )
        self._m_resumed = registry.counter(
            "repro_shards_resumed_total",
            "Shards answered from checkpoints instead of re-mining.",
        )
        self._m_faults = registry.counter(
            "repro_faults_injected_total",
            "Chaos faults that actually fired, by kind.",
            labelnames=("kind",),
        )
        self._m_inc_revisions = registry.counter(
            "repro_incremental_revisions_total",
            "Matrix revisions accepted, by delta kind.",
            labelnames=("delta",),
        )
        self._m_inc_index_builds = registry.counter(
            "repro_incremental_index_builds_total",
            "RWave^gamma index acquisitions by mode: artifact-cache hit "
            "(cached) or built from scratch (cold).",
            labelnames=("mode",),
        )
        self._m_inc_sweeps = registry.counter(
            "repro_incremental_sweeps_total",
            "Parameter-sweep batches accepted.",
        )
        self._m_inc_sweep_points = registry.counter(
            "repro_incremental_sweep_points_total",
            "Grid points submitted across all sweep batches.",
        )

    def _collect_cache_metrics(self) -> str:
        stats = self.cache.stats
        samples = []
        for artifact in ("index", "result"):
            for event in ("hit", "miss", "store"):
                samples.append((
                    {"artifact": artifact, "event": event},
                    float(getattr(stats, f"{artifact}_{event}s"
                                  if event != "miss"
                                  else f"{artifact}_misses")),
                ))
        text = render_family(
            "repro_cache_events_total", "counter",
            "Artifact-cache lookups and stores, by artifact and event.",
            samples,
        )
        text += render_family(
            "repro_cache_evictions_total", "counter",
            "Artifact-cache LRU evictions.",
            [({}, float(stats.evictions))],
        )
        text += render_family(
            "repro_cache_bytes", "gauge",
            "Bytes currently held by the artifact cache.",
            [({}, float(self.cache.total_bytes()))],
        )
        return text

    def _collect_fleet_metrics(self) -> str:
        """The ``repro_fleet_*`` families (docs/distributed.md)."""
        assert self.fleet is not None
        snap = self.fleet.metrics_snapshot()
        text = render_family(
            "repro_fleet_queue_depth", "gauge",
            "Shards waiting to be leased, across all active jobs.",
            [({}, float(snap["queue_depth"]))],
        )
        text += render_family(
            "repro_fleet_nodes_active", "gauge",
            "Worker nodes heard from within the last lease TTL.",
            [({}, float(snap["nodes_active"]))],
        )
        text += render_family(
            "repro_fleet_leases_granted_total", "counter",
            "Shard leases granted to worker nodes.",
            [({}, float(snap["leases_granted"]))],
        )
        text += render_family(
            "repro_fleet_leases_expired_total", "counter",
            "Leases that outlived their TTL without a heartbeat.",
            [({}, float(snap["leases_expired"]))],
        )
        text += render_family(
            "repro_fleet_leases_reclaimed_total", "counter",
            "Shards reclaimed from expired leases and re-queued.",
            [({}, float(snap["shards_reclaimed"]))],
        )
        text += render_family(
            "repro_fleet_affinity_total", "counter",
            "Lease grants by index-affinity outcome.",
            [
                ({"outcome": "hit"}, float(snap["affinity_hits"])),
                ({"outcome": "miss"}, float(snap["affinity_misses"])),
            ],
        )
        text += render_family(
            "repro_fleet_shards_completed_total", "counter",
            "Shards completed through the fleet queue, by source.",
            [
                ({"source": source}, float(count))
                for source, count in sorted(
                    snap["shards_completed"].items()
                )
            ],
        )
        text += render_family(
            "repro_fleet_completions_rejected_total", "counter",
            "Late or duplicate completions rejected idempotently.",
            [
                ({"reason": reason}, float(count))
                for reason, count in sorted(
                    snap["completions_rejected"].items()
                )
            ],
        )
        text += render_family(
            "repro_fleet_heartbeats_total", "counter",
            "Node heartbeats received.",
            [({}, float(snap["heartbeats"]))],
        )
        return text

    def _observe_fault(self, kind: FaultKind) -> None:
        self._m_faults.labels(kind=kind.value).inc()
        _LOG.warning("fault.injected", kind=kind.value)

    def _transition(
        self, job_id: str, state: JobState, **changes: Any
    ) -> JobRecord:
        """State-changing :meth:`JobStore.update` with gauge/counter/log
        maintenance — the single seam every lifecycle change goes
        through."""
        previous = self.jobs.get(job_id).state
        record = self.jobs.update(job_id, state=state, **changes)
        if previous is not state:
            self._m_jobs_current.labels(state=previous.value).dec()
            self._m_jobs_current.labels(state=state.value).inc()
        if state in TERMINAL_STATES:
            self._m_jobs_total.labels(state=state.value).inc()
            if record.started_at is not None and record.finished_at is not None:
                self._m_job_seconds.observe(
                    max(0.0, record.finished_at - record.started_at)
                )
        _LOG.info(
            "job.state",
            job_id=job_id,
            state=state.value,
            previous=previous.value,
            **({"error": record.error} if record.error else {}),
        )
        # Wake every parked long-poll: the record just changed.
        with self._state_cond:
            self._state_cond.notify_all()
        return record

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` liveness payload."""
        with self._lock:
            thread = self._thread
            executor_alive = thread is not None and thread.is_alive()
        jobs = {
            state.value: int(
                self._m_jobs_current.labels(state=state.value).value
            )
            for state in JobState
        }
        payload = {
            "status": "ok",
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "n_workers": self.n_workers,
            "executor_alive": executor_alive,
            "queue_size": self._queue.qsize(),
            "queue_depths": self._queue.depths(),
            "jobs": jobs,
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet.snapshot()
        return payload

    # ------------------------------------------------------------------
    # Matrix store (content-addressed, exact round-trip)
    # ------------------------------------------------------------------

    def _matrix_path(self, digest: str) -> Path:
        return self._matrix_dir / f"{digest}.npz"

    def _save_matrix(self, matrix: ExpressionMatrix, digest: str) -> None:
        path = self._matrix_path(digest)
        if path.exists():
            return
        # Runs outside the service lock (see submit), so identical
        # submissions can race here.  The tmp name must be per-writer:
        # with a shared name, the loser's replace() finds its tmp file
        # already renamed away.  Racing writers produce byte-identical
        # content (the path is content-addressed), so whichever
        # replace() lands last is equally correct.
        tmp = path.with_suffix(f".npz.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                write_matrix_npz(matrix, handle)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)

    def _load_matrix(self, digest: str) -> ExpressionMatrix:
        path = self._matrix_path(digest)
        if not path.exists():
            raise KeyError(f"no stored matrix with digest {digest}")
        return read_matrix_npz(path)

    # ------------------------------------------------------------------
    # Fleet artifact exchange (content-addressed; docs/distributed.md)
    # ------------------------------------------------------------------

    def matrix_artifact_bytes(self, digest: str) -> Optional[bytes]:
        """The stored ``.npz`` bytes for a matrix digest, or ``None``.

        Served verbatim over ``GET /artifacts/matrix/<digest>`` — the
        node re-hashes the reloaded matrix, so a corrupted transfer is
        rejected there, not silently mined.
        """
        path = self._matrix_path(digest)
        try:
            return path.read_bytes()
        except OSError:
            return None

    # ------------------------------------------------------------------
    # Public API: submit / status / result / cancel / delete
    # ------------------------------------------------------------------

    def submit(
        self,
        matrix: ExpressionMatrix,
        params: MiningParameters,
        *,
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> JobRecord:
        """Accept one mining job; idempotent on (matrix, parameters).

        Returns the (new or existing) job record.  A job that
        previously failed or was cancelled is re-armed and queued again.
        ``priority`` picks the scheduling class (``high`` / ``normal``
        / ``low``; weighted-fair dequeue, docs/service.md) and
        ``tenant`` tags the record with the submitting tenant — neither
        is part of the job identity.
        """
        chosen_priority = normalize_priority(priority)
        digest = matrix_digest(matrix)
        job_id = compute_job_id(digest, params)
        # Persist the matrix before taking the service lock: the .npz
        # write is the slowest part of a submission, and holding the
        # lock across it stalls every handler thread (status, health)
        # behind disk I/O (reglint RL303).  The store is
        # content-addressed and atomic, so writing outside the critical
        # section is idempotent even when submissions race.
        self._save_matrix(matrix, digest)
        with self._lock:
            previous: Optional[JobState] = None
            if self.jobs.exists(job_id):
                record = self.jobs.get(job_id)
                if record.state in ACTIVE_STATES or (
                    record.state is JobState.DONE
                ):
                    return record
                previous = record.state
            # New submission (or re-arm after failed/cancelled).
            record = JobRecord(
                job_id=job_id,
                state=JobState.SUBMITTED,
                matrix_digest=digest,
                parameters=parameters_to_dict(params),
                submitted_at=time.time(),
                priority=chosen_priority,
                tenant=tenant,
            )
            self.jobs.save(record)
            self._queue.put(job_id, priority=chosen_priority)
            self._m_submitted.inc()
            if previous is not None:
                self._m_jobs_current.labels(state=previous.value).dec()
            self._m_jobs_current.labels(state=JobState.SUBMITTED.value).inc()
            _LOG.info(
                "job.submitted",
                job_id=job_id,
                matrix_digest=digest,
                rearmed=previous.value if previous is not None else None,
            )
        # A (re-)submission is a state change too: wake long-polls.
        with self._state_cond:
            self._state_cond.notify_all()
        return record

    def submit_revision(
        self,
        parent_digest: str,
        delta: MatrixDelta,
        params: MiningParameters,
        *,
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> "tuple[MatrixRevision, JobRecord]":
        """Evolve a stored matrix by one delta and mine the child.

        The child matrix is derived by applying ``delta`` to the stored
        parent and submitted as an ordinary job: nothing downstream
        knows it is a revision (docs/incremental.md).  The returned
        :class:`MatrixRevision` is the response's lineage edge; it is
        not stored.

        Raises :class:`KeyError` when ``parent_digest`` is not stored
        and :class:`ValueError` when the delta does not fit the parent.
        """
        parent_matrix = self._load_matrix(parent_digest)
        child_matrix = apply_delta(parent_matrix, delta)
        child_digest = matrix_digest(child_matrix)
        revision = MatrixRevision(
            parent_digest=parent_digest,
            child_digest=child_digest,
            delta=delta_to_dict(delta),
            created_at=time.time(),
        )
        self._m_inc_revisions.labels(delta=delta.kind).inc()
        _LOG.info(
            "revision.accepted",
            parent_digest=parent_digest,
            child_digest=child_digest,
            delta=delta.kind,
        )
        record = self.submit(
            child_matrix, params, priority=priority, tenant=tenant
        )
        return revision, record

    def submit_sweep(
        self,
        matrix: ExpressionMatrix,
        base_params: MiningParameters,
        gammas: List[float],
        epsilons: List[float],
        *,
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> SweepBatch:
        """Submit a gamma/epsilon grid over one matrix as a batch.

        Every grid point becomes an ordinary job (idempotent ids, fair
        queueing, caching — nothing sweep-specific downstream).  Points
        are enqueued gamma-major, so each distinct ``(matrix, gamma)``
        index is built exactly once and every later point of that
        gamma is served from the artifact cache — asserted via the
        ``repro_incremental_index_builds_total`` metric family.
        """
        grid = expand_grid(gammas, epsilons)
        # Every point's parameters are validated before the first
        # submit, so a grid with one bad point queues nothing.
        grid_params = [
            base_params.with_overrides(gamma=gamma, epsilon=epsilon)
            for gamma, epsilon in grid
        ]
        digest = matrix_digest(matrix)
        base = parameters_to_dict(base_params)
        sweep_id = compute_sweep_id(digest, base, gammas, epsilons)
        points = []
        for (gamma, epsilon), point_params in zip(grid, grid_params):
            record = self.submit(
                matrix, point_params, priority=priority, tenant=tenant
            )
            # Tag the job with its (latest) batch — outside the job
            # identity, like priority/tenant.
            self.jobs.update(record.job_id, sweep_id=sweep_id)
            points.append(
                SweepPoint(
                    gamma=gamma, epsilon=epsilon, job_id=record.job_id
                )
            )
        batch = SweepBatch(
            sweep_id=sweep_id,
            matrix_digest=digest,
            base_parameters=base,
            points=tuple(points),
            created_at=time.time(),
        )
        self.sweeps.save(batch)
        self._m_inc_sweeps.inc()
        self._m_inc_sweep_points.inc(len(points))
        _LOG.info(
            "sweep.accepted",
            sweep_id=sweep_id,
            matrix_digest=digest,
            points=len(points),
        )
        return batch

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        """The status envelope of one sweep batch.

        Raises :class:`KeyError` for unknown sweep ids.
        """
        batch = self.sweeps.get(sweep_id)
        if batch is None:
            raise KeyError(f"unknown sweep {sweep_id!r}")
        points = []
        counts: Dict[str, int] = {}
        finished = True
        for point in batch.points:  # reglint: disable=RL106
            try:
                state = self.jobs.get(point.job_id).state
            except KeyError:
                # The job record was deleted out from under the batch.
                state = None
            label = state.value if state is not None else "unknown"
            counts[label] = counts.get(label, 0) + 1
            if state is None or state not in TERMINAL_STATES:
                finished = False
            entry = point.to_dict()
            entry["state"] = label
            points.append(entry)
        return {
            "sweep_id": batch.sweep_id,
            "matrix_digest": batch.matrix_digest,
            "base_parameters": dict(batch.base_parameters),
            "created_at": batch.created_at,
            "points": points,
            "counts": counts,
            "finished": finished,
        }

    def sweep_results(self, sweep_id: str) -> Dict[str, Any]:
        """Per-point results of one sweep batch.

        Points whose jobs have not (yet) produced a result carry
        ``"result": None`` next to their current state, so a partial
        sweep is streamable without special cases.  Raises
        :class:`KeyError` for unknown sweep ids.
        """
        envelope = self.sweep_status(sweep_id)
        for entry in envelope["points"]:  # reglint: disable=RL106
            payload: Optional[Dict[str, Any]] = None
            if entry["state"] in (
                JobState.DONE.value, JobState.DEGRADED.value
            ):
                try:
                    payload = self.result(entry["job_id"])
                except (KeyError, ValueError):
                    payload = None
            entry["result"] = payload
        return envelope

    def status(self, job_id: str) -> JobRecord:
        """The current record of one job (KeyError if unknown)."""
        return self.jobs.get(job_id)

    def list_jobs(self) -> List[JobRecord]:
        """All job records, oldest first."""
        return self.jobs.list_records()

    def result(self, job_id: str) -> Dict[str, Any]:
        """The ``reg-cluster/v1`` payload of a completed job.

        Served for ``done`` jobs and — with the surviving shards'
        merged clusters — for ``degraded`` ones (the record's
        ``missing_shards`` says what is absent).  Raises
        :class:`KeyError` for unknown jobs and :class:`ValueError` for
        jobs that are not finished with a result.
        """
        record = self.jobs.get(job_id)
        if record.state not in RESULT_STATES:
            raise ValueError(
                f"job {job_id} is {record.state.value}, not done"
            )
        payload = self.cache.get_result(job_id)
        if payload is None:
            # Degraded results and results whose cache write failed
            # live in the in-process fallback (docs/robustness.md);
            # it is mutated on the executor thread, so read under the
            # same lock that guards those writes.
            with self._lock:
                payload = self._result_fallback.get(job_id)
        if payload is None:
            raise ValueError(
                f"result of job {job_id} is no longer cached; resubmit"
            )
        return payload

    def result_page(
        self, job_id: str, *, offset: int = 0, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        """One page of a completed result's clusters.

        Pagination keeps huge clusterings streamable: the payload is
        the ordinary ``reg-cluster/v1`` document with ``clusters``
        sliced to ``[offset, offset + limit)`` plus a ``page`` member
        (``offset`` / ``limit`` / ``total_clusters`` / ``next_offset``,
        the latter ``None`` on the last page).  ``limit=None`` returns
        everything from ``offset`` on.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        payload = dict(self.result(job_id))
        clusters = payload.get("clusters", [])
        total = len(clusters)
        end = total if limit is None else min(total, offset + limit)
        payload["clusters"] = clusters[offset:end]
        payload["page"] = {
            "offset": offset,
            "limit": limit,
            "total_clusters": total,
            "next_offset": end if end < total else None,
        }
        return payload

    def wait_for_change(
        self,
        job_id: str,
        *,
        seen_state: Optional[JobState] = None,
        timeout: float = 0.0,
    ) -> JobRecord:
        """Long-poll one job: block until its state leaves ``seen_state``.

        Returns the current record as soon as the state differs from
        ``seen_state`` (default: the state at call time), immediately
        for terminal states (they never change again), and after
        ``timeout`` seconds — capped at :data:`MAX_LONGPOLL_SECONDS` —
        otherwise.  A daemon shutting down mid-wait wakes every waiter
        and answers with the record as-is, so parked clients get a
        clean response instead of a dropped socket
        (``docs/service.md``).
        """
        record = self.jobs.get(job_id)
        baseline = record.state if seen_state is None else seen_state
        budget = max(0.0, min(float(timeout), MAX_LONGPOLL_SECONDS))
        deadline = time.monotonic() + budget
        with self._state_cond:
            while (
                record.state is baseline
                and record.state not in TERMINAL_STATES
                and not self._stop_requested.is_set()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._state_cond.wait(remaining)
                # Store read under the condition so a notify between
                # check and wait cannot be lost; the record file read
                # is the price of one wake-up, not per-request work.
                record = self.jobs.get(job_id)  # reglint: disable=RL303
        return record

    def interrupt_waits(self) -> None:
        """Wake every parked :meth:`wait_for_change` (front-door
        shutdown path); waiters answer with the current record."""
        with self._state_cond:
            self._state_cond.notify_all()

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a submitted or running job (no-op on terminal jobs)."""
        with self._lock:
            record = self.jobs.get(job_id)
            if record.state is JobState.SUBMITTED:
                return self._transition(
                    job_id,
                    JobState.CANCELLED,
                    finished_at=time.time(),
                )
            if record.state is JobState.RUNNING:
                event = self._cancel_events.get(job_id)
                if event is not None:
                    event.set()
            return record

    def delete(self, job_id: str) -> None:
        """Remove a terminal job's record and cached result.

        Raises :class:`ValueError` when the job is still active (cancel
        it first) and :class:`KeyError` when unknown.
        """
        with self._lock:
            record = self.jobs.get(job_id)
            if record.state in ACTIVE_STATES:
                raise ValueError(
                    f"job {job_id} is {record.state.value}; cancel before "
                    f"deleting"
                )
            self.cache.drop_result(job_id)
            self.jobs.clear_shards(job_id)
            self._result_fallback.pop(job_id, None)
            self.jobs.delete(job_id)
            self._m_jobs_current.labels(state=record.state.value).dec()
            _LOG.info("job.deleted", job_id=job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background execution thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_requested.clear()
            self._thread = threading.Thread(
                target=self._run_loop,
                name="reg-cluster-executor",
                daemon=True,
            )
            self._thread.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the execution thread; a running job is cancelled."""
        with self._lock:
            thread = self._thread
            self._stop_requested.set()
            for event in self._cancel_events.values():
                event.set()
            self._queue.put(None)
        # Long-polls must not outlive the daemon: wake them all so the
        # front door answers with the current record instead of holding
        # parked connections open (docs/service.md).
        self.interrupt_waits()
        if thread is not None:
            thread.join(timeout=timeout)
        with self._lock:
            self._thread = None

    def run_pending(self) -> int:
        """Synchronously drain the queue (no thread); returns jobs run.

        Used by tests and one-shot tooling; do not mix with a running
        background thread.
        """
        executed = 0
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                return executed
            if job_id is None:
                continue
            if self._execute(job_id):
                executed += 1

    def _run_loop(self) -> None:
        while not self._stop_requested.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if job_id is None:
                continue
            self._execute(job_id)

    def _execute(self, job_id: str) -> bool:
        """Run one queued job; ``False`` when it was skipped (e.g. a job
        cancelled while still queued)."""
        record = self.jobs.get(job_id)
        if record.state is not JobState.SUBMITTED:
            return False  # cancelled (or re-run) while queued
        cancel_event = threading.Event()
        with self._lock:
            self._cancel_events[job_id] = cancel_event
            if self._stop_requested.is_set():
                cancel_event.set()
        self._transition(job_id, JobState.RUNNING, started_at=time.time())
        try:
            self._mine_job(job_id, record, cancel_event)
        except MiningTimeout as error:
            # A deadline, not a caller: the job *failed*, but its shard
            # checkpoints survive, so resubmitting resumes the search.
            self._m_timeouts.inc()
            self._transition(
                job_id,
                JobState.FAILED,
                error=f"{type(error).__name__}: {error}",
                finished_at=time.time(),
            )
        except MiningCancelled:
            self._transition(
                job_id,
                JobState.CANCELLED,
                finished_at=time.time(),
            )
        except (ValueError, KeyError, OSError, RuntimeError) as error:
            self._transition(
                job_id,
                JobState.FAILED,
                error=f"{type(error).__name__}: {error}",
                finished_at=time.time(),
            )
        finally:
            with self._lock:
                self._cancel_events.pop(job_id, None)
        return True

    def _job_tracer(self, job_id: str) -> Tracer:
        if self.trace_dir is None:
            return NULL_TRACER
        return Tracer(
            self.trace_dir / f"{job_id}.trace.jsonl", overwrite=True
        )

    def _mine_job(
        self,
        job_id: str,
        record: JobRecord,
        cancel_event: threading.Event,
    ) -> None:
        tracer = self._job_tracer(job_id)
        root = tracer.span(
            "job",
            attributes={
                "job_id": job_id,
                "matrix_digest": record.matrix_digest,
                "n_workers": self.n_workers,
            },
        )
        try:
            self._mine_job_traced(
                job_id, record, cancel_event, tracer, root
            )
        except BaseException as error:
            root.set_attributes(
                {
                    "outcome": "failed",
                    "error": f"{type(error).__name__}: {error}",
                }
            )
            raise
        finally:
            root.end()
            tracer.close()

    def _mine_job_traced(
        self,
        job_id: str,
        record: JobRecord,
        cancel_event: threading.Event,
        tracer: Tracer,
        root: Span,
    ) -> None:
        # 1. Completed-result memoization: identical resubmission after a
        #    failed/cancelled re-arm, or a deleted record with a live
        #    cached result, finishes without touching matrix or index.
        cached = self.cache.get_result(job_id)
        if cached is not None:
            statistics = cached.get("statistics", {})
            root.set_attribute("outcome", "cached")
            self._transition(
                job_id,
                JobState.DONE,
                finished_at=time.time(),
                result_cache_hit=True,
                progress={
                    "nodes_expanded": int(
                        statistics.get("nodes_expanded", 0)
                    ),
                    "clusters_emitted": len(cached.get("clusters", [])),
                },
            )
            return

        with tracer.span("matrix.load", parent=root):
            matrix = self._load_matrix(record.matrix_digest)
        params = parameters_from_dict(record.parameters)

        # 2. The RWave^gamma index, keyed by (digest, gamma): a cache
        #    hit or a cold build, which is stored so the next job on
        #    this matrix and gamma starts warm.  It is the one artifact
        #    every shard driver mines from.
        digest = record.matrix_digest
        with tracer.span("index", parent=root) as span:
            index, index_build = self.cache.resolve(
                digest, params.gamma, matrix
            )
            span.set_attributes(
                {"cache_hit": index_build == "cached", "build": index_build}
            )
        self._m_inc_index_builds.labels(mode=index_build).inc()
        self.jobs.update(
            job_id,
            index_cache_hit=index_build == "cached",
            result_cache_hit=False,
            index_build=index_build,
        )

        # 3. The sharded search, with live progress, cancellation,
        #    checkpoint resume and retry/degradation.  Checkpoints from a
        #    previous interrupted or degraded run are merged without
        #    re-mining; every newly completed shard is checkpointed the
        #    moment it finishes.
        completed = self.jobs.load_shards(job_id)

        progress = {"nodes_expanded": 0, "clusters_emitted": 0}
        # Checkpointed nodes were already counted by the run that mined
        # them (when it shared this process), so the counter tracks the
        # delta past the resumed offset only.
        nodes_counted = {
            "value": sum(
                int(shard[2].get("nodes_expanded", 0))
                for shard in completed.values()
            )
        }

        def on_progress(event: str, nodes_expanded: int) -> None:
            crossed = (
                nodes_expanded // _PROGRESS_PERSIST_EVERY
                > progress["nodes_expanded"] // _PROGRESS_PERSIST_EVERY
            )
            progress["nodes_expanded"] = nodes_expanded
            if event == "emitted":
                progress["clusters_emitted"] += 1
            delta = nodes_expanded - nodes_counted["value"]
            if delta > 0:
                self._m_nodes.inc(delta)
                nodes_counted["value"] = nodes_expanded
            if self.progress_observer is not None:
                self.progress_observer(job_id, event, nodes_expanded)
            # The in-process search reports every node; pool and fleet
            # shards report once each, jumping past the multiples.
            if crossed:
                self.jobs.update(job_id, progress=dict(progress))

        def on_shard_complete(shard: ShardResult) -> None:
            try:
                self.jobs.save_shard(job_id, shard)
            except OSError:
                pass  # checkpointing is an optimization, never fatal

        # One shard ledger (repro.service.executor) books every path:
        # a fleet job's shards are leased to nodes or mined right here
        # (docs/distributed.md), a plain job's run in-process or on a
        # worker pool.  Either way the outcome — clusters, provenance,
        # spans — is the same.
        mine_span = tracer.span("mine", parent=root)
        options: Dict[str, Any] = dict(
            index=index,
            fault_plan=self.fault_plan,
            timeout=self.job_timeout,
            completed=completed,
            on_shard_complete=on_shard_complete,
            progress_callback=on_progress,
            should_stop=cancel_event.is_set,
            tracer=tracer,
            trace_parent=mine_span.context,
        )
        try:
            if self.fleet is not None:
                outcome = self.fleet.run_job(
                    job_id, matrix, params, matrix_digest=digest, **options
                )
            else:
                outcome = mine_sharded_outcome(
                    matrix,
                    params,
                    n_workers=self.n_workers,
                    start_method=self.start_method,
                    retry=self.retry,
                    **options,
                )
        except MiningCancelled as error:
            # Keep the last observed counters on the record; shard
            # checkpoints survive, so a resubmission resumes the search.
            mine_span.set_attributes(
                {"outcome": "failed", "error": type(error).__name__}
            )
            mine_span.end()
            self.jobs.update(job_id, progress=dict(progress))
            raise
        self._m_retries.inc(
            max(
                0,
                sum(outcome.failed_attempts.values())
                - len(outcome.missing_shards),
            )
        )
        self._m_lost.inc(len(outcome.missing_shards))
        self._m_resumed.inc(len(outcome.resumed_shards))
        for kind, count in outcome.fault_injections.items():
            self._m_faults.labels(kind=kind).inc(count)
        mine_span.set_attributes(
            {
                "outcome": "degraded" if outcome.degraded else "ok",
                "nodes_expanded": outcome.result.statistics.nodes_expanded,
                "clusters_emitted": (
                    outcome.result.statistics.clusters_emitted
                ),
                "missing_shards": list(outcome.missing_shards),
                "resumed_shards": outcome.resumed_shards,
            }
        )
        mine_span.set_attributes(
            outcome.result.statistics.timers.prefixed()
        )
        mine_span.end()

        # 4. Persist the result (serialize v1, names included) and close.
        #    Cache writes are best-effort: a full or flaky disk must not
        #    fail a job that mined successfully.
        result = outcome.result
        payload = result_to_dict(result, matrix)
        progress["nodes_expanded"] = result.statistics.nodes_expanded
        progress["clusters_emitted"] = result.statistics.clusters_emitted
        self._m_clusters.inc(result.statistics.clusters_emitted)
        finished: Dict[str, Any] = dict(
            progress=dict(progress),
            phase_timers=result.statistics.timers.as_dict(),
            resumed_shards=outcome.resumed_shards or None,
            shard_failures={
                str(s): n for s, n in sorted(outcome.failed_attempts.items())
            } or None,
            shard_provenance={
                str(s): info for s, info in outcome.provenance.items()
            },
        )
        root.set_attributes(result.statistics.timers.prefixed())
        if outcome.degraded:
            # A degraded payload never enters the result cache: an
            # idempotent resubmission must re-mine the missing shards,
            # not be answered from a partial payload.  The surviving
            # shards' checkpoints are kept for exactly that resume.
            # The fallback dict is shared with handler threads
            # (result()) and delete(); every mutation holds the lock.
            with self._lock:
                self._result_fallback[job_id] = payload
            root.set_attribute("outcome", "degraded")
            _LOG.warning(
                "job.degraded",
                job_id=job_id,
                missing_shards=outcome.missing_shards,
                shard_errors={
                    str(s): outcome.shard_errors[s]
                    for s in outcome.missing_shards
                },
            )
            self._transition(
                job_id,
                JobState.DEGRADED,
                finished_at=time.time(),
                missing_shards=outcome.missing_shards,
                error="; ".join(
                    f"shard {s}: {outcome.shard_errors[s]}"
                    for s in outcome.missing_shards
                ),
                **finished,
            )
            return
        with tracer.span("result.persist", parent=root):
            try:
                self.cache.put_result(job_id, payload)
                with self._lock:
                    self._result_fallback.pop(job_id, None)
            except OSError:
                with self._lock:
                    self._result_fallback[job_id] = payload
            self.jobs.clear_shards(job_id)
        root.set_attribute("outcome", "done")
        self._transition(
            job_id,
            JobState.DONE,
            finished_at=time.time(),
            missing_shards=None,
            **finished,
        )
