"""Sharded mining: partition the Fig. 5 search across worker processes.

The top level of the miner's depth-first enumeration iterates over the
first condition of the representative chain.  Chains starting from
different conditions are disjoint — every deeper node carries its start
as the chain prefix — so the search decomposes exactly into one
independent shard per first condition.  Each shard is mined by
:meth:`repro.core.miner.RegClusterMiner.mine` with ``start_conditions``
restricted to that shard, in its own worker process, and the shard
outputs are merged back deterministically:

1. concatenate shard cluster lists in ascending start order (the same
   order the single-process loop visits starts), preserving each
   shard's internal depth-first emission order;
2. re-run the maximality/redundancy post-processing — the emitted-key
   deduplication of pruning (3b) — over the merged list, now with the
   *global* set of emitted keys (a safety net: keys contain the chain,
   whose first element identifies the shard, so cross-shard duplicates
   cannot occur by construction);
3. apply the ``max_clusters`` cap to the merged list, matching the
   single-process early exit.

Steps 1–3 make the merged output *bit-identical* to single-process
mining for any worker count — the shard-merge equivalence guarantee the
test suite asserts.  Search statistics are summed across shards
(``max_depth`` takes the maximum); they equal the single-process
counters exactly when ``max_clusters`` is unset (with a cap, the
single-process search stops mid-enumeration while shards run to
completion, so merged counters are an upper bound).

Fault tolerance
---------------
Shard independence also makes the search *recoverable* — the merge does
not care how many times a shard was attempted, on which process it
finally succeeded, or whether it was answered from a checkpoint of an
earlier daemon run.  :func:`mine_sharded_outcome` layers the recovery
machinery on top of the plain sharded driver (``docs/robustness.md``):

* **per-shard retry** — a shard whose worker raises (or whose process
  dies, breaking the pool) is resubmitted up to
  :attr:`~repro.service.resilience.RetryPolicy.max_retries` times with
  exponential backoff and deterministic jitter; the pool is rebuilt
  after a hard worker death;
* **wall-clock timeout** — a deadline cooperatively cancels the search
  (:class:`~repro.core.miner.MiningTimeout`), at node granularity
  in-process and shard granularity under a pool;
* **checkpoint resume** — already-completed shard results passed via
  ``completed`` are merged without re-mining, and ``on_shard_complete``
  fires after every fresh shard so callers (the service's
  :class:`~repro.service.jobs.JobStore`) can persist incremental
  progress;
* **graceful degradation** — shards whose retry budget is exhausted are
  reported in :attr:`ShardedOutcome.missing_shards` instead of sinking
  the whole job; the surviving shards still merge deterministically.

Fault *injection* (the chaos harness exercising all of the above) is
driven by a seeded :class:`~repro.service.resilience.FaultPlan`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.contracts import contracts_enabled, set_enabled
from repro.core.cluster import RegCluster
from repro.core.miner import (
    MiningCancelled,
    MiningResult,
    MiningTimeout,
    PhaseTimers,
    ProgressCallback,
    PruningConfig,
    RegClusterMiner,
    SearchStatistics,
)
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.matrix.expression import ExpressionMatrix
from repro.obs.log import get_logger
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    SpanContext,
    Tracer,
    TraceWorkerConfig,
)
from repro.service.resilience import FaultInjected, FaultKind, FaultPlan, RetryPolicy

_LOG = get_logger("repro.service.executor")

__all__ = [
    "mine_sharded",
    "mine_sharded_outcome",
    "merge_shard_results",
    "ShardResult",
    "ShardedOutcome",
    "ShardFailure",
    "shard_from_wire",
    "shard_to_wire",
]

#: One shard's output: (start condition, clusters in DFS order, stats).
#: The stats mapping carries the integer counters of
#: :meth:`SearchStatistics.as_dict` plus the ``time_``-prefixed phase
#: timer floats of :meth:`PhaseTimers.prefixed`.
ShardResult = Tuple[int, List[RegCluster], Dict[str, float]]


def shard_to_wire(shard: ShardResult) -> Dict[str, Any]:
    """JSON form of one shard result: a fleet node's ``complete``
    payload and a job's shard checkpoint (``JobStore.save_shard``)."""
    start, clusters, stats = shard
    return {
        "start": int(start),
        "clusters": [
            {
                "chain": list(cluster.chain),
                "p_members": list(cluster.p_members),
                "n_members": list(cluster.n_members),
            }
            for cluster in clusters
        ],
        "stats": {str(key): float(value) for key, value in stats.items()},
    }


def shard_from_wire(payload: Mapping[str, Any]) -> ShardResult:
    """Inverse of :func:`shard_to_wire`; raises ``ValueError`` on junk.

    Cluster members travel as integer gene/condition ids, so the
    reconstructed :class:`~repro.core.cluster.RegCluster` objects are
    *equal* to the ones mined — the bit-identical merge does not care
    which process or checkpoint produced a shard.
    """
    try:
        start = int(payload["start"])
        clusters = [
            RegCluster(
                chain=tuple(int(c) for c in entry["chain"]),
                p_members=tuple(int(g) for g in entry["p_members"]),
                n_members=tuple(int(g) for g in entry["n_members"]),
            )
            for entry in payload["clusters"]
        ]
        stats = {
            str(key): float(value)
            for key, value in payload["stats"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed shard payload: {error}") from None
    return start, clusters, stats


class ShardFailure(RuntimeError):
    """Raised by strict :func:`mine_sharded` when shards are lost.

    Carries which shards exhausted their retry budget and the last
    error each one saw, so a caller that *can* live with partial output
    knows to switch to :func:`mine_sharded_outcome`.
    """

    def __init__(
        self, message: str, missing_shards: List[int],
        shard_errors: Dict[int, str],
    ) -> None:
        super().__init__(message)
        self.missing_shards = missing_shards
        self.shard_errors = shard_errors


@dataclass
class ShardedOutcome:
    """What a resilient sharded run actually delivered.

    Attributes
    ----------
    result:
        The merged mining result over every shard that completed.  With
        no missing shards this is bit-identical to single-process
        mining; with missing shards it is the deterministic merge of
        the survivors (each surviving shard's clusters are exactly its
        fault-free clusters).
    missing_shards:
        Start conditions whose shards exhausted the retry budget,
        ascending.  Empty on a fully successful run.
    shard_errors:
        The last error message seen per missing shard.
    failed_attempts:
        How many attempts failed per shard (only shards that failed at
        least once appear; a retried-then-successful shard is counted
        here too).
    resumed_shards:
        Start conditions answered from the caller-provided ``completed``
        checkpoints instead of being mined, ascending.
    fault_injections:
        Injected faults observed by the driver, counted per
        :class:`~repro.service.resilience.FaultKind` value.  Only
        faults that surface as a catchable :class:`FaultInjected`
        appear (a hard ``kill-worker`` manifests as a broken pool and
        cannot be attributed).
    provenance:
        Per shard, where its result came from and in how many
        attempts: ``{"node": ..., "attempts": n}`` with node
        ``"local"`` (mined here), a fleet node id, ``"checkpoint"``
        (resumed) or ``None`` (missing).  Shards never attempted (a
        ``max_clusters`` cap reached first) have no entry.
    """

    result: MiningResult
    missing_shards: List[int] = field(default_factory=list)
    shard_errors: Dict[int, str] = field(default_factory=dict)
    failed_attempts: Dict[int, int] = field(default_factory=dict)
    resumed_shards: List[int] = field(default_factory=list)
    fault_injections: Dict[str, int] = field(default_factory=dict)
    provenance: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Did the run lose at least one shard?"""
        return bool(self.missing_shards)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

#: Per-worker miner, built once by the pool initializer so the RWave
#: index is constructed (or unpickled) once per process, not per shard.
_WORKER_MINER: Optional[RegClusterMiner] = None
#: Per-worker fault plan (chaos testing only; ``None`` in production).
_WORKER_FAULTS: Optional[FaultPlan] = None
#: Per-worker trace hand-off (``None`` when the job is untraced).
_WORKER_TRACE: Optional[TraceWorkerConfig] = None
#: Lazily built worker-side tracer appending to the shared trace file.
_WORKER_TRACER: Optional[Tracer] = None


def _init_worker(
    matrix: ExpressionMatrix,
    params: MiningParameters,
    prunings: Optional[PruningConfig],
    index: Optional[RWaveIndex],
    fault_plan: Optional[FaultPlan] = None,
    trace_config: Optional[TraceWorkerConfig] = None,
    check_contracts: bool = False,
) -> None:
    global _WORKER_MINER, _WORKER_FAULTS, _WORKER_TRACE, _WORKER_TRACER
    # The driver's contract flag, set before a worker builds its index.
    set_enabled(check_contracts)
    _WORKER_MINER = RegClusterMiner(
        matrix, params, prunings=prunings, index=index
    )
    _WORKER_FAULTS = fault_plan
    _WORKER_TRACE = trace_config
    _WORKER_TRACER = None


def _worker_tracer() -> Tuple[Tracer, Optional[SpanContext]]:
    """The worker's tracer and the parent context to stitch under."""
    global _WORKER_TRACER
    if _WORKER_TRACE is None:
        return NULL_TRACER, None
    if _WORKER_TRACER is None:
        _WORKER_TRACER = _WORKER_TRACE.tracer()
    return _WORKER_TRACER, _WORKER_TRACE.parent


def _shard_result(start: int, result: MiningResult) -> ShardResult:
    stats: Dict[str, float] = dict(result.statistics.as_dict())
    stats.update(result.statistics.timers.prefixed())
    return start, result.clusters, stats


def _apply_shard_faults(
    plan: Optional[FaultPlan], shard: int, attempt: int, *, in_process: bool
) -> None:
    """Fire an active fault plan's shard faults for this attempt.

    Delays are applied before crashes so a ``delay-shard`` +
    ``crash-shard`` combination simulates a hung-then-dead worker.
    ``kill-worker`` hard-exits the process (breaking a worker pool);
    mined in-process it downgrades to a clean :class:`FaultInjected`
    (killing the only process would be un-testable).
    """
    if plan is None:
        return
    crash: Optional[FaultKind] = None
    for spec in plan.shard_faults(shard, attempt):
        if spec.kind is FaultKind.DELAY_SHARD:
            if spec.delay > 0.0:
                time.sleep(spec.delay)
        elif spec.kind is FaultKind.CRASH_SHARD:
            crash = spec.kind
        elif spec.kind is FaultKind.KILL_WORKER:
            if in_process:
                crash = spec.kind
            else:  # pragma: no cover - exercised in a child process
                os._exit(13)
    if crash is not None:
        raise FaultInjected(
            f"injected {crash.value} on shard {shard} (attempt {attempt})",
            kind=crash,
        )


def _annotate_shard_span(span: Span, shard: ShardResult) -> None:
    """Stamp a successful shard attempt's span with its statistics."""
    __, clusters, stats = shard
    span.set_attributes(
        {
            "outcome": "ok",
            "nodes_expanded": int(stats.get("nodes_expanded", 0)),
            "clusters_emitted": len(clusters),
        }
    )
    span.set_attributes(
        {key: value for key, value in stats.items()
         if key.startswith("time_")}
    )


def _mine_start(start: int, attempt: int = 0) -> ShardResult:
    miner = _WORKER_MINER
    assert miner is not None, "worker pool initializer did not run"
    tracer, parent = _worker_tracer()
    with tracer.span(
        "shard",
        parent=parent,
        attributes={"shard": start, "attempt": attempt},
    ) as span:
        _apply_shard_faults(_WORKER_FAULTS, start, attempt, in_process=False)
        shard = _shard_result(start, miner.mine(start_conditions=[start]))
        _annotate_shard_span(span, shard)
        return shard


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------

def merge_shard_results(
    shards: Sequence[ShardResult], params: MiningParameters
) -> MiningResult:
    """Merge per-start shard outputs into one single-process-equivalent
    result (ordering, global redundancy re-check, ``max_clusters`` cap).
    """
    ordered = sorted(shards, key=lambda shard: shard[0])
    statistics = SearchStatistics()
    # The ``timers`` field is a dataclass, not a counter — its floats
    # travel under ``time_``-prefixed keys and are summed separately.
    counter_names = [
        f.name for f in fields(SearchStatistics) if f.name != "timers"
    ]
    timer_names = [f.name for f in fields(PhaseTimers)]
    emitted: set[Tuple[Tuple[int, ...], FrozenSet[int]]] = set()
    clusters: List[RegCluster] = []
    truncated = False
    for __, shard_clusters, shard_stats in ordered:
        for name in counter_names:
            value = int(shard_stats.get(name, 0))
            if name == "max_depth":
                statistics.max_depth = max(statistics.max_depth, value)
            else:
                setattr(statistics, name, getattr(statistics, name) + value)
        for name in timer_names:
            setattr(
                statistics.timers,
                name,
                getattr(statistics.timers, name)
                + float(shard_stats.get(f"time_{name}", 0.0)),
            )
        if truncated:
            continue
        for cluster in shard_clusters:
            key = (cluster.chain, frozenset(cluster.genes))
            if key in emitted:
                # Pruning (3b) re-run globally; a no-op across shards by
                # construction, but kept so the merged set carries the
                # same maximality guarantee as one search.
                continue
            emitted.add(key)
            clusters.append(cluster)
            if (
                params.max_clusters is not None
                and len(clusters) >= params.max_clusters
            ):
                truncated = True
                break
    statistics.clusters_emitted = len(clusters)
    return MiningResult(
        clusters=clusters, statistics=statistics, parameters=params
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def _pool_context(
    start_method: Optional[str],
) -> multiprocessing.context.BaseContext:
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    # fork shares the parent's page cache with copy-on-write (fast shard
    # startup); fall back to spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _ShardDriver:
    """The shard ledger behind every execution path.

    The in-process, pool and fleet drivers (:func:`_drive_in_process`,
    :func:`_drive_pool` and :meth:`repro.service.fleet.FleetState
    .run_job`) only decide *where* each shard runs.  The ledger owns
    everything else about a job's shards: the shard universe and its
    checkpoint resume, the ``shard.resumed`` spans,
    attempt and fault accounting, interrupts, progress, per-shard
    provenance and the final merge.  It also holds the in-process shard
    body (:meth:`in_process_miner`, :meth:`mine_here`) shared by
    ``n_workers=1`` and the fleet coordinator's local mining.
    """

    def __init__(
        self,
        matrix: ExpressionMatrix,
        params: MiningParameters,
        *,
        prunings: Optional[PruningConfig] = None,
        index: Optional[RWaveIndex] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        completed: Optional[Mapping[int, ShardResult]] = None,
        on_shard_complete: Optional[Callable[[ShardResult], None]] = None,
        progress_callback: Optional[ProgressCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[SpanContext] = None,
        shards: Optional[Sequence[int]] = None,
    ) -> None:
        self.matrix = matrix
        self.params = params
        self.prunings = prunings
        self.index = index
        self.fault_plan = fault_plan
        self.retry = retry
        self.max_retries = 0 if retry is None else retry.max_retries
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self.timeout = timeout
        self.on_shard_complete = on_shard_complete
        self.progress_callback = progress_callback
        self.should_stop = should_stop
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_parent = trace_parent
        self.fault_injections: Dict[str, int] = {}
        # The shard universe: every first-chain-condition by default, or
        # an explicit subset (the fleet node mines only its leased
        # shards — see repro.service.fleet).
        if shards is None:
            universe = list(range(matrix.n_conditions))
        else:
            universe = sorted({int(start) for start in shards})
        for start in universe:
            if not 0 <= start < matrix.n_conditions:
                raise ValueError(
                    f"shard {start} out of range for a matrix with "
                    f"{matrix.n_conditions} conditions"
                )
        self.resumed: Dict[int, ShardResult] = {}
        for start, shard in (completed or {}).items():
            start = int(start)
            if not 0 <= start < matrix.n_conditions:
                raise ValueError(
                    f"checkpointed shard {start} out of range for a matrix "
                    f"with {matrix.n_conditions} conditions"
                )
            if shards is not None and start not in universe:
                continue  # a checkpoint outside the leased subset
            self.resumed[start] = shard
        self.pending: List[int] = [
            start for start in universe if start not in self.resumed
        ]
        self.shards: List[ShardResult] = list(self.resumed.values())
        self.missing: Dict[int, str] = {}
        self.failed_attempts: Dict[int, int] = {}
        #: shards :meth:`mine_here` mined: their miner already reported
        #: each cluster to ``progress_callback`` as it emitted it
        self.mined_here: Set[int] = set()
        self.nodes_so_far = sum(
            int(shard[2].get("nodes_expanded", 0))
            for shard in self.resumed.values()
        )
        self.clusters_so_far = sum(
            len(shard[1]) for shard in self.resumed.values()
        )
        self.provenance: Dict[int, Dict[str, Any]] = {}
        for start in sorted(self.resumed):
            __, clusters, stats = self.resumed[start]
            self.provenance[start] = {"node": "checkpoint", "attempts": 0}
            span = self.tracer.span(
                "shard.resumed",
                parent=self.trace_parent,
                attributes={
                    "shard": start,
                    "outcome": "resumed",
                    "nodes_expanded": int(stats.get("nodes_expanded", 0)),
                    "clusters_emitted": len(clusters),
                    **{key: value for key, value in stats.items()
                       if key.startswith("time_")},
                },
            )
            span.end()

    # -- shared plumbing ----------------------------------------------

    def partial_clusters(self) -> List[RegCluster]:
        """Clusters recoverable right now (merged completed shards)."""
        return merge_shard_results(self.shards, self.params).clusters

    def check_interrupts(self, where: str) -> None:
        """Raise the appropriate cooperative-cancellation signal."""
        if self.should_stop is not None and self.should_stop():
            raise MiningCancelled(
                f"sharded search cancelled {where}",
                partial_clusters=self.partial_clusters(),
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise MiningTimeout(
                f"sharded search exceeded its {self.timeout:g}s budget "
                f"{where}",
                partial_clusters=self.partial_clusters(),
            )

    def _probe(self) -> bool:
        """The miner's per-node stop probe: external stop or deadline."""
        if self.should_stop is not None and self.should_stop():
            return True
        return self.deadline is not None and time.monotonic() > self.deadline

    def _on_node(self, event: str, nodes: int) -> None:
        assert self.progress_callback is not None
        self.progress_callback(event, self.nodes_so_far + nodes)

    def in_process_miner(self) -> RegClusterMiner:
        """A miner for :meth:`mine_here` whose hooks report to this ledger.

        Its hooks offset node counts by the shards already recorded, so
        observers see one monotonically increasing count across the
        job, and poll the stop probe and the deadline once per search
        node.  The driver that mines in-process owns it and reuses it
        across shards, like a pool worker's; the ledger keeps no
        reference, so ledger and miner never form a cycle that would
        hold a finished job's index until a garbage collection.
        """
        return RegClusterMiner(
            self.matrix,
            self.params,
            prunings=self.prunings,
            index=self.index,
            progress_callback=(
                self._on_node if self.progress_callback is not None else None
            ),
            should_stop=self._probe if (
                self.should_stop is not None or self.deadline is not None
            ) else None,
        )

    def mine_here(
        self,
        miner: RegClusterMiner,
        start: int,
        attempt: int,
        *,
        node: Optional[str] = None,
    ) -> ShardResult:
        """Mine one attempt at one shard on the calling thread.

        ``miner`` comes from :meth:`in_process_miner`.  A stop probe
        firing mid-shard raises
        :class:`~repro.core.miner.MiningCancelled` (external stop) or
        :class:`~repro.core.miner.MiningTimeout` (deadline), carrying
        the job's partial clusters.  The fault plan's shard faults
        apply with in-process semantics, raising :class:`FaultInjected`
        (``kill-worker`` downgrades to a clean failure — there is no
        worker process to kill).  ``node`` tags the ``shard`` span.
        """
        attributes: Dict[str, Any] = {"shard": start, "attempt": attempt}
        if node is not None:
            attributes["node"] = node
        try:
            with self.tracer.span(
                "shard", parent=self.trace_parent, attributes=attributes
            ) as span:
                _apply_shard_faults(
                    self.fault_plan, start, attempt, in_process=True
                )
                result = miner.mine(start_conditions=[start])
                shard = _shard_result(start, result)
                _annotate_shard_span(span, shard)
                self.mined_here.add(start)
                return shard
        except MiningTimeout:
            raise
        except MiningCancelled as error:
            # The miner's probe fired mid-shard: classify it.  An
            # external stop wins over a deadline that raced it.
            partials = self.partial_clusters() + error.partial_clusters
            if self.should_stop is not None and self.should_stop():
                raise MiningCancelled(
                    str(error), partial_clusters=partials
                ) from None
            raise MiningTimeout(
                f"shard {start} exceeded the job's {self.timeout:g}s budget",
                partial_clusters=partials,
            ) from None

    def record_shard(self, shard: ShardResult, node: str = "local") -> None:
        """Book one freshly mined shard: provenance, checkpoint, progress."""
        start, clusters, stats = shard
        self.shards.append(shard)
        self.provenance[start] = {
            "node": node,
            "attempts": self.failed_attempts.get(start, 0) + 1,
        }
        self.nodes_so_far += int(stats.get("nodes_expanded", 0))
        self.clusters_so_far += len(clusters)
        if self.on_shard_complete is not None:
            with self.tracer.span(
                "checkpoint",
                parent=self.trace_parent,
                attributes={"shard": start},
            ):
                self.on_shard_complete(shard)
        if self.progress_callback is not None:
            self.progress_callback("expanded", self.nodes_so_far)
            if start not in self.mined_here:
                for __ in clusters:
                    self.progress_callback("emitted", self.nodes_so_far)

    def record_failure(
        self, start: int, error: Union[BaseException, str]
    ) -> bool:
        """Count one failed attempt; ``True`` if the shard may retry.

        ``error`` is the exception the attempt raised, or the message
        of a failure observed elsewhere (an expired fleet lease, a
        node's report).
        """
        tries = self.failed_attempts.get(start, 0) + 1
        self.failed_attempts[start] = tries
        kind = getattr(error, "kind", None)
        if isinstance(kind, FaultKind):
            self.fault_injections[kind.value] = (
                self.fault_injections.get(kind.value, 0) + 1
            )
        message = (
            error if isinstance(error, str)
            else f"{type(error).__name__}: {error}"
        )
        if tries <= self.max_retries:
            _LOG.warning(
                "shard.failed",
                shard=start,
                attempt=tries - 1,
                error=message,
                will_retry=True,
                backoff_s=(
                    0.0 if self.retry is None
                    else self.retry.backoff(start, tries - 1)
                ),
            )
            return True
        self.missing[start] = message
        self.provenance[start] = {"node": None, "attempts": tries}
        _LOG.error("shard.lost", shard=start, attempts=tries, error=message)
        return False

    def retry_time(self, start: int) -> float:
        """Monotonic time at which a failed shard's backoff ends."""
        if self.retry is None:
            return time.monotonic()
        attempt = self.failed_attempts[start] - 1
        return time.monotonic() + self.retry.backoff(start, attempt)

    def outcome(self) -> ShardedOutcome:
        return ShardedOutcome(
            result=merge_shard_results(self.shards, self.params),
            missing_shards=sorted(self.missing),
            shard_errors=dict(self.missing),
            failed_attempts=dict(self.failed_attempts),
            resumed_shards=sorted(self.resumed),
            fault_injections=dict(self.fault_injections),
            provenance=dict(sorted(self.provenance.items())),
        )


def _drive_in_process(driver: _ShardDriver) -> ShardedOutcome:
    """Mine shard-by-shard on the calling thread (``n_workers=1``).

    Progress and cancellation keep node granularity
    (:meth:`_ShardDriver.in_process_miner`).
    """
    params = driver.params
    miner = driver.in_process_miner()
    for start in driver.pending:
        # Ascending starts + the merge cap make stopping here exact: the
        # single-process search would not have visited later starts
        # either once the cap is reached.
        if (
            params.max_clusters is not None
            and driver.clusters_so_far >= params.max_clusters
        ):
            break
        attempt = 0
        while True:
            driver.check_interrupts(f"before shard {start}")
            try:
                shard = driver.mine_here(miner, start, attempt)
            except FaultInjected as error:
                if not driver.record_failure(start, error):
                    break
                if driver.retry is not None:
                    driver.retry.sleep_before_retry(start, attempt)
                attempt += 1
                continue
            driver.record_shard(shard)
            break
    return driver.outcome()


def _drive_pool(
    driver: _ShardDriver, n_workers: int, start_method: Optional[str]
) -> ShardedOutcome:
    """Mine shards on a worker pool, surviving worker death.

    A clean shard failure (an exception out of the worker) costs only
    that shard an attempt.  A hard worker death breaks the whole
    :class:`~concurrent.futures.ProcessPoolExecutor`; the driver then
    salvages every future that finished before the break, charges one
    attempt to every shard that was in flight (the killer cannot be
    told apart from its victims), rebuilds the pool and resubmits.
    Cancellation/timeout are honoured between shard completions (a
    worker cannot be interrupted mid-shard cooperatively).
    """
    context = _pool_context(start_method)
    trace_config = (
        None if driver.trace_parent is None
        else driver.tracer.worker_config(driver.trace_parent)
    )
    initargs = (
        driver.matrix, driver.params, driver.prunings, driver.index,
        driver.fault_plan, trace_config, contracts_enabled(),
    )
    n_shards = driver.matrix.n_conditions

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=initargs,
        )

    ready: List[int] = list(driver.pending)
    retry_at: Dict[int, float] = {}
    futures: Dict["Future[ShardResult]", int] = {}
    pool = make_pool()
    try:
        while ready or retry_at or futures:
            now = time.monotonic()
            for start in [s for s, at in retry_at.items() if at <= now]:
                del retry_at[start]
                ready.append(start)
            for start in ready:
                attempt = driver.failed_attempts.get(start, 0)
                futures[pool.submit(_mine_start, start, attempt)] = start
            ready.clear()
            driver.check_interrupts(
                f"after {len(driver.shards)} of {n_shards} shards"
            )
            if not futures:
                # Everything is waiting out a backoff; nap until the
                # earliest retry is due, staying responsive to stops.
                time.sleep(
                    min(0.05, max(0.0, min(retry_at.values()) - now))
                )
                continue
            done, _ = wait(
                list(futures), timeout=0.05, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                start = futures.pop(future)
                try:
                    shard = future.result()
                except Exception as error:  # reglint: disable=RL103
                    # Any organic worker failure is retried the same
                    # way as an injected one; an exhausted budget
                    # surfaces it in the outcome's shard_errors.
                    broken = broken or isinstance(error, BrokenProcessPool)
                    if driver.record_failure(start, error):
                        retry_at[start] = driver.retry_time(start)
                else:
                    driver.record_shard(shard)
                    if futures:
                        # Completions that one wait() returned together
                        # are still separate shard boundaries.
                        driver.check_interrupts(
                            f"after {len(driver.shards)} of "
                            f"{n_shards} shards"
                        )
            if broken:
                # The executor is unusable: salvage finished futures,
                # charge the in-flight shards one attempt, start over.
                for future, start in list(futures.items()):
                    try:
                        shard = future.result(timeout=0)
                    except Exception as error:  # reglint: disable=RL103
                        if driver.record_failure(start, error):
                            retry_at[start] = driver.retry_time(start)
                    else:
                        driver.record_shard(shard)
                futures.clear()
                _LOG.warning(
                    "pool.rebuild",
                    completed_shards=len(driver.shards),
                    pending_retries=len(retry_at),
                )
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return driver.outcome()


def mine_sharded_outcome(
    matrix: ExpressionMatrix,
    params: MiningParameters,
    *,
    n_workers: int = 1,
    prunings: Optional[PruningConfig] = None,
    index: Optional[RWaveIndex] = None,
    progress_callback: Optional[ProgressCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    start_method: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    completed: Optional[Mapping[int, ShardResult]] = None,
    on_shard_complete: Optional[Callable[[ShardResult], None]] = None,
    tracer: Optional[Tracer] = None,
    trace_parent: Optional[SpanContext] = None,
    shards: Optional[Sequence[int]] = None,
) -> ShardedOutcome:
    """Mine a matrix shard-by-shard with full recovery machinery.

    The degradation-tolerant core of :func:`mine_sharded` — see the
    module docstring for the recovery semantics.  Returns a
    :class:`ShardedOutcome`; a run that lost no shards carries a result
    bit-identical to single-process mining.

    Parameters
    ----------
    retry:
        Per-shard retry budget and backoff.  ``None`` disables retries
        (any shard failure immediately loses the shard).
    fault_plan:
        Chaos-testing fault injection; ``None`` (production) adds zero
        overhead.
    timeout:
        Per-call wall-clock budget in seconds; raises
        :class:`~repro.core.miner.MiningTimeout` (with partial clusters
        attached) when exceeded.
    completed:
        Already-finished shard results keyed by start condition — the
        checkpoint-resume seam.  They are merged without re-mining.
    on_shard_complete:
        Invoked with every freshly mined :data:`ShardResult` the moment
        it completes (checkpoint-persistence seam).  Not called for
        ``completed`` shards.
    tracer / trace_parent:
        Optional :class:`~repro.obs.trace.Tracer` plus the span context
        to stitch shard spans under (typically the caller's "mine"
        span).  Worker processes join the same trace file; untraced
        runs pay only a null-tracer check per shard.
    shards:
        Restrict the run to this subset of start conditions instead of
        mining every first chain condition.  The merged result then
        covers exactly those shards — the fleet node's way of mining
        only its leased shards (:mod:`repro.service.fleet`).  ``None``
        (default) mines the full universe.

    Raises
    ------
    MiningCancelled
        When ``should_stop`` fires; partial clusters from completed
        shards are attached.
    MiningTimeout
        When the deadline fires; partial clusters attached likewise.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    universe_size = (
        matrix.n_conditions if shards is None else len(set(shards))
    )
    n_workers = min(n_workers, max(1, universe_size))
    driver = _ShardDriver(
        matrix,
        params,
        prunings=prunings,
        index=index,
        fault_plan=fault_plan,
        retry=retry,
        timeout=timeout,
        completed=completed,
        on_shard_complete=on_shard_complete,
        progress_callback=progress_callback,
        should_stop=should_stop,
        tracer=tracer,
        trace_parent=trace_parent,
        shards=shards,
    )
    if n_workers == 1:
        return _drive_in_process(driver)
    return _drive_pool(driver, n_workers, start_method)


def mine_sharded(
    matrix: ExpressionMatrix,
    params: MiningParameters,
    *,
    n_workers: int = 1,
    prunings: Optional[PruningConfig] = None,
    index: Optional[RWaveIndex] = None,
    progress_callback: Optional[ProgressCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    start_method: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
) -> MiningResult:
    """Mine a matrix with a sharded worker pool (all-or-nothing).

    Results are bit-identical to
    :func:`repro.core.miner.mine_reg_clusters` for any ``n_workers``
    (see the module docstring for the equivalence argument).

    Parameters
    ----------
    n_workers:
        Worker processes.  ``1`` mines in-process — no pool, and both
        ``progress_callback`` and ``should_stop`` observe every search
        node.  With a pool, progress is reported per completed shard and
        cancellation is honoured between shard completions.
    index:
        Optional prebuilt RWave index (e.g. from the artifact cache);
        shipped to each worker so no process rebuilds it.
    should_stop:
        Cooperative cancellation probe; raises
        :class:`~repro.core.miner.MiningCancelled` when it fires.
    start_method:
        ``multiprocessing`` start method override (default: ``fork``
        where available, else ``spawn``).
    retry / fault_plan / timeout:
        Recovery and chaos knobs shared with
        :func:`mine_sharded_outcome`.

    Raises
    ------
    ShardFailure
        When any shard exhausts its retry budget — this strict wrapper
        refuses partial results; callers that accept degraded output
        use :func:`mine_sharded_outcome`.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if (
        n_workers == 1
        and retry is None
        and fault_plan is None
        and timeout is None
    ):
        # The classic in-process fast path: one full mine() call, exact
        # single-process semantics (including the max_clusters early
        # exit and per-node statistics under a cluster cap).
        miner = RegClusterMiner(
            matrix,
            params,
            prunings=prunings,
            index=index,
            progress_callback=progress_callback,
            should_stop=should_stop,
        )
        return miner.mine()
    outcome = mine_sharded_outcome(
        matrix,
        params,
        n_workers=n_workers,
        prunings=prunings,
        index=index,
        progress_callback=progress_callback,
        should_stop=should_stop,
        start_method=start_method,
        retry=retry,
        fault_plan=fault_plan,
        timeout=timeout,
    )
    if outcome.missing_shards:
        details = "; ".join(
            f"shard {start}: {outcome.shard_errors[start]}"
            for start in outcome.missing_shards
        )
        raise ShardFailure(
            f"{len(outcome.missing_shards)} shard(s) exhausted the retry "
            f"budget: {details}",
            outcome.missing_shards,
            outcome.shard_errors,
        )
    return outcome.result
