"""repro.service — a job-oriented mining daemon.

The service layer turns the one-shot miner into long-lived
infrastructure: persistent jobs with deterministic ids
(:mod:`repro.service.jobs`), a sharded multiprocessing executor whose
merged output is bit-identical to single-process mining
(:mod:`repro.service.executor`), an LRU artifact cache for RWave
indexes and completed results (:mod:`repro.service.cache`), a
stdlib JSON-over-HTTP front end (:mod:`repro.service.http`), the
fault-injection / retry / checkpoint machinery that keeps all of it
honest under crashes (:mod:`repro.service.resilience`,
``docs/robustness.md``), and a distributed work-queue fleet that
stretches the shard decomposition across machines
(:mod:`repro.service.fleet`, ``docs/distributed.md``).  See
``docs/service.md`` for the full tour.
"""

from repro.service.cache import ArtifactCache, CacheStats, DEFAULT_MAX_BYTES
from repro.service.executor import (
    ShardedOutcome,
    ShardFailure,
    merge_shard_results,
    mine_sharded,
    mine_sharded_outcome,
    shard_from_wire,
    shard_to_wire,
)
from repro.service.fleet import FleetNode, FleetState, ShardLease
from repro.service.frontdoor import FrontDoorServer
from repro.service.http import (
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    serve,
)
from repro.service.jobs import (
    RESULT_STATES,
    JobRecord,
    JobState,
    JobStore,
    compute_job_id,
    parameters_from_dict,
    parameters_to_dict,
)
from repro.service.resilience import (
    FaultInjected,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service.service import MiningService

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "FaultInjected",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FleetNode",
    "FleetState",
    "FrontDoorServer",
    "JobRecord",
    "JobState",
    "JobStore",
    "MiningService",
    "RESULT_STATES",
    "RetryPolicy",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ShardFailure",
    "ShardLease",
    "ShardedOutcome",
    "compute_job_id",
    "merge_shard_results",
    "mine_sharded",
    "mine_sharded_outcome",
    "parameters_from_dict",
    "parameters_to_dict",
    "serve",
    "shard_from_wire",
    "shard_to_wire",
]
