"""Every execution path reports the same job.

One daemon mines a job in-process, on a worker pool, or through the
fleet queue (here with no nodes, so the coordinator mines every shard
itself).  All three book their shards through the executor's one shard
ledger, so a job must come out the same on each: the same clusters (the
from-scratch ones, each a valid reg-cluster by Definition 3.2), the
same resumed / reused shards and per-shard provenance, the same kernel
acquisition, and the same shard and checkpoint spans.

Inputs sit around the packed kernel's byte boundary (7, 8 and 9
conditions) and carry one constant gene.  Job kinds: a fresh job, a job
resumed after a zero-retry crash degraded it, and an ``append_genes``
revision whose every shard is reused from the parent.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.serialize import cluster_from_dict, result_to_dict
from repro.core.validate import validation_errors
from repro.incremental import AppendGenes, apply_delta
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.summary import matrix_digest
from repro.obs.trace import load_spans
from repro.service.jobs import JobState
from repro.service.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service.service import MiningService
from tests.incremental.conftest import bimodal_matrix

PARAMS = MiningParameters(
    min_genes=2, min_conditions=2, gamma=0.6, epsilon=0.1
)
NO_RETRY = RetryPolicy(max_retries=0, backoff_base=0.0, jitter=0.0)
#: a shard with clusters on every input below
VICTIM = 1

PATHS = {
    "in-process": {},
    "pool": {"n_workers": 2},
    "fleet": {"fleet": True},
}


@pytest.fixture(params=[7, 8, 9], ids=lambda c: f"{c}-conditions")
def matrix(request) -> ExpressionMatrix:
    n_conditions = request.param
    base = bimodal_matrix(10, n_conditions, seed=n_conditions)
    constant = np.full((1, n_conditions), 4.0)
    return ExpressionMatrix(np.vstack([base.values, constant]))


def daemon(root, path, **overrides) -> MiningService:
    """A service on ``path`` whose store and traces live under ``root``."""
    options = {**PATHS[path], **overrides}
    return MiningService(
        root / path / "store", trace_dir=root / path / "traces", **options
    )


def observe(service, root, path, record, matrix):
    """What the finished job reports, after checking its clusters."""
    done = service.status(record.job_id)
    assert done.state is JobState.DONE, done.error
    clusters = service.result(record.job_id)["clusters"]
    for entry in clusters:
        cluster = cluster_from_dict(entry, matrix=matrix)
        assert validation_errors(matrix, cluster, PARAMS) == []
    spans = load_spans(root / path / "traces" / f"{record.job_id}.trace.jsonl")
    return {
        "clusters": clusters,
        "resumed_shards": done.resumed_shards,
        "reused_shards": done.reused_shards,
        "shard_provenance": done.shard_provenance,
        "kernel_build": done.kernel_build,
        "spans": Counter(
            span["name"] for span in spans
            if span["name"].startswith("shard")
            or span["name"] == "checkpoint"
        ),
    }


def scratch_clusters(matrix):
    result = RegClusterMiner(matrix, PARAMS).mine()
    return result_to_dict(result, matrix)["clusters"]


def assert_paths_agree(observed, matrix):
    reference = observed["in-process"]
    assert reference["clusters"] == scratch_clusters(matrix)
    disagreements = sorted(
        (path, key)
        for path in ("pool", "fleet")
        for key, value in observed[path].items()
        if value != reference[key]
    )
    assert disagreements == []


def test_fresh_job(tmp_path, matrix):
    observed = {}
    for path in PATHS:
        service = daemon(tmp_path, path)
        record = service.submit(matrix, PARAMS)
        service.run_pending()
        observed[path] = observe(service, tmp_path, path, record, matrix)
    assert_paths_agree(observed, matrix)
    n = matrix.n_conditions
    assert observed["fleet"]["spans"] == Counter(
        {"shard": n, "checkpoint": n}
    )
    assert observed["fleet"]["kernel_build"] == "cold"


def test_resumed_job(tmp_path, matrix):
    crash = FaultPlan(
        [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=VICTIM, times=9)]
    )
    observed = {}
    for path in PATHS:
        hurt = daemon(tmp_path, path, retry=NO_RETRY, fault_plan=crash)
        record = hurt.submit(matrix, PARAMS)
        hurt.run_pending()
        degraded = hurt.status(record.job_id)
        assert degraded.state is JobState.DEGRADED, path
        assert degraded.missing_shards == [VICTIM]
        # A fault-free daemon on the same store resumes the survivors.
        healed = daemon(tmp_path, path)
        healed.submit(matrix, PARAMS)
        healed.run_pending()
        observed[path] = observe(healed, tmp_path, path, record, matrix)
    assert_paths_agree(observed, matrix)
    survivors = sorted(set(range(matrix.n_conditions)) - {VICTIM})
    assert observed["fleet"]["resumed_shards"] == survivors
    assert observed["fleet"]["kernel_build"] == "cached"


def test_fully_reused_revision(tmp_path, matrix):
    delta = AppendGenes(
        names=("flat",), values=np.full((1, matrix.n_conditions), 5.0)
    )
    child = apply_delta(matrix, delta)
    observed = {}
    for path in PATHS:
        service = daemon(tmp_path, path)
        parent = service.submit(matrix, PARAMS)
        service.run_pending()
        assert service.status(parent.job_id).state is JobState.DONE
        __, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        service.run_pending()
        observed[path] = observe(service, tmp_path, path, record, child)
    assert_paths_agree(observed, child)
    n = matrix.n_conditions
    fleet = observed["fleet"]
    assert fleet["reused_shards"] == list(range(n))
    assert fleet["resumed_shards"] is None
    assert fleet["shard_provenance"] == {
        str(s): {"node": "parent", "attempts": 0} for s in range(n)
    }
    assert fleet["spans"] == Counter({"shard.reused": n})
    assert fleet["kernel_build"] == "delta"
