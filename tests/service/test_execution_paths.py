"""Every execution path reports the same job.

One daemon mines a job in-process, on a worker pool, or through the
fleet queue (here with no nodes, so the coordinator mines every shard
itself).  All three book their shards through the executor's one shard
ledger, so a job must come out the same on each: the same clusters (the
from-scratch ones, each a valid reg-cluster by Definition 3.2), the
same resumed shards and per-shard provenance, the same index
acquisition, the same live cluster count and the same shard and
checkpoint spans.  No path builds a regulation kernel: every test here
runs with kernel construction made to raise.

Inputs have 7, 8 and 9 conditions and carry one constant gene.  Job
kinds: a fresh job, a job resumed after a zero-retry crash degraded it,
and revision jobs (``append_genes``, ``drop_genes`` and
``append_conditions``), which are fresh jobs on the child matrix.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.kernels import RegulationKernel
from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.serialize import cluster_from_dict, result_to_dict
from repro.core.validate import validation_errors
from repro.datasets.synthetic import make_synthetic_dataset
from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    apply_delta,
)
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


@pytest.fixture
def no_kernel(monkeypatch):
    """Building or packing a regulation kernel raises: jobs mine from
    the RWave^gamma index alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("an execution path built a regulation kernel")

    monkeypatch.setattr(RegulationKernel, "__init__", refuse)
    monkeypatch.setattr(RegulationKernel, "from_packed", classmethod(refuse))
    monkeypatch.setattr(RegulationKernel, "pack_planes", classmethod(refuse))


pytestmark = pytest.mark.usefixtures("no_kernel")


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
    payload = service.result(record.job_id)
    for entry in payload["clusters"]:
        cluster = cluster_from_dict(entry, matrix=matrix)
        assert validation_errors(matrix, cluster, PARAMS) == []
    spans = load_spans(root / path / "traces" / f"{record.job_id}.trace.jsonl")
    return {
        "clusters": payload["clusters"],
        "statistics": payload["statistics"],
        "resumed_shards": done.resumed_shards,
        "shard_provenance": done.shard_provenance,
        "index_build": done.index_build,
        "spans": Counter(
            span["name"] for span in spans
            if span["name"].startswith("shard")
            or span["name"] == "checkpoint"
        ),
    }


def scratch_payload(matrix):
    return result_to_dict(RegClusterMiner(matrix, PARAMS).mine(), matrix)


def assert_paths_agree(observed, matrix):
    reference = observed["in-process"]
    scratch = scratch_payload(matrix)
    assert reference["clusters"] == scratch["clusters"]
    assert reference["statistics"] == scratch["statistics"]
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
    assert observed["fleet"]["index_build"] == "cold"


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
    assert observed["fleet"]["index_build"] == "cached"


def test_revision_job(tmp_path, matrix):
    """A revision job is an ordinary job on the child matrix: it builds
    the child's index cold, mines every shard locally and returns the
    scratch clusters and search statistics, whatever the delta kind."""
    rng = np.random.default_rng(matrix.n_conditions)
    deltas = [
        AppendGenes(
            names=("flat",), values=np.full((1, matrix.n_conditions), 5.0)
        ),
        DropGenes(genes=(matrix.gene_names[0],)),
        AppendConditions(
            names=("new",), values=rng.uniform(0, 10, (1, matrix.n_genes))
        ),
    ]
    for delta in deltas:
        child = apply_delta(matrix, delta)
        observed = {}
        for path in PATHS:
            root = tmp_path / delta.kind
            service = daemon(root, path)
            parent = service.submit(matrix, PARAMS)
            service.run_pending()
            assert service.status(parent.job_id).state is JobState.DONE
            __, record = service.submit_revision(
                matrix_digest(matrix), delta, PARAMS
            )
            service.run_pending()
            observed[path] = observe(service, root, path, record, child)
        assert_paths_agree(observed, child)
        n = child.n_conditions
        fleet = observed["fleet"]
        assert fleet["index_build"] == "cold"
        assert fleet["resumed_shards"] is None
        assert fleet["shard_provenance"] == {
            str(s): {"node": "local", "attempts": 1} for s in range(n)
        }
        assert fleet["spans"] == Counter({"shard": n, "checkpoint": n})


def test_live_cluster_count(tmp_path):
    """Every path reports each cluster exactly once as it is found, so
    the live ``emitted`` events add up to the final cluster count."""
    matrix = make_synthetic_dataset(
        n_genes=300, n_conditions=12, seed=2
    ).matrix
    params = MiningParameters(
        min_genes=3, min_conditions=6, gamma=0.1, epsilon=0.01
    )
    counts = {}
    for path in PATHS:
        events = Counter()
        service = daemon(
            tmp_path, path,
            progress_observer=lambda job, event, nodes: events.update([event]),
        )
        record = service.submit(matrix, params)
        service.run_pending()
        done = service.status(record.job_id)
        assert done.state is JobState.DONE, done.error
        final = len(service.result(record.job_id)["clusters"])
        counts[path] = (events["emitted"], final)
    assert all(live == final for live, final in counts.values()), counts
    assert len(set(counts.values())) == 1, counts
