"""A daemon's worker pool: forked once, reused by every job, never stale.

:class:`~repro.service.executor.WorkerPool` outlives the jobs it serves,
so these tests run several jobs on one :class:`MiningService` and check
what a per-job pool made true by construction: each job mines under its
own context, writes only its own trace, recovers from a broken or
abandoned pool, and leaves no process behind its owner.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.miner import MiningCancelled, RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.serialize import result_to_dict
from repro.datasets.synthetic import make_synthetic_dataset
from repro.obs.trace import Tracer, load_spans
from repro.service import executor
from repro.service.executor import WorkerPool, mine_sharded_outcome
from repro.service.jobs import JobState
from repro.service.resilience import FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.service.service import MiningService


def synthetic(seed: int, n_conditions: int = 8):
    return make_synthetic_dataset(
        n_genes=60, n_conditions=n_conditions, n_clusters=2, seed=seed
    ).matrix


def params(gamma: float) -> MiningParameters:
    return MiningParameters(
        min_genes=3, min_conditions=4, gamma=gamma, epsilon=0.5
    )


def children() -> set:
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def own_children():
    """Worker pids a test starts must be gone when it ends; processes
    some earlier test left to the garbage collector are not its own."""
    before = children()
    yield before
    deadline = time.monotonic() + 30.0
    while children() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert children() - before == set()


def run_done(service, matrix, job_params):
    record = service.submit(matrix, job_params)
    service.run_pending()
    done = service.status(record.job_id)
    assert done.state is JobState.DONE, done.error
    return done


def assert_equals_scratch(service, done, matrix, job_params):
    scratch = result_to_dict(RegClusterMiner(matrix, job_params).mine(), matrix)
    payload = service.result(done.job_id)
    assert payload["clusters"] == scratch["clusters"]
    assert payload["statistics"] == scratch["statistics"]


class TestConsecutiveJobs:
    def test_workers_are_reused_and_never_mine_a_previous_context(
        self, tmp_path, own_children
    ):
        jobs = [(synthetic(8), params(0.2)), (synthetic(9), params(0.15))]
        service = MiningService(
            tmp_path / "store", n_workers=2, trace_dir=tmp_path / "traces"
        )
        try:
            shard_pids = []
            pools = []
            for matrix, job_params in jobs:
                done = run_done(service, matrix, job_params)
                assert_equals_scratch(service, done, matrix, job_params)
                spans = load_spans(
                    tmp_path / "traces" / f"{done.job_id}.trace.jsonl"
                )
                shard_pids.append(
                    {s["pid"] for s in spans if s["name"] == "shard"}
                )
                pools.append(children() - own_children)
            # The first job forked the pool; the second reused it.
            assert len(pools[0]) == 2
            assert pools[1] == pools[0]
            assert shard_pids[0] | shard_pids[1] <= pools[0]
        finally:
            service.stop()

    def test_each_trace_holds_only_its_own_job(self, tmp_path, own_children):
        jobs = [(synthetic(8), params(0.2)), (synthetic(9), params(0.15))]
        service = MiningService(
            tmp_path / "store", n_workers=2, trace_dir=tmp_path / "traces"
        )
        try:
            records = [run_done(service, *job) for job in jobs]
        finally:
            service.stop()
        trace_ids = set()
        for record, (matrix, __) in zip(records, jobs):
            spans = load_spans(
                tmp_path / "traces" / f"{record.job_id}.trace.jsonl"
            )
            roots = [s for s in spans if s["parent_id"] is None]
            assert [r["name"] for r in roots] == ["job"]
            assert roots[0]["attributes"]["job_id"] == record.job_id
            assert len({s["trace_id"] for s in spans}) == 1
            shards = sorted(
                s["attributes"]["shard"] for s in spans if s["name"] == "shard"
            )
            assert shards == list(range(matrix.n_conditions))
            trace_ids.add(spans[0]["trace_id"])
        assert len(trace_ids) == 2

    def test_a_warm_worker_closes_the_previous_jobs_tracer(
        self, tmp_path, monkeypatch, running_example, paper_params
    ):
        for name in (
            "_WORKER_TOKEN", "_WORKER_MINER", "_WORKER_FAULTS",
            "_WORKER_TRACE", "_WORKER_TRACER",
        ):
            monkeypatch.setattr(executor, name, None)
        tracers = []
        for run in ("first", "second"):
            tracer = Tracer(tmp_path / f"{run}.trace.jsonl")
            root = tracer.span("job")
            path = executor._write_context(
                executor._ShardDriver(
                    running_example, paper_params, tracer=tracer,
                    trace_parent=root.context,
                )
            )
            try:
                executor._mine_start(run, path, 0, 0)
            finally:
                os.unlink(path)
            tracers.append(executor._WORKER_TRACER)
        first, second = tracers
        assert first is not second
        assert first._stream is None  # closed when "second" arrived
        spans = load_spans(tmp_path / "first.trace.jsonl")
        assert [s["name"] for s in spans] == ["shard"]
        second.close()


class TestNoProcessOutlivesItsOwner:
    def test_stop_ends_the_daemons_workers(self, tmp_path, own_children):
        service = MiningService(tmp_path / "store", n_workers=2)
        run_done(service, synthetic(8), params(0.2))
        assert len(children() - own_children) == 2
        service.stop()
        assert children() - own_children == set()

    def test_a_call_without_a_pool_ends_its_workers(self, own_children):
        matrix, job_params = synthetic(8), params(0.2)
        outcome = mine_sharded_outcome(matrix, job_params, n_workers=2)
        assert children() - own_children == set()
        assert outcome.result.clusters == (
            RegClusterMiner(matrix, job_params).mine().clusters
        )

    def test_a_single_worker_daemon_starts_no_process(
        self, tmp_path, own_children
    ):
        service = MiningService(tmp_path / "store", n_workers=1)
        try:
            run_done(service, synthetic(8), params(0.2))
            assert children() - own_children == set()
        finally:
            service.stop()


class TestRecoveryAcrossJobs:
    def test_a_broken_pool_is_replaced_for_later_jobs(
        self, tmp_path, own_children
    ):
        # Attempt 0 of shard 6 kills its worker in every job.
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.KILL_WORKER, shard=6, times=1)]
        )
        service = MiningService(
            tmp_path / "store",
            n_workers=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.0),
            fault_plan=plan,
        )
        try:
            for matrix, job_params in (
                (synthetic(8), params(0.2)), (synthetic(9), params(0.15))
            ):
                done = run_done(service, matrix, job_params)
                assert done.shard_failures.get("6", 0) >= 1
                assert_equals_scratch(service, done, matrix, job_params)
        finally:
            service.stop()

    def test_a_worker_dying_between_jobs_costs_no_attempt(
        self, tmp_path, own_children
    ):
        service = MiningService(
            tmp_path / "store", n_workers=2,
            retry=RetryPolicy(max_retries=0),
        )
        try:
            run_done(service, synthetic(8), params(0.2))
            warm = service._pool.executor()
            os.kill(min(children() - own_children), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not warm._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert warm._broken
            matrix, job_params = synthetic(9), params(0.15)
            done = run_done(service, matrix, job_params)
            assert done.shard_failures is None
            assert_equals_scratch(service, done, matrix, job_params)
        finally:
            service.stop()

    def test_a_cancelled_job_leaves_the_next_a_fresh_pool(
        self, tmp_path, own_children
    ):
        # Shards 8 and 9 exist only in the first matrix: both workers
        # sleep in them when it is cancelled.
        delay = 4.0
        plan = FaultPlan(
            [
                FaultSpec(kind=FaultKind.DELAY_SHARD, shard=shard, delay=delay)
                for shard in (8, 9)
            ]
        )
        service = MiningService(tmp_path / "store", n_workers=2, fault_plan=plan)
        service.start()
        try:
            first = service.submit(synthetic(8, n_conditions=10), params(0.2))
            deadline = time.monotonic() + 30.0
            while len(service.jobs.load_shards(first.job_id)) < 8:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            service.cancel(first.job_id)
            while service.status(first.job_id).state is not JobState.CANCELLED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            matrix, job_params = synthetic(9), params(0.15)
            submitted = time.monotonic()
            second = service.submit(matrix, job_params)
            while service.status(second.job_id).state is not JobState.DONE:
                # Queued behind the sleeping shards it would wait ~delay.
                assert time.monotonic() - submitted < delay / 2
                time.sleep(0.02)
            assert_equals_scratch(
                service, service.status(second.job_id), matrix, job_params
            )
        finally:
            service.stop()


def test_a_pool_can_be_shut_down_and_used_again(own_children):
    pool = WorkerPool(2)
    matrix, job_params = synthetic(8), params(0.2)
    reference = RegClusterMiner(matrix, job_params).mine().clusters
    for __ in range(2):
        outcome = mine_sharded_outcome(
            matrix, job_params, n_workers=2, pool=pool
        )
        assert outcome.result.clusters == reference
        pool.shutdown()
        assert children() - own_children == set()


def test_spawned_workers_mine_from_the_context_file(own_children):
    # A spawned worker inherits nothing: the context file is all it has.
    matrix, job_params = synthetic(8), params(0.2)
    outcome = mine_sharded_outcome(
        matrix, job_params, n_workers=2, start_method="spawn"
    )
    reference = RegClusterMiner(matrix, job_params).mine()
    assert outcome.result.clusters == reference.clusters
    assert (
        outcome.result.statistics.as_dict() == reference.statistics.as_dict()
    )


def test_a_run_stopped_before_its_search_keeps_the_pool(own_children):
    pool = WorkerPool(2)
    matrix, job_params = synthetic(8), params(0.2)
    try:
        mine_sharded_outcome(matrix, job_params, n_workers=2, pool=pool)
        warm = pool.executor()
        with pytest.raises(MiningCancelled):
            mine_sharded_outcome(
                matrix, job_params, n_workers=2, pool=pool,
                should_stop=lambda: True,
            )
        assert pool.executor() is warm
    finally:
        pool.shutdown()
