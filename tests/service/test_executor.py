"""Shard-merge equivalence tests for the sharded executor.

The load-bearing guarantee (see the executor module docstring): for any
worker count, ``mine_sharded`` output is bit-identical to
single-process :func:`repro.core.miner.mine_reg_clusters`.
"""

from __future__ import annotations

import gc
import os
import threading
import weakref

import pytest

from repro.analysis import contracts
from repro.core.miner import MiningCancelled, RegClusterMiner, mine_reg_clusters
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.datasets.synthetic import make_synthetic_dataset
from repro.matrix.summary import matrix_digest
from repro.service import executor
from repro.service.executor import (
    merge_shard_results,
    mine_sharded,
    mine_sharded_outcome,
)
from repro.service.fleet import FleetState


@pytest.fixture(scope="module")
def synthetic():
    return make_synthetic_dataset(
        n_genes=60, n_conditions=8, n_clusters=2, seed=7
    ).matrix


@pytest.fixture(scope="module")
def synthetic_params():
    return MiningParameters(
        min_genes=3, min_conditions=4, gamma=0.2, epsilon=0.5
    )


def assert_results_identical(sharded, reference):
    assert sharded.clusters == reference.clusters
    assert sharded.parameters == reference.parameters
    assert sharded.statistics.as_dict() == reference.statistics.as_dict()


class TestShardMergeEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_running_example(self, running_example, paper_params, n_workers):
        reference = mine_reg_clusters(
            running_example,
            min_genes=paper_params.min_genes,
            min_conditions=paper_params.min_conditions,
            gamma=paper_params.gamma,
            epsilon=paper_params.epsilon,
        )
        sharded = mine_sharded(
            running_example, paper_params, n_workers=n_workers
        )
        assert_results_identical(sharded, reference)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_synthetic(self, synthetic, synthetic_params, n_workers):
        reference = RegClusterMiner(synthetic, synthetic_params).mine()
        sharded = mine_sharded(synthetic, synthetic_params, n_workers=n_workers)
        assert_results_identical(sharded, reference)
        assert reference.clusters  # the comparison is not vacuous

    def test_max_clusters_cap_matches_clusters(self, synthetic,
                                               synthetic_params):
        # Permissive setting (280 clusters uncapped) so the cap binds.
        capped = synthetic_params.with_overrides(
            min_conditions=3, epsilon=1.0, max_clusters=3
        )
        reference = RegClusterMiner(synthetic, capped).mine()
        sharded = mine_sharded(synthetic, capped, n_workers=2)
        # Clusters are identical; statistics are an upper bound because
        # shards run to completion while the capped single-process
        # search stops early (documented in the executor docstring).
        assert sharded.clusters == reference.clusters
        assert len(sharded.clusters) == 3
        assert (
            sharded.statistics.nodes_expanded
            >= reference.statistics.nodes_expanded
        )

    def test_workers_beyond_conditions_clamped(self, running_example,
                                               paper_params):
        sharded = mine_sharded(running_example, paper_params, n_workers=64)
        reference = RegClusterMiner(running_example, paper_params).mine()
        assert_results_identical(sharded, reference)

    def test_invalid_worker_count(self, running_example, paper_params):
        with pytest.raises(ValueError, match="n_workers"):
            mine_sharded(running_example, paper_params, n_workers=0)


class TestManualSharding:
    def test_start_conditions_partition_the_search(self, running_example,
                                                   paper_params):
        reference = RegClusterMiner(running_example, paper_params).mine()
        shards = []
        for start in range(running_example.n_conditions):
            result = RegClusterMiner(running_example, paper_params).mine(
                start_conditions=[start]
            )
            shards.append((start, result.clusters,
                           result.statistics.as_dict()))
        merged = merge_shard_results(shards, paper_params)
        assert_results_identical(merged, reference)

    def test_merge_is_order_insensitive(self, running_example, paper_params):
        shards = []
        for start in range(running_example.n_conditions):
            result = RegClusterMiner(running_example, paper_params).mine(
                start_conditions=[start]
            )
            shards.append((start, result.clusters,
                           result.statistics.as_dict()))
        forward = merge_shard_results(shards, paper_params)
        backward = merge_shard_results(list(reversed(shards)), paper_params)
        assert forward.clusters == backward.clusters
        assert (
            forward.statistics.as_dict() == backward.statistics.as_dict()
        )


class TestHooksThroughTheExecutor:
    def test_progress_reported_in_pool_mode(self, synthetic, synthetic_params):
        events = []
        mine_sharded(
            synthetic,
            synthetic_params,
            n_workers=2,
            progress_callback=lambda event, nodes: events.append(
                (event, nodes)
            ),
        )
        expanded = [n for e, n in events if e == "expanded"]
        assert expanded, "pool mode must report per-shard progress"
        assert expanded == sorted(expanded)
        reference = RegClusterMiner(synthetic, synthetic_params).mine()
        assert expanded[-1] == reference.statistics.nodes_expanded

    def test_cancellation_in_pool_mode(self, synthetic, synthetic_params):
        flag = threading.Event()
        flag.set()
        with pytest.raises(MiningCancelled):
            mine_sharded(
                synthetic,
                synthetic_params,
                n_workers=2,
                should_stop=flag.is_set,
            )


class TestFailurePaths:
    def test_strict_mine_sharded_raises_shard_failure(self, running_example,
                                                      paper_params):
        from repro.service.executor import ShardFailure
        from repro.service.resilience import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
        )

        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=3, times=10)]
        )
        with pytest.raises(ShardFailure) as info:
            mine_sharded(
                running_example,
                paper_params,
                retry=RetryPolicy(max_retries=0, backoff_base=0.0),
                fault_plan=plan,
            )
        assert info.value.missing_shards == [3]
        assert "crash-shard" in info.value.shard_errors[3]

    def test_cancellation_carries_partial_clusters(self, synthetic,
                                                   synthetic_params):
        # Cancel once the first cluster-bearing shard has finished: the
        # exception must carry the clusters already merged, so callers
        # (the service) can persist progress diagnostics.
        from repro.service.executor import mine_sharded_outcome

        seen = []

        def stop_after_first_cluster() -> bool:
            return bool(seen)

        with pytest.raises(MiningCancelled) as info:
            mine_sharded_outcome(
                synthetic,
                synthetic_params,
                on_shard_complete=lambda shard: seen.extend(shard[1]),
                should_stop=stop_after_first_cluster,
            )
        assert info.value.partial_clusters == seen
        assert seen  # the synthetic dataset yields clusters early

    def test_cancellation_in_pool_mode_carries_partials(self, synthetic,
                                                        synthetic_params):
        from repro.service.executor import mine_sharded_outcome

        seen = []
        # Every shard has clusters at MinC 3, so the first one booked
        # asks to stop while others are still unbooked; were only one
        # shard to have clusters, it could be booked last, with nothing
        # left to cancel.
        params = synthetic_params.with_overrides(min_conditions=3)

        with pytest.raises(MiningCancelled) as info:
            mine_sharded_outcome(
                synthetic,
                params,
                n_workers=2,
                on_shard_complete=lambda shard: seen.extend(shard[1]),
                should_stop=lambda: bool(seen),
            )
        assert set(info.value.partial_clusters) >= set(seen)

    def test_stop_honoured_between_completions_of_one_wait(
        self, synthetic, synthetic_params, monkeypatch
    ):
        """Shards that one ``wait()`` returns together are still separate
        shard boundaries: a stop requested by the first completion
        cancels before the others are recorded."""
        from concurrent.futures import ALL_COMPLETED, wait

        from repro.service import executor

        monkeypatch.setattr(
            executor,
            "wait",
            lambda futures, timeout, return_when: wait(
                futures, return_when=ALL_COMPLETED
            ),
        )
        seen = []
        with pytest.raises(MiningCancelled):
            executor.mine_sharded_outcome(
                synthetic,
                synthetic_params,
                n_workers=2,
                on_shard_complete=lambda shard: seen.append(shard[0]),
                should_stop=lambda: bool(seen),
            )
        assert len(seen) == 1

    def test_fast_path_still_used_without_resilience_options(
        self, running_example, paper_params
    ):
        # n_workers=1 with no retry/faults/timeout takes the classic
        # single-mine fast path: statistics match even under a binding
        # max_clusters cap (the capped search stops early).
        capped = paper_params.with_overrides(max_clusters=1)
        reference = RegClusterMiner(running_example, capped).mine()
        sharded = mine_sharded(running_example, capped, n_workers=1)
        assert_results_identical(sharded, reference)


class TestFinishedJobsReleaseTheirArtifacts:
    @pytest.mark.parametrize("path", ["in-process", "fleet", "warm-pool"])
    def test_index_is_freed_without_a_garbage_collection(
        self, synthetic, synthetic_params, path
    ):
        """The ledger and the in-process miner must not form a
        reference cycle: a daemon runs one job after another, and a
        cycle would keep every finished job's index and kernel resident
        until the cyclic collector happens to run.  A warm pool outlives
        the job, so the driver side must not keep its index either."""
        index = RWaveIndex(synthetic, synthetic_params.gamma)
        alive = weakref.ref(index)
        options = dict(
            index=index, timeout=60.0, progress_callback=lambda *__: None
        )
        pool = executor.WorkerPool(2)
        gc.disable()
        try:
            if path == "fleet":
                FleetState().run_job(
                    "job-0000000000000000",
                    synthetic,
                    synthetic_params,
                    matrix_digest=matrix_digest(synthetic),
                    **options,
                )
            elif path == "warm-pool":
                mine_sharded_outcome(
                    synthetic, synthetic_params, n_workers=2, pool=pool,
                    **options,
                )
            else:
                mine_sharded_outcome(synthetic, synthetic_params, **options)
            del index, options
            assert alive() is None
        finally:
            gc.enable()
            pool.shutdown()


def test_a_runs_context_installs_the_drivers_contract_flag(
    monkeypatch, running_example, paper_params
):
    # A spawned worker re-imports the contracts module with the flag
    # off, and a warm worker keeps the previous run's flag; only the
    # run's context can set it before the worker builds its miner.
    for name in (
        "_WORKER_TOKEN", "_WORKER_MINER", "_WORKER_FAULTS", "_WORKER_TRACE",
        "_WORKER_TRACER",
    ):
        monkeypatch.setattr(executor, name, None)
    monkeypatch.setattr(contracts, "_enabled", True)
    path = executor._write_context(
        executor._ShardDriver(running_example, paper_params)
    )
    try:
        monkeypatch.setattr(contracts, "_enabled", False)
        executor._install_context("run-1", path)
    finally:
        os.unlink(path)
    assert contracts.contracts_enabled()
    assert executor._WORKER_TOKEN == "run-1"
