"""End-to-end tests of MiningService: lifecycle, caching, cancellation."""

from __future__ import annotations

import itertools

import pytest

from repro.core.miner import RegClusterMiner, mine_reg_clusters
from repro.core.params import MiningParameters
from repro.datasets.synthetic import SyntheticConfig, make_synthetic_dataset
from repro.core.serialize import result_to_dict
from repro.service.jobs import JobState
from repro.service import service as service_module
from repro.service.service import MiningService


@pytest.fixture
def service(tmp_path) -> MiningService:
    return MiningService(tmp_path / "store")


class TestLifecycle:
    def test_submit_run_result(self, service, running_example, paper_params):
        record = service.submit(running_example, paper_params)
        assert record.state is JobState.SUBMITTED
        assert service.run_pending() == 1
        done = service.status(record.job_id)
        assert done.state is JobState.DONE
        assert done.progress["clusters_emitted"] == 1
        reference = mine_reg_clusters(
            running_example,
            min_genes=paper_params.min_genes,
            min_conditions=paper_params.min_conditions,
            gamma=paper_params.gamma,
            epsilon=paper_params.epsilon,
        )
        assert service.result(record.job_id) == result_to_dict(
            reference, running_example
        )

    def test_result_of_unfinished_job_raises(self, service, running_example,
                                             paper_params):
        record = service.submit(running_example, paper_params)
        with pytest.raises(ValueError, match="not done"):
            service.result(record.job_id)

    def test_unknown_job_raises_key_error(self, service):
        with pytest.raises(KeyError):
            service.status("job-" + "0" * 16)

    def test_delete_requires_terminal_state(self, service, running_example,
                                            paper_params):
        record = service.submit(running_example, paper_params)
        with pytest.raises(ValueError, match="cancel before deleting"):
            service.delete(record.job_id)
        service.run_pending()
        service.delete(record.job_id)
        with pytest.raises(KeyError):
            service.status(record.job_id)

    def test_pool_progress_is_persisted_before_the_job_ends(
        self, tmp_path, monkeypatch
    ):
        # Pool shards report cumulative node counts once per shard.  With
        # a persist interval that no sum of shard totals is a multiple
        # of, but which the job's total passes, the live record must
        # still be written before the terminal one.
        matrix = make_synthetic_dataset(
            SyntheticConfig(n_genes=300, n_conditions=12, n_clusters=4,
                            seed=2)
        ).matrix
        params = MiningParameters(
            min_genes=3, min_conditions=6, gamma=0.1, epsilon=0.01
        )
        miner = RegClusterMiner(matrix, params)
        totals = [
            miner.mine(start_conditions=[start]).statistics.nodes_expanded
            for start in range(matrix.n_conditions)
        ]
        sums = {
            sum(shards)
            for size in range(1, len(totals) + 1)
            for shards in itertools.combinations(totals, size)
        }
        every = next(
            k for k in range(2, sum(totals) + 1)
            if all(total % k for total in sums)
        )
        monkeypatch.setattr(service_module, "_PROGRESS_PERSIST_EVERY", every)
        service = MiningService(tmp_path / "store", n_workers=2)
        writes = []
        update = service.jobs.update

        def recording_update(job_id, **changes):
            writes.append(changes)
            return update(job_id, **changes)

        monkeypatch.setattr(service.jobs, "update", recording_update)
        record = service.submit(matrix, params)
        service.run_pending()
        assert service.status(record.job_id).state is JobState.DONE
        terminal = next(
            at for at, changes in enumerate(writes)
            if changes.get("state") is JobState.DONE
        )
        live = [
            changes["progress"]["nodes_expanded"]
            for changes in writes[:terminal]
            if "progress" in changes and "state" not in changes
        ]
        assert live and live[0] >= every


class TestIdempotence:
    def test_resubmission_returns_existing_record(self, service,
                                                  running_example,
                                                  paper_params):
        first = service.submit(running_example, paper_params)
        service.run_pending()
        again = service.submit(running_example, paper_params)
        assert again.job_id == first.job_id
        assert again.state is JobState.DONE
        # Nothing new was queued.
        assert service.run_pending() == 0

    def test_rearm_after_delete_hits_result_cache(self, service,
                                                  running_example,
                                                  paper_params):
        first = service.submit(running_example, paper_params)
        service.run_pending()
        payload = service.result(first.job_id)
        service.jobs.delete(first.job_id)  # drop the record, keep the cache
        again = service.submit(running_example, paper_params)
        assert again.job_id == first.job_id
        assert service.run_pending() == 1
        done = service.status(first.job_id)
        assert done.state is JobState.DONE
        assert done.result_cache_hit is True
        assert service.result(first.job_id) == payload


class TestIndexCache:
    def test_same_gamma_different_epsilon_reuses_index(self, service,
                                                       running_example,
                                                       paper_params):
        first = service.submit(running_example, paper_params)
        service.run_pending()
        assert service.status(first.job_id).index_cache_hit is False

        relaxed = paper_params.with_overrides(epsilon=0.3)
        second = service.submit(running_example, relaxed)
        assert second.job_id != first.job_id
        service.run_pending()
        done = service.status(second.job_id)
        assert done.index_cache_hit is True
        assert done.result_cache_hit is False
        assert service.cache.stats.index_hits == 1

    def test_different_gamma_rebuilds_index(self, service, running_example,
                                            paper_params):
        service.submit(running_example, paper_params)
        service.run_pending()
        other = service.submit(
            running_example, paper_params.with_overrides(gamma=0.3)
        )
        service.run_pending()
        assert service.status(other.job_id).index_cache_hit is False


class TestCancellation:
    def test_cancel_queued_job(self, service, running_example, paper_params):
        record = service.submit(running_example, paper_params)
        cancelled = service.cancel(record.job_id)
        assert cancelled.state is JobState.CANCELLED
        # The queue entry is skipped, not executed.
        assert service.run_pending() == 0
        assert service.status(record.job_id).state is JobState.CANCELLED

    def test_cancel_mid_search_stops_via_should_stop(self, tmp_path,
                                                     running_example,
                                                     paper_params):
        service = MiningService(tmp_path / "store")

        def observer(job_id: str, event: str, nodes_expanded: int) -> None:
            if nodes_expanded >= 5:
                service.cancel(job_id)

        service.progress_observer = observer
        record = service.submit(running_example, paper_params)
        service.run_pending()
        done = service.status(record.job_id)
        assert done.state is JobState.CANCELLED
        # The search stopped early: well short of the full traversal.
        full = mine_reg_clusters(
            running_example,
            min_genes=paper_params.min_genes,
            min_conditions=paper_params.min_conditions,
            gamma=paper_params.gamma,
            epsilon=paper_params.epsilon,
        )
        assert 0 < done.progress["nodes_expanded"]
        assert (
            done.progress["nodes_expanded"]
            < full.statistics.nodes_expanded
        )

    def test_cancelled_job_can_be_resubmitted(self, service, running_example,
                                              paper_params):
        record = service.submit(running_example, paper_params)
        service.cancel(record.job_id)
        service.run_pending()
        again = service.submit(running_example, paper_params)
        assert again.state is JobState.SUBMITTED
        service.run_pending()
        assert service.status(again.job_id).state is JobState.DONE


class TestRestart:
    def test_submitted_jobs_survive_restart(self, tmp_path, running_example,
                                            paper_params):
        first = MiningService(tmp_path / "store")
        record = first.submit(running_example, paper_params)
        # Simulate a crash before execution: new service, same directory.
        second = MiningService(tmp_path / "store")
        assert second.run_pending() == 1
        assert second.status(record.job_id).state is JobState.DONE

    def test_background_thread_executes(self, tmp_path, running_example,
                                        paper_params):
        import time

        service = MiningService(tmp_path / "store")
        service.start()
        try:
            record = service.submit(running_example, paper_params)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if service.status(record.job_id).state is JobState.DONE:
                    break
                time.sleep(0.02)
            assert service.status(record.job_id).state is JobState.DONE
        finally:
            service.stop()


class TestFailure:
    def test_missing_matrix_marks_job_failed(self, service, running_example,
                                             paper_params):
        record = service.submit(running_example, paper_params)
        self_path = service._matrix_path(record.matrix_digest)
        self_path.unlink()
        service.run_pending()
        failed = service.status(record.job_id)
        assert failed.state is JobState.FAILED
        assert failed.error is not None
        assert "digest" in failed.error


class TestKernelCache:
    def test_second_submission_reuses_the_kernel(self, service,
                                                 running_example,
                                                 paper_params):
        first = service.submit(running_example, paper_params)
        service.run_pending()
        record = service.status(first.job_id)
        assert record.kernel_cache_hit is False
        assert service.cache.stats.kernel_stores == 1

        # Same matrix and gamma, different epsilon: the result cache
        # cannot answer (new job id) but the kernel artifact must.
        relaxed = paper_params.with_overrides(epsilon=0.3)
        second = service.submit(running_example, relaxed)
        assert second.job_id != first.job_id
        service.run_pending()
        done = service.status(second.job_id)
        assert done.kernel_cache_hit is True
        assert done.result_cache_hit is False
        assert service.cache.stats.kernel_hits == 1
        # The second job attached the cached kernel; nothing was rebuilt
        # or re-stored.
        assert service.cache.stats.kernel_stores == 1

    def test_different_gamma_rebuilds_kernel(self, service, running_example,
                                             paper_params):
        service.submit(running_example, paper_params)
        service.run_pending()
        other = service.submit(
            running_example, paper_params.with_overrides(gamma=0.3)
        )
        service.run_pending()
        assert service.status(other.job_id).kernel_cache_hit is False
        assert service.cache.stats.kernel_stores == 2

    def test_completed_job_records_phase_timers(self, service,
                                                running_example,
                                                paper_params):
        record = service.submit(running_example, paper_params)
        service.run_pending()
        done = service.status(record.job_id)
        assert done.state is JobState.DONE
        assert done.phase_timers is not None
        assert set(done.phase_timers) == {"candidates", "windows", "emit"}
        assert all(v >= 0.0 for v in done.phase_timers.values())


class TestResilienceConfig:
    def test_invalid_job_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="job_timeout"):
            MiningService(tmp_path / "store", job_timeout=0.0)

    def test_delete_clears_checkpoints_and_fallback(self, tmp_path,
                                                    running_example,
                                                    paper_params):
        from repro.service.resilience import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
        )

        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=6, times=100)]
        )
        service = MiningService(
            tmp_path / "store",
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            fault_plan=plan,
        )
        record = service.submit(running_example, paper_params)
        service.run_pending()
        assert service.status(record.job_id).state is JobState.DEGRADED
        assert service.jobs.load_shards(record.job_id)  # survivors kept
        assert service.result(record.job_id) is not None

        service.delete(record.job_id)
        assert service.jobs.load_shards(record.job_id) == {}
        assert record.job_id not in service._result_fallback
        with pytest.raises(KeyError):
            service.status(record.job_id)
