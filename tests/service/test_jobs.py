"""Unit tests for the job engine (ids, records, persistent store)."""

from __future__ import annotations

import pytest

from repro.core.params import MiningParameters
from repro.service.jobs import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobState,
    JobStore,
    compute_job_id,
    parameters_from_dict,
    parameters_to_dict,
)


@pytest.fixture
def params() -> MiningParameters:
    return MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )


@pytest.fixture
def record(params) -> JobRecord:
    return JobRecord(
        job_id=compute_job_id("d" * 64, params),
        state=JobState.SUBMITTED,
        matrix_digest="d" * 64,
        parameters=parameters_to_dict(params),
        submitted_at=100.0,
    )


class TestJobId:
    def test_deterministic(self, params):
        assert compute_job_id("abc", params) == compute_job_id("abc", params)

    def test_shape(self, params):
        job_id = compute_job_id("abc", params)
        assert job_id.startswith("job-")
        assert len(job_id) == len("job-") + 16

    def test_sensitive_to_digest_and_params(self, params):
        base = compute_job_id("abc", params)
        assert compute_job_id("abd", params) != base
        assert compute_job_id("abc", params.with_overrides(gamma=0.2)) != base
        assert (
            compute_job_id("abc", params.with_overrides(max_clusters=5))
            != base
        )

    def test_insensitive_to_parameter_dict_ordering(self, params):
        # The id hashes the canonical sorted-key JSON form, so two
        # parameter dicts with different insertion orders collide.
        a = parameters_from_dict(
            {"min_genes": 3, "min_conditions": 5, "gamma": 0.15,
             "epsilon": 0.1}
        )
        b = parameters_from_dict(
            {"epsilon": 0.1, "gamma": 0.15, "min_conditions": 5,
             "min_genes": 3}
        )
        assert compute_job_id("abc", a) == compute_job_id("abc", b)


class TestParameterDicts:
    def test_round_trip(self, params):
        assert parameters_from_dict(parameters_to_dict(params)) == params

    def test_round_trip_with_max_clusters(self, params):
        capped = params.with_overrides(max_clusters=7)
        assert parameters_from_dict(parameters_to_dict(capped)) == capped

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown mining parameter"):
            parameters_from_dict(
                {"min_genes": 3, "min_conditions": 5, "gamma": 0.15,
                 "epsilon": 0.1, "n_workers": 4}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing mining parameter"):
            parameters_from_dict({"min_genes": 3})

    def test_bounds_revalidated(self):
        with pytest.raises(ValueError, match="gamma"):
            parameters_from_dict(
                {"min_genes": 3, "min_conditions": 5, "gamma": 9.0,
                 "epsilon": 0.1}
            )


class TestStates:
    def test_partition(self):
        assert ACTIVE_STATES | TERMINAL_STATES == frozenset(JobState)
        assert not ACTIVE_STATES & TERMINAL_STATES


class TestJobRecord:
    def test_dict_round_trip(self, record):
        again = JobRecord.from_dict(record.to_dict())
        assert again == record
        assert again.state is JobState.SUBMITTED

    def test_only_retired_keys_are_dropped(self, record):
        payload = record.to_dict()
        payload.update(kernel_cache_hit=True, kernel_build="cached")
        assert JobRecord.from_dict(payload) == record
        payload["no_such_field"] = 1
        with pytest.raises(TypeError):
            JobRecord.from_dict(payload)

    def test_state_serializes_as_plain_string(self, record):
        assert record.to_dict()["state"] == "submitted"


class TestJobStore:
    def test_save_get_round_trip(self, tmp_path, record):
        store = JobStore(tmp_path)
        store.save(record)
        assert store.get(record.job_id) == record

    def test_unknown_job_raises_key_error(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(KeyError, match="unknown job"):
            store.get("job-" + "0" * 16)

    def test_malformed_id_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(KeyError, match="malformed"):
            store.get("../../etc/passwd")
        assert not store.exists("not-a-job-id")

    def test_update_persists_changes(self, tmp_path, record):
        store = JobStore(tmp_path)
        store.save(record)
        store.update(record.job_id, state=JobState.RUNNING, started_at=101.0)
        again = store.get(record.job_id)
        assert again.state is JobState.RUNNING
        assert again.started_at == 101.0

    def test_delete(self, tmp_path, record):
        store = JobStore(tmp_path)
        store.save(record)
        store.delete(record.job_id)
        assert not store.exists(record.job_id)
        with pytest.raises(KeyError):
            store.delete(record.job_id)

    def test_survives_reopen(self, tmp_path, record):
        JobStore(tmp_path).save(record)
        assert JobStore(tmp_path).get(record.job_id) == record

    def test_list_records_oldest_first(self, tmp_path, record, params):
        store = JobStore(tmp_path)
        later = JobRecord(
            job_id=compute_job_id("e" * 64, params),
            state=JobState.DONE,
            matrix_digest="e" * 64,
            parameters=parameters_to_dict(params),
            submitted_at=200.0,
        )
        store.save(later)
        store.save(record)
        assert [r.submitted_at for r in store.list_records()] == [100.0, 200.0]


class TestShardCheckpoints:
    def test_round_trip(self, tmp_path, record):
        from repro.core.cluster import RegCluster

        store = JobStore(tmp_path)
        store.save(record)
        cluster = RegCluster(
            chain=(3, 5, 1), p_members=(0, 2), n_members=(1,)
        )
        shard = (3, [cluster], {"nodes_expanded": 17.0, "candidates": 4.0})
        store.save_shard(record.job_id, shard)
        loaded = store.load_shards(record.job_id)
        assert loaded == {3: shard}

    def test_checkpoints_survive_a_new_store_instance(self, tmp_path,
                                                      record):
        # The on-disk layout, not the object, is the source of truth —
        # exactly what a restarted daemon relies on.
        first = JobStore(tmp_path)
        first.save(record)
        first.save_shard(record.job_id, (0, [], {"nodes_expanded": 1.0}))
        first.save_shard(record.job_id, (4, [], {"nodes_expanded": 2.0}))
        second = JobStore(tmp_path)
        assert sorted(second.load_shards(record.job_id)) == [0, 4]

    def test_corrupt_checkpoint_is_skipped(self, tmp_path, record):
        store = JobStore(tmp_path)
        store.save(record)
        store.save_shard(record.job_id, (1, [], {"nodes_expanded": 5.0}))
        shards_dir = tmp_path / f"{record.job_id}.shards"
        (shards_dir / "shard-0002.json").write_text(
            '{"start": 2, "clusters": [{', encoding="utf-8"
        )  # torn write
        (shards_dir / "shard-0003.json").write_text(
            '{"start": 3}', encoding="utf-8"
        )  # missing fields
        loaded = store.load_shards(record.job_id)
        assert sorted(loaded) == [1]

    def test_clear_shards_removes_the_directory(self, tmp_path, record):
        store = JobStore(tmp_path)
        store.save(record)
        store.save_shard(record.job_id, (0, [], {}))
        shards_dir = tmp_path / f"{record.job_id}.shards"
        assert shards_dir.is_dir()
        store.clear_shards(record.job_id)
        assert not shards_dir.exists()
        store.clear_shards(record.job_id)  # idempotent no-op

    def test_load_shards_without_checkpoints_is_empty(self, tmp_path,
                                                      record):
        store = JobStore(tmp_path)
        store.save(record)
        assert store.load_shards(record.job_id) == {}

    def test_malformed_job_id_is_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(KeyError, match="malformed"):
            store.save_shard("../escape", (0, [], {}))


class TestDegradedState:
    def test_degraded_is_terminal_and_carries_a_result(self):
        from repro.service.jobs import RESULT_STATES

        assert JobState.DEGRADED in TERMINAL_STATES
        assert JobState.DEGRADED not in ACTIVE_STATES
        assert RESULT_STATES == {JobState.DONE, JobState.DEGRADED}

    def test_record_round_trips_resilience_fields(self, tmp_path, record):
        from dataclasses import replace

        store = JobStore(tmp_path)
        degraded = replace(
            record,
            state=JobState.DEGRADED,
            missing_shards=[2, 7],
            resumed_shards=[0, 1],
            shard_failures={"2": 3, "7": 3},
        )
        store.save(degraded)
        loaded = store.get(record.job_id)
        assert loaded.state is JobState.DEGRADED
        assert loaded.missing_shards == [2, 7]
        assert loaded.resumed_shards == [0, 1]
        assert loaded.shard_failures == {"2": 3, "7": 3}
