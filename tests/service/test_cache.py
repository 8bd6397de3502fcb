"""Unit tests for the LRU artifact cache."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import ChainTables, RWaveIndex
from repro.matrix.summary import matrix_digest
from repro.service.cache import ArtifactCache


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


class TestIndexArtifacts:
    def test_round_trip(self, cache, running_example):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        assert cache.get_index(digest, 0.15) is None
        cache.put_index(digest, 0.15, index)
        again = cache.get_index(digest, 0.15)
        assert again is not None
        assert again.gamma == index.gamma
        assert again.matrix == running_example

    def test_keyed_by_gamma(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        assert cache.get_index(digest, 0.3) is None

    def test_corrupt_artifact_is_a_miss(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        (entry_name,) = [k for k in cache.keys() if k.startswith("index-")]
        artifact = next(cache.root.glob("index-*.pkl"))
        artifact.write_bytes(b"not a pickle")
        assert cache.get_index(digest, 0.15) is None
        assert entry_name not in cache.keys()

    def test_stats_track_hits_and_misses(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.get_index(digest, 0.15)
        cache.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        cache.get_index(digest, 0.15)
        stats = cache.stats.as_dict()
        assert stats["index_misses"] == 1
        assert stats["index_stores"] == 1
        assert stats["index_hits"] == 1

    def test_legacy_state_with_models_loads(self, cache, running_example):
        """Index pickles whose state still carries every gene's model
        (the layout before the index kept only its tables) still load."""
        digest = matrix_digest(running_example)
        legacy = RWaveIndex(running_example, 0.15)
        legacy.models = tuple(legacy.model(i) for i in range(len(legacy)))
        cache.put_index(digest, 0.15, legacy)
        assert b"models" in next(cache.root.glob("index-*.pkl")).read_bytes()
        again = cache.get_index(digest, 0.15)
        assert again is not None
        assert not hasattr(again, "models")
        fresh = RWaveIndex(running_example, 0.15)
        np.testing.assert_array_equal(again.thresholds, fresh.thresholds)
        np.testing.assert_array_equal(again.max_up, fresh.max_up)
        np.testing.assert_array_equal(again.max_down, fresh.max_down)

    def test_legacy_state_without_run_tables_loads(
        self, cache, running_example
    ):
        """Index pickles from before the index kept each gene's sorted
        order and pointer bounds (their max-chain tables were intp) load
        with every table rebuilt as a cold build makes it."""
        digest = matrix_digest(running_example)
        legacy = RWaveIndex(running_example, 0.15)
        for name in (
            "order", "position", "successor_bound", "predecessor_bound"
        ):
            delattr(legacy, name)
        legacy.max_up = legacy.max_up.astype(np.intp)
        legacy.max_down = legacy.max_down.astype(np.intp)
        cache.put_index(digest, 0.15, legacy)
        again = cache.get_index(digest, 0.15)
        assert again is not None
        fresh = RWaveIndex(running_example, 0.15)
        for name, table in zip(ChainTables._fields, fresh.tables):
            np.testing.assert_array_equal(getattr(again, name), table)
            assert getattr(again, name).dtype == table.dtype
        params = MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        )
        mined = RegClusterMiner(running_example, params, index=again).mine()
        assert mined.clusters == (
            RegClusterMiner(running_example, params).mine().clusters
        )


class TestResultArtifacts:
    def test_round_trip_and_drop(self, cache):
        payload = {"format": "reg-cluster/v1", "clusters": []}
        job_id = "job-" + "a" * 16
        assert cache.get_result(job_id) is None
        cache.put_result(job_id, payload)
        assert cache.get_result(job_id) == payload
        cache.drop_result(job_id)
        assert cache.get_result(job_id) is None

    def test_drop_unknown_is_a_noop(self, cache):
        cache.drop_result("job-" + "b" * 16)


class TestLRUBound:
    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=200)
        blob = {"data": "x" * 60}  # ~75 serialized bytes
        cache.put_result("job-" + "1" * 16, blob)
        cache.put_result("job-" + "2" * 16, blob)
        # Touch job-1 so job-2 becomes the LRU entry.
        assert cache.get_result("job-" + "1" * 16) is not None
        cache.put_result("job-" + "3" * 16, blob)
        assert cache.get_result("job-" + "1" * 16) is not None
        assert cache.get_result("job-" + "2" * 16) is None
        assert cache.get_result("job-" + "3" * 16) is not None
        assert cache.stats.evictions == 1
        assert cache.total_bytes() <= 200

    def test_oversized_artifact_still_caches_alone(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=10)
        cache.put_result("job-" + "1" * 16, {"data": "x" * 100})
        assert cache.get_result("job-" + "1" * 16) is not None
        assert len(cache.keys()) == 1

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactCache(tmp_path, max_bytes=0)


class TestPersistence:
    def test_manifest_survives_reopen(self, tmp_path, running_example):
        digest = matrix_digest(running_example)
        first = ArtifactCache(tmp_path)
        first.put_index(digest, 0.15, RWaveIndex(running_example, 0.15))
        first.put_result("job-" + "c" * 16, {"clusters": []})
        second = ArtifactCache(tmp_path)
        assert second.get_index(digest, 0.15) is not None
        assert second.get_result("job-" + "c" * 16) == {"clusters": []}

    def test_missing_file_pruned_from_manifest(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.put_result("job-" + "d" * 16, {"clusters": []})
        next(tmp_path.glob("result-*.json")).unlink()
        second = ArtifactCache(tmp_path)
        assert second.get_result("job-" + "d" * 16) is None
        assert not second.keys()


class TestKernelArtifacts:
    def test_round_trip(self, cache, running_example):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        kernel = index.kernel
        assert cache.get_kernel(digest, 0.15) is None
        cache.put_kernel(digest, 0.15, kernel)
        again = cache.get_kernel(digest, 0.15)
        assert again is not None
        assert again.shape == kernel.shape
        for last in range(running_example.n_conditions):
            assert (again.up_slice(last) == kernel.up_slice(last)).all()

    def test_legacy_state_with_slice_cache_loads(
        self, cache, running_example
    ):
        """Kernel pickles from when the kernel kept an LRU of dense
        slices load without the cache's attributes."""
        digest = matrix_digest(running_example)
        kernel = RWaveIndex(running_example, 0.15).kernel
        kernel.slice_cache = 64
        kernel._up_cache = OrderedDict()
        kernel._down_cache = OrderedDict()
        cache.put_kernel(digest, 0.15, kernel)
        artifact = next(cache.root.glob("kernel-*.pkl")).read_bytes()
        assert b"slice_cache" in artifact
        again = cache.get_kernel(digest, 0.15)
        assert again is not None
        assert set(vars(again)) == {"n_genes", "n_conditions", "_packed"}
        np.testing.assert_array_equal(again.packed, kernel.packed)

    def test_keyed_by_gamma(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_kernel(
            digest, 0.15, RWaveIndex(running_example, 0.15).kernel
        )
        assert cache.get_kernel(digest, 0.3) is None

    def test_keyed_apart_from_indexes(self, cache, running_example):
        digest = matrix_digest(running_example)
        index = RWaveIndex(running_example, 0.15)
        cache.put_index(digest, 0.15, index)
        cache.put_kernel(digest, 0.15, index.kernel)
        keys = cache.keys()
        assert any(k.startswith("index-") for k in keys)
        assert any(k.startswith("kernel-") for k in keys)

    def test_corrupt_artifact_is_a_miss(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.put_kernel(
            digest, 0.15, RWaveIndex(running_example, 0.15).kernel
        )
        next(cache.root.glob("kernel-*.pkl")).write_bytes(b"not a pickle")
        assert cache.get_kernel(digest, 0.15) is None
        assert not any(k.startswith("kernel-") for k in cache.keys())

    def test_stats_track_hits_and_misses(self, cache, running_example):
        digest = matrix_digest(running_example)
        cache.get_kernel(digest, 0.15)
        cache.put_kernel(
            digest, 0.15, RWaveIndex(running_example, 0.15).kernel
        )
        cache.get_kernel(digest, 0.15)
        stats = cache.stats.as_dict()
        assert stats["kernel_misses"] == 1
        assert stats["kernel_stores"] == 1
        assert stats["kernel_hits"] == 1
