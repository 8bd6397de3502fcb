"""Unit tests for the bit-packed regulation-pair kernel."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.kernels import RegulationKernel
from repro.core.rwave import RWaveIndex
from repro.matrix.expression import ExpressionMatrix


def random_matrix(n_genes=23, n_conditions=11, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_genes, n_conditions)) * 10.0


def kernel_for(values, gamma=0.15, **kwargs):
    thresholds = gamma * (values.max(axis=1) - values.min(axis=1))
    return RegulationKernel(values, thresholds, **kwargs), thresholds


def brute_up(values, thresholds):
    """The dense Eq. 3 tensor, computed the obvious way."""
    diff = values[:, :, None] - values[:, None, :]
    return diff > thresholds[:, None, None]


class TestPackedRelation:
    def test_matches_brute_force(self):
        values = random_matrix()
        kernel, thresholds = kernel_for(values)
        expected = brute_up(values, thresholds)
        for last in range(values.shape[1]):
            np.testing.assert_array_equal(
                kernel.up_slice(last), expected[:, :, last]
            )
            np.testing.assert_array_equal(
                kernel.down_slice(last), expected[:, last, :]
            )

    def test_point_query(self):
        values = random_matrix(n_genes=5, n_conditions=6)
        kernel, thresholds = kernel_for(values)
        expected = brute_up(values, thresholds)
        for gene in range(5):
            for a in range(6):
                for b in range(6):
                    assert kernel.is_up_regulated(gene, a, b) == bool(
                        expected[gene, a, b]
                    )

    def test_non_multiple_of_eight_conditions(self):
        # The packed axis is padded to a byte boundary; padding bits must
        # never leak into the dense projections.
        for n_conditions in (3, 8, 9, 16, 17):
            values = random_matrix(n_genes=7, n_conditions=n_conditions)
            kernel, thresholds = kernel_for(values)
            expected = brute_up(values, thresholds)
            for last in range(n_conditions):
                np.testing.assert_array_equal(
                    kernel.down_slice(last), expected[:, last, :]
                )

    def test_strict_inequality_at_threshold(self):
        # A step exactly equal to the threshold is NOT up-regulation
        # (Eq. 3 is strict).
        values = np.array([[0.0, 1.0, 2.0]])
        thresholds = np.array([1.0])
        kernel = RegulationKernel(values, thresholds)
        assert not kernel.is_up_regulated(0, 1, 0)  # diff == 1.0
        assert kernel.is_up_regulated(0, 2, 0)  # diff == 2.0

    def test_chunked_pack_matches_unchunked(self, monkeypatch):
        import repro.core.kernels as kernels_module

        values = random_matrix(n_genes=40, n_conditions=9, seed=3)
        kernel, thresholds = kernel_for(values)
        monkeypatch.setattr(kernels_module, "_PACK_CHUNK", 7)
        chunked = RegulationKernel(values, thresholds)
        np.testing.assert_array_equal(kernel._packed, chunked._packed)


class TestValidation:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            RegulationKernel(np.zeros(4), np.zeros(4))

    def test_rejects_threshold_shape(self):
        with pytest.raises(ValueError, match="shape"):
            RegulationKernel(np.zeros((3, 4)), np.zeros(4))

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError, match="non-negative"):
            RegulationKernel(np.zeros((2, 3)), np.array([0.1, -0.1]))

    def test_condition_out_of_range(self):
        kernel, _ = kernel_for(random_matrix(5, 4))
        with pytest.raises(IndexError, match="out of range"):
            kernel.up_slice(4)
        with pytest.raises(IndexError, match="out of range"):
            kernel.down_slice(-1)


class TestIntrospectionAndPickle:
    def test_shape_and_nbytes(self):
        kernel, _ = kernel_for(random_matrix(10, 9))
        assert kernel.shape == (10, 9)
        assert kernel.nbytes == 10 * 9 * ((9 + 7) // 8)
        assert "10x9" in repr(kernel)

    def test_pickle_round_trip_drops_dense_caches(self):
        values = random_matrix()
        kernel, _ = kernel_for(values)
        kernel.up_slice(1)
        kernel.down_slice(2)
        clone = pickle.loads(pickle.dumps(kernel))
        # Only the packed tensor and its shape travel: no dense slices.
        assert set(vars(clone)) == {"n_genes", "n_conditions", "_packed"}
        np.testing.assert_array_equal(clone._packed, kernel._packed)
        for last in range(values.shape[1]):
            np.testing.assert_array_equal(
                clone.up_slice(last), kernel.up_slice(last)
            )


class TestRWaveIntegration:
    def test_lazy_build_and_attach(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        assert not index.has_kernel
        kernel = index.kernel
        assert index.has_kernel
        assert index.kernel is kernel

        other = RWaveIndex(running_example, 0.15)
        other.attach_kernel(kernel)
        assert other.kernel is kernel

    def test_attach_rejects_shape_mismatch(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        small = ExpressionMatrix(np.zeros((2, 3)))
        foreign = RWaveIndex(small, 0.15).kernel
        with pytest.raises(ValueError, match="shape"):
            index.attach_kernel(foreign)

    def test_index_pickle_excludes_kernel(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        index.kernel  # force the lazy build
        clone = pickle.loads(pickle.dumps(index))
        assert not clone.has_kernel

    def test_kernel_agrees_with_index_thresholds(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        expected = brute_up(
            np.asarray(running_example.values), index.thresholds
        )
        for last in range(running_example.n_conditions):
            np.testing.assert_array_equal(
                index.kernel.up_slice(last), expected[:, :, last]
            )
