"""Delta-updated kernels/indexes must be bit-identical to cold builds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.core.rwave import RWaveIndex
from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    apply_delta,
    update_index,
    update_kernel,
)
from tests.incremental.conftest import bimodal_matrix

GAMMA = 0.6


def _cold_kernel(matrix):
    return RegulationKernel(
        matrix.values, gene_thresholds(matrix, GAMMA)
    )


def _assert_kernels_identical(updated, matrix):
    cold = _cold_kernel(matrix)
    assert updated.packed.shape == cold.packed.shape
    np.testing.assert_array_equal(updated.packed, cold.packed)


def _assert_indexes_identical(updated, matrix):
    cold = RWaveIndex(matrix, GAMMA)
    np.testing.assert_array_equal(updated.thresholds, cold.thresholds)
    np.testing.assert_array_equal(updated.max_up, cold.max_up)
    np.testing.assert_array_equal(updated.max_down, cold.max_down)
    assert updated.max_up.dtype == cold.max_up.dtype
    assert updated.max_down.dtype == cold.max_down.dtype
    # The sorted order and pointer bounds the miner enumerates runs from.
    for name in ("order", "position", "successor_bound", "predecessor_bound"):
        np.testing.assert_array_equal(
            getattr(updated, name), getattr(cold, name)
        )
        assert getattr(updated, name).dtype == getattr(cold, name).dtype


class TestKernelAppendConditions:
    # Condition counts straddling byte boundaries: the packed axis is
    # ceil(C/8) bytes, so crossing 8 and 16 exercises re-packing where
    # old bits land at new bit offsets.
    @pytest.mark.parametrize("n_old", [5, 7, 8, 9, 16])
    @pytest.mark.parametrize("n_new", [1, 3])
    def test_bit_identical_across_byte_boundaries(self, n_old, n_new):
        parent = bimodal_matrix(9, n_old, seed=n_old)
        rng = np.random.default_rng(n_old * 100 + n_new)
        delta = AppendConditions(
            names=tuple(f"new{i}" for i in range(n_new)),
            values=rng.uniform(0.0, 10.0, size=(n_new, parent.n_genes)),
        )
        child = apply_delta(parent, delta)
        parent_kernel = _cold_kernel(parent)
        update = update_kernel(
            parent_kernel, parent, child, delta, gamma=GAMMA
        )
        _assert_kernels_identical(update.kernel, child)
        assert update.reused_planes + update.rebuilt_planes == (
            parent.n_genes
        )

    def test_in_range_append_reuses_every_plane(self):
        parent = bimodal_matrix(8, 10, seed=3)
        # One new value per gene strictly inside its [min, max]: every
        # Eq. 4 threshold is float-identical, so no plane rebuilds cold.
        mid = (
            parent.values.min(axis=1) + parent.values.max(axis=1)
        ) / 2.0
        delta = AppendConditions(names=("mid",), values=mid[None, :])
        child = apply_delta(parent, delta)
        update = update_kernel(
            _cold_kernel(parent), parent, child, delta, gamma=GAMMA
        )
        assert update.reused_planes == parent.n_genes
        assert update.rebuilt_planes == 0
        _assert_kernels_identical(update.kernel, child)

    def test_range_widening_append_rebuilds_that_gene(self):
        parent = bimodal_matrix(6, 9, seed=4)
        new = (
            (parent.values.min(axis=1) + parent.values.max(axis=1)) / 2.0
        )
        new[2] = parent.values[2].max() + 5.0  # widen gene 2's range
        delta = AppendConditions(names=("wide",), values=new[None, :])
        child = apply_delta(parent, delta)
        update = update_kernel(
            _cold_kernel(parent), parent, child, delta, gamma=GAMMA
        )
        assert update.rebuilt_planes == 1
        assert update.reused_planes == parent.n_genes - 1
        _assert_kernels_identical(update.kernel, child)


class TestKernelGeneDeltas:
    def test_append_genes_bit_identical(self):
        parent = bimodal_matrix(7, 9, seed=5)
        delta = AppendGenes(
            names=("a", "b"),
            values=bimodal_matrix(2, 9, seed=6).values,
        )
        child = apply_delta(parent, delta)
        update = update_kernel(
            _cold_kernel(parent), parent, child, delta, gamma=GAMMA
        )
        assert update.reused_planes == parent.n_genes
        assert update.rebuilt_planes == 2
        _assert_kernels_identical(update.kernel, child)

    def test_drop_genes_bit_identical(self):
        parent = bimodal_matrix(8, 9, seed=8)
        delta = DropGenes(
            genes=(parent.gene_names[0], parent.gene_names[5])
        )
        child = apply_delta(parent, delta)
        update = update_kernel(
            _cold_kernel(parent), parent, child, delta, gamma=GAMMA
        )
        assert update.reused_planes == child.n_genes
        assert update.rebuilt_planes == 0
        _assert_kernels_identical(update.kernel, child)

    def test_shape_mismatch_rejected(self):
        parent = bimodal_matrix(6, 8, seed=9)
        other = bimodal_matrix(6, 8, seed=10)
        delta = AppendGenes(names=("x",), values=np.zeros((1, 8)))
        child = apply_delta(parent, delta)
        wrong = apply_delta(other, delta)
        with pytest.raises(ValueError):
            update_kernel(
                _cold_kernel(parent),
                parent,
                ExpressionMatrix_like_wrong_shape(wrong),
                delta,
                gamma=GAMMA,
            )


def ExpressionMatrix_like_wrong_shape(matrix):
    """A child whose shape does not fit parent + delta."""
    from repro.matrix.expression import ExpressionMatrix

    return ExpressionMatrix(
        np.hstack([matrix.values, matrix.values[:, :1]])
    )


class TestIndexUpdate:
    def test_append_genes_splices_models(self):
        parent = bimodal_matrix(7, 9, seed=11)
        delta = AppendGenes(
            names=("a",), values=bimodal_matrix(1, 9, seed=12).values
        )
        child = apply_delta(parent, delta)
        parent_index = RWaveIndex(parent, GAMMA)
        update = update_index(parent_index, child, delta)
        assert update.reused_models == parent.n_genes
        assert update.rebuilt_models == 1
        _assert_indexes_identical(update.index, child)

    def test_drop_genes_renumbers_survivors(self):
        parent = bimodal_matrix(8, 9, seed=13)
        delta = DropGenes(genes=(parent.gene_names[2],))
        child = apply_delta(parent, delta)
        parent_index = RWaveIndex(parent, GAMMA)
        parent_up = parent_index.max_up.copy()
        parent_down = parent_index.max_down.copy()
        update = update_index(parent_index, child, delta)
        assert update.reused_models == child.n_genes
        assert [
            update.index.model(i).gene for i in range(child.n_genes)
        ] == list(range(child.n_genes))
        # Survivors after the dropped gene move up one row.
        np.testing.assert_array_equal(update.index.max_up[2:], parent_up[3:])
        np.testing.assert_array_equal(
            update.index.max_down[2:], parent_down[3:]
        )
        # The cached parent index must never be mutated.
        np.testing.assert_array_equal(parent_index.max_up, parent_up)
        np.testing.assert_array_equal(parent_index.max_down, parent_down)
        assert not np.shares_memory(update.index.max_up, parent_index.max_up)
        _assert_indexes_identical(update.index, child)

    def test_append_conditions_rebuilds_cold(self):
        parent = bimodal_matrix(6, 8, seed=14)
        rng = np.random.default_rng(15)
        delta = AppendConditions(
            names=("n1",),
            values=rng.uniform(0.0, 10.0, size=(1, parent.n_genes)),
        )
        child = apply_delta(parent, delta)
        update = update_index(RWaveIndex(parent, GAMMA), child, delta)
        assert update.reused_models == 0
        _assert_indexes_identical(update.index, child)

    def test_foreign_parent_rejected(self):
        parent = bimodal_matrix(6, 8, seed=16)
        foreign = bimodal_matrix(6, 8, seed=17)
        delta = AppendGenes(names=("x",), values=np.full((1, 8), 5.0))
        child = apply_delta(parent, delta)
        with pytest.raises(ValueError, match="lineage"):
            update_index(RWaveIndex(foreign, GAMMA), child, delta)
