"""Incremental maintenance of the RWave^gamma index and the kernel.

Both artifacts are per-gene structures over float comparisons, which
makes delta updates exact rather than approximate:

* **Kernel** (:class:`~repro.core.kernels.RegulationKernel`): the
  packed tensor holds one independent ``(C, ceil(C/8))`` plane per
  gene, so ``append_genes`` packs only the new planes and
  ``drop_genes`` slices planes out — reused bytes are the parent's
  bytes verbatim.  ``append_conditions`` keeps every old-pair bit of
  genes whose Eq. 4 threshold is unchanged (the appended values sit
  inside the gene's existing ``[min, max]``) and computes only the new
  border rows/columns; genes whose threshold moved are repacked cold.
  Every computed bit runs the same ``v[a] - v[b] > gamma_g`` float
  comparison on the same ``float64`` operands as a cold
  :meth:`~repro.core.kernels.RegulationKernel._pack`, so the updated
  tensor is *byte-identical* to a cold build — asserted by the
  equivalence suite in ``tests/incremental/test_update.py``.

* **Index** (:class:`~repro.core.rwave.RWaveIndex`): a gene's
  threshold and table rows (sorted order, pointer bounds, max-chain
  lengths) depend only on its own row, so ``append_genes`` stacks the
  parent's rows on top of rows computed for the new genes only, and
  ``drop_genes`` slices out the survivors' rows into fresh arrays (the
  parent index, which may be shared through the artifact cache, is
  never mutated).  ``append_conditions`` changes every row, so the
  index is rebuilt cold.  That rebuild is a vectorized ``O(G C^2)``
  comparison pass like a cold kernel pack, and unlike the kernel it
  reuses nothing from the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.core.rwave import ChainTables, RWaveIndex, chain_tables
from repro.incremental.delta import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixDelta,
)
from repro.matrix.expression import ExpressionMatrix

__all__ = ["IndexUpdate", "KernelUpdate", "update_index", "update_kernel"]

#: Gene-axis chunk bounding the dense intermediates of the
#: append-conditions repack (same role as the kernel's own pack chunk).
_UPDATE_CHUNK = 512


@dataclass(frozen=True)
class KernelUpdate:
    """A delta-updated kernel plus its reuse accounting."""

    kernel: RegulationKernel
    #: gene planes whose parent bytes (or old-pair bits) were reused
    reused_planes: int
    #: gene planes packed from scratch (new genes / changed thresholds)
    rebuilt_planes: int


@dataclass(frozen=True)
class IndexUpdate:
    """A delta-updated index plus its reuse accounting."""

    index: RWaveIndex
    #: gene rows (threshold and tables) carried over from the parent index
    reused_models: int
    #: gene rows computed fresh
    rebuilt_models: int


def _kept_gene_indices(
    parent_matrix: ExpressionMatrix, delta: DropGenes
) -> NDArray[np.intp]:
    dropped = set(delta.genes)
    kept = [
        i
        for i, name in enumerate(parent_matrix.gene_names)
        if name not in dropped
    ]
    return np.asarray(kept, dtype=np.intp)


def _check_pair(
    parent_matrix: ExpressionMatrix,
    child_matrix: ExpressionMatrix,
    delta: MatrixDelta,
) -> None:
    """Sanity-check that the child plausibly is parent + delta."""
    if isinstance(delta, AppendConditions):
        expected = (
            parent_matrix.n_genes,
            parent_matrix.n_conditions + len(delta.names),
        )
    elif isinstance(delta, AppendGenes):
        expected = (
            parent_matrix.n_genes + len(delta.names),
            parent_matrix.n_conditions,
        )
    elif isinstance(delta, DropGenes):
        expected = (
            parent_matrix.n_genes - len(delta.genes),
            parent_matrix.n_conditions,
        )
    else:
        raise TypeError(f"unknown delta type {type(delta).__name__}")
    if child_matrix.shape != expected:
        raise ValueError(
            f"child matrix shape {child_matrix.shape} does not match "
            f"parent {parent_matrix.shape} + {delta.kind} delta "
            f"(expected {expected})"
        )


def _append_conditions_packed(
    parent_packed: NDArray[np.uint8],
    child_values: NDArray[np.float64],
    old_thresholds: NDArray[np.float64],
    new_thresholds: NDArray[np.float64],
    n_old: int,
) -> Tuple[NDArray[np.uint8], int, int]:
    """Repack for appended conditions, reusing unchanged-gene old bits."""
    n_genes, n_new = child_values.shape
    width = (n_new + 7) // 8
    packed = np.empty((n_genes, n_new, width), dtype=np.uint8)
    # Exact float equality on purpose: a reused bit must have been
    # computed against the *identical* threshold, or its gene is rebuilt.
    changed = old_thresholds != new_thresholds
    reused = int(n_genes - int(changed.sum()))
    # One-time repack, chunked to bound memory, not a search-time loop.
    for start in range(0, n_genes, _UPDATE_CHUNK):  # reglint: disable=RL106
        stop = min(start + _UPDATE_CHUNK, n_genes)
        block = np.ascontiguousarray(child_values[start:stop])
        thr = new_thresholds[start:stop]
        flip = changed[start:stop]
        up = np.empty((stop - start, n_new, n_new), dtype=bool)
        if bool(flip.any()):
            # Threshold moved: every pair of this gene needs the new
            # cutoff — full rebuild, same expression as the cold pack.
            hot = block[flip]
            diff = hot[:, :, None] - hot[:, None, :]
            up[flip] = diff > thr[flip][:, None, None]
        keep = ~flip
        if bool(keep.any()):
            cold = block[keep]
            limit = thr[keep][:, None, None]
            sub = np.empty((int(keep.sum()), n_new, n_new), dtype=bool)
            sub[:, :n_old, :n_old] = np.unpackbits(
                parent_packed[start:stop][keep], axis=2, count=n_old
            ).astype(bool)
            # Border pairs involving at least one appended condition:
            # same float operands and operand order as the cold pack's
            # full difference tensor, so the bits agree bit-for-bit.
            sub[:, :, n_old:] = (
                cold[:, :, None] - cold[:, None, n_old:]
            ) > limit
            sub[:, n_old:, :n_old] = (
                cold[:, n_old:, None] - cold[:, None, :n_old]
            ) > limit
            up[keep] = sub
        packed[start:stop] = np.packbits(up, axis=2)
    return packed, reused, n_genes - reused


def update_kernel(
    parent_kernel: RegulationKernel,
    parent_matrix: ExpressionMatrix,
    child_matrix: ExpressionMatrix,
    delta: MatrixDelta,
    *,
    gamma: float,
) -> KernelUpdate:
    """Delta-update a parent kernel to its child matrix.

    ``parent_kernel`` must be the Eq. 3/4 kernel of ``parent_matrix``
    at ``gamma``; the returned kernel is byte-identical to
    ``RegulationKernel(child_matrix.values,
    gene_thresholds(child_matrix, gamma))`` built cold.
    """
    if parent_kernel.shape != parent_matrix.shape:
        raise ValueError(
            f"parent kernel shape {parent_kernel.shape} does not match "
            f"parent matrix shape {parent_matrix.shape}"
        )
    _check_pair(parent_matrix, child_matrix, delta)
    child_thresholds = gene_thresholds(child_matrix, gamma)
    if isinstance(delta, AppendGenes):
        n_old = parent_matrix.n_genes
        new_planes = RegulationKernel.pack_planes(
            child_matrix.values[n_old:], child_thresholds[n_old:]
        )
        packed = np.concatenate([parent_kernel.packed, new_planes], axis=0)
        kernel = RegulationKernel.from_packed(
            packed, n_conditions=child_matrix.n_conditions
        )
        return KernelUpdate(
            kernel=kernel,
            reused_planes=n_old,
            rebuilt_planes=len(delta.names),
        )
    if isinstance(delta, DropGenes):
        kept = _kept_gene_indices(parent_matrix, delta)
        packed = np.ascontiguousarray(parent_kernel.packed[kept])
        kernel = RegulationKernel.from_packed(
            packed, n_conditions=child_matrix.n_conditions
        )
        return KernelUpdate(
            kernel=kernel, reused_planes=int(kept.shape[0]), rebuilt_planes=0
        )
    # AppendConditions (``_check_pair`` already rejected unknown kinds).
    parent_thresholds = gene_thresholds(parent_matrix, gamma)
    packed, reused, rebuilt = _append_conditions_packed(
        parent_kernel.packed,
        child_matrix.values,
        parent_thresholds,
        child_thresholds,
        parent_matrix.n_conditions,
    )
    kernel = RegulationKernel.from_packed(
        packed, n_conditions=child_matrix.n_conditions
    )
    return KernelUpdate(
        kernel=kernel, reused_planes=reused, rebuilt_planes=rebuilt
    )


def update_index(
    parent_index: RWaveIndex,
    child_matrix: ExpressionMatrix,
    delta: MatrixDelta,
) -> IndexUpdate:
    """Delta-update a parent index to its child matrix (same gamma).

    The returned index carries no kernel — pair it with
    :func:`update_kernel` (or a cold build) via ``attach_kernel``.
    """
    parent_matrix = parent_index.matrix
    _check_pair(parent_matrix, child_matrix, delta)
    gamma = parent_index.gamma
    if isinstance(delta, AppendConditions):
        # Every gene row gained values: all sort orders and chain tables
        # may change, so the index is rebuilt cold.
        index = RWaveIndex(child_matrix, gamma)
        return IndexUpdate(
            index=index,
            reused_models=0,
            rebuilt_models=child_matrix.n_genes,
        )
    child_thresholds = gene_thresholds(child_matrix, gamma)
    if isinstance(delta, AppendGenes):
        n_old = parent_matrix.n_genes
        if not np.array_equal(
            parent_index.thresholds, child_thresholds[:n_old]
        ):
            raise ValueError(
                "parent index thresholds disagree with the child matrix; "
                "the parent index does not belong to this lineage"
            )
        new_rows = chain_tables(
            child_matrix.values[n_old:], child_thresholds[n_old:]
        )
        index = RWaveIndex.from_parts(
            child_matrix,
            gamma,
            thresholds=child_thresholds,
            tables=ChainTables(
                *(
                    np.vstack([parent_rows, rows])
                    for parent_rows, rows in zip(
                        parent_index.tables, new_rows
                    )
                )
            ),
        )
        return IndexUpdate(
            index=index,
            reused_models=n_old,
            rebuilt_models=len(delta.names),
        )
    # DropGenes (``_check_pair`` already rejected unknown kinds).
    kept = _kept_gene_indices(parent_matrix, delta)
    if not np.array_equal(
        parent_index.thresholds[kept], child_thresholds
    ):
        raise ValueError(
            "parent index thresholds disagree with the child matrix; "
            "the parent index does not belong to this lineage"
        )
    # Fancy indexing copies the survivors' rows: the parent index is
    # never mutated.
    index = RWaveIndex.from_parts(
        child_matrix,
        gamma,
        thresholds=child_thresholds,
        tables=ChainTables(*(table[kept] for table in parent_index.tables)),
    )
    return IndexUpdate(
        index=index, reused_models=int(kept.shape[0]), rebuilt_models=0
    )
