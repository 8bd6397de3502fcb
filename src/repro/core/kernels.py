"""Precomputed regulation-pair kernels (the Eq. 3 relation, materialized).

A :class:`RegulationKernel` materializes the whole ternary Eq. 3
relation of a ``(matrix, thresholds)`` pair as the boolean tensor::

    up[g, a, b]  =  values[g, a] - values[g, b] > gamma_g

bit-packed along the ``b`` axis with :func:`numpy.packbits`, so the full
relation costs ~``G * C^2 / 8`` bytes (a 5000 x 40 matrix packs into one
megabyte).  Two projections read it back as dense ``(G, C)`` booleans:

``up_slice(last)``
    ``up[:, :, last]`` — regulation *successor* test against a fixed
    last condition.  Extracting one bit position from the packed axis
    touches ``G * C`` bytes, no full unpack.
``down_slice(last)``
    ``up[:, last, :]`` — regulation *predecessor* test — one
    :func:`numpy.unpackbits` over ``G * C / 8`` packed bytes.

The miner does not read the kernel: it enumerates chain extensions from
the RWave^gamma sorted order and pointer bounds of
:class:`repro.core.rwave.RWaveIndex`.  The kernel remains a service
artifact — cached per ``(matrix, gamma)``, shipped to fleet nodes and
delta-updated across revisions (:mod:`repro.incremental.update`).

The comparisons here are executed on exactly the same float operands as
the direct Eq. 3 evaluation, so the packed bits agree with
:meth:`repro.core.rwave.RWaveModel.is_up_regulated` everywhere —
``tests/core/test_kernels.py`` asserts this against brute force.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["RegulationKernel"]

#: Gene-axis chunk used while packing, bounding the peak size of the
#: temporary dense ``(chunk, C, C)`` difference tensor.
_PACK_CHUNK = 512


class RegulationKernel:
    """Bit-packed pairwise regulation relation of every gene.

    Parameters
    ----------
    values:
        Expression matrix, shape ``(n_genes, n_conditions)``.
    thresholds:
        Per-gene regulation thresholds ``gamma_g`` (Eq. 4), shape
        ``(n_genes,)``, all non-negative.
    """

    def __init__(self, values: ArrayLike, thresholds: ArrayLike) -> None:
        data = np.ascontiguousarray(values, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(
                f"values must be a 2-D matrix, got shape {data.shape}"
            )
        per_gene = np.asarray(thresholds, dtype=np.float64)
        if per_gene.shape != (data.shape[0],):
            raise ValueError(
                f"thresholds must have shape ({data.shape[0]},), got "
                f"{per_gene.shape}"
            )
        if np.any(per_gene < 0):
            raise ValueError("thresholds must be non-negative")
        self.n_genes, self.n_conditions = data.shape
        self._packed = self._pack(data, per_gene)

    @classmethod
    def from_packed(
        cls,
        packed: NDArray[np.uint8],
        *,
        n_conditions: int,
    ) -> "RegulationKernel":
        """Wrap an already-packed relation tensor into a kernel.

        The delta-update seam (:mod:`repro.incremental.update`): a
        revision job reuses the unchanged planes of its parent's kernel
        and packs only the new/changed ones, then assembles the result
        here without re-deriving any bit.  The caller guarantees the
        bits correspond to Eq. 3 over some ``(values, thresholds)``
        pair — the incremental equivalence suite proves the assembled
        tensor byte-identical to a cold :meth:`_pack` build.
        """
        if n_conditions < 0:
            raise ValueError(
                f"n_conditions must be >= 0, got {n_conditions}"
            )
        tensor = np.ascontiguousarray(packed, dtype=np.uint8)
        expected_width = (n_conditions + 7) // 8
        if (
            tensor.ndim != 3
            or tensor.shape[1] != n_conditions
            or tensor.shape[2] != expected_width
        ):
            raise ValueError(
                f"packed tensor must have shape (G, {n_conditions}, "
                f"{expected_width}), got {tensor.shape}"
            )
        kernel = cls.__new__(cls)
        kernel.n_genes = int(tensor.shape[0])
        kernel.n_conditions = int(n_conditions)
        kernel._packed = tensor
        return kernel

    @classmethod
    def pack_planes(
        cls, values: ArrayLike, thresholds: ArrayLike
    ) -> NDArray[np.uint8]:
        """Pack the Eq. 3 relation of the given gene rows (no kernel).

        Public wrapper over :meth:`_pack` for incremental updates that
        build the planes of *new* genes only and splice them next to
        reused parent planes (:func:`repro.incremental.update
        .update_kernel`).
        """
        data = np.ascontiguousarray(values, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(
                f"values must be a 2-D matrix, got shape {data.shape}"
            )
        per_gene = np.asarray(thresholds, dtype=np.float64)
        if per_gene.shape != (data.shape[0],):
            raise ValueError(
                f"thresholds must have shape ({data.shape[0]},), got "
                f"{per_gene.shape}"
            )
        if np.any(per_gene < 0):
            raise ValueError("thresholds must be non-negative")
        return cls._pack(data, per_gene)

    @property
    def packed(self) -> NDArray[np.uint8]:
        """The packed relation tensor ``(G, C, ceil(C/8))`` (read-only).

        Shared with the kernel — callers must not mutate it.  Exposed
        for delta-updates that reuse unchanged planes verbatim.
        """
        return self._packed

    @staticmethod
    def _pack(
        values: NDArray[np.float64], thresholds: NDArray[np.float64]
    ) -> NDArray[np.uint8]:
        """Build ``packbits(up, axis=2)`` in gene chunks.

        Chunking bounds the dense intermediate at
        ``_PACK_CHUNK * C * C`` floats regardless of gene count.
        """
        n_genes, n_conditions = values.shape
        packed_width = (n_conditions + 7) // 8
        packed = np.empty(
            (n_genes, n_conditions, packed_width), dtype=np.uint8
        )
        # One-time pack, chunked to bound memory, not a search-time loop.
        for start in range(0, n_genes, _PACK_CHUNK):  # reglint: disable=RL106
            stop = min(start + _PACK_CHUNK, n_genes)
            block = values[start:stop]
            # Same operands, same order, as the direct Eq. 3 check — the
            # packed bits are bitwise-identical to the float comparison.
            diff = block[:, :, None] - block[:, None, :]
            up = diff > thresholds[start:stop, None, None]
            packed[start:stop] = np.packbits(up, axis=2)
        return packed

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------

    def _check_condition(self, condition: int) -> int:
        if not 0 <= condition < self.n_conditions:
            raise IndexError(
                f"condition {condition} out of range for a kernel over "
                f"{self.n_conditions} conditions"
            )
        return int(condition)

    def up_slice(self, last: int) -> NDArray[np.bool_]:
        """``(G, C)`` boolean: ``[g, a]`` iff ``Reg(g, a, last) == Up``.

        Row ``g``, column ``a`` is true when condition ``a`` up-regulates
        gene ``g`` relative to ``last`` (Eq. 3).
        """
        last = self._check_condition(last)
        byte = self._packed[:, :, last >> 3]
        return ((byte >> (7 - (last & 7))) & 1).astype(np.bool_)

    def down_slice(self, last: int) -> NDArray[np.bool_]:
        """``(G, C)`` boolean: ``[g, b]`` iff ``Reg(g, last, b) == Up``.

        Row ``g``, column ``b`` is true when ``last`` up-regulates gene
        ``g`` relative to condition ``b`` — i.e. ``b`` is a regulation
        predecessor of ``last``.
        """
        last = self._check_condition(last)
        bits = np.unpackbits(
            self._packed[:, last, :], axis=1, count=self.n_conditions
        )
        return bits.astype(np.bool_)

    def is_up_regulated(self, gene: int, cond_hi: int, cond_lo: int) -> bool:
        """Point query ``Reg(gene, cond_hi, cond_lo) == Up`` (Eq. 3)."""
        cond_hi = self._check_condition(cond_hi)
        cond_lo = self._check_condition(cond_lo)
        byte = int(self._packed[gene, cond_hi, cond_lo >> 3])
        return bool((byte >> (7 - (cond_lo & 7))) & 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self.n_genes, self.n_conditions

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed tensor."""
        return int(self._packed.nbytes)

    def __repr__(self) -> str:
        return (
            f"RegulationKernel(shape={self.n_genes}x{self.n_conditions}, "
            f"packed={self.nbytes} bytes)"
        )

    # ------------------------------------------------------------------
    # Pickling (artifact cache / spawned workers)
    # ------------------------------------------------------------------

    def __setstate__(self, state: "dict[str, object]") -> None:
        # Kernels pickled while they kept an LRU of dense slices carry
        # its (always emptied) caches and size; the slices are gone.
        for name in ("slice_cache", "_up_cache", "_down_cache"):
            state.pop(name, None)
        self.__dict__.update(state)
