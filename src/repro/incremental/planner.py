"""Mapping a matrix delta to the mining shards it can influence.

Sharded mining (``repro.service.executor``) runs one shard per chain
*start* condition: shard ``s`` enumerates every cluster whose condition
chain begins at ``s``.  The planner's job is to prove, per shard, that a
delta cannot have changed that shard's output, so a revision job reuses
the parent job's result for it verbatim.

**Soundness argument.**  Let ``any_up[x, y] = exists g: v[g, x] -
v[g, y] > gamma_g`` over a gene set, and draw a successor edge
``a -> b`` whenever ``any_up[b, a]`` — this over-approximates every
chain extension the miner can ever take, for any parameters: a chain
pair must be regulated for *every* member gene, hence for *some* gene.
Let ``R(s)`` be the conditions reachable from ``s`` over the **union**
of the parent's and the child's edges (so it bounds both searches at
once).  Shard ``s`` is **clean** when:

1. ``R(s)`` contains no appended condition — no new condition can
   enter shard ``s``'s candidate frontier (an appended condition in the
   frontier *is* an edge into it, which would put it in ``R(s)``); and
2. no *dirty gene* — appended, dropped, or threshold-changed — has any
   regulation bit within ``R(s) x R(s)`` in either the parent or the
   child relation.

Under (1) every chain of shard ``s`` lies in the old conditions with
bit-identical pairs for threshold-unchanged genes, and under (2) the
dirty genes are invisible to every membership test the shard can make
(both positive and negative membership reduce to an up-bit between two
chain conditions, and ``min_conditions >= 2`` guarantees every member
is witnessed by at least one such pair).  The search trees — candidate
frontiers, member counts, prunes — therefore coincide node for node,
and the shard's clusters are identical.  Everything else is **dirty**
and is re-mined.  The equivalence suite
(``tests/incremental/test_planner.py`` and the service-level stitched
tests) asserts reused-plus-mined equals a from-scratch mine exactly.

The planner derives its relations directly from the two matrices'
values (chunked over genes) rather than from any cached kernel, so a
plan never depends on artifact-cache state.
"""

# Kept for perfbench/layers.py, which times a plan; no job plans or stitches.

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.regulation import gene_thresholds
from repro.incremental.delta import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixDelta,
)
from repro.matrix.expression import ExpressionMatrix

__all__ = ["DirtyShardPlanner", "RevisionPlan"]

#: Reason codes attached to dirty shards (``RevisionPlan.reasons``).
REASON_APPENDED_START = "appended-condition-start"
REASON_REACHES_APPENDED = "reaches-appended-condition"
REASON_DIRTY_GENE = "dirty-gene-bits-in-reach"


@dataclass(frozen=True)
class RevisionPlan:
    """Which child shards a delta dirties, and why.

    ``clean_shards`` are child shard starts whose parent result can be
    stitched in verbatim; condition ids never shift across a delta, so
    a clean child shard ``s`` always reuses parent shard ``s``.
    """

    kind: str
    n_shards: int
    dirty_shards: Tuple[int, ...]
    clean_shards: Tuple[int, ...]
    #: child-matrix gene names considered dirty (appended or
    #: threshold-changed); dropped genes appear under their parent name
    dirty_genes: Tuple[str, ...]
    #: dirty shard start -> reason code
    reasons: Dict[int, str]

    def __post_init__(self) -> None:
        if set(self.dirty_shards) & set(self.clean_shards):
            raise ValueError("a shard cannot be both dirty and clean")
        if len(self.dirty_shards) + len(self.clean_shards) != self.n_shards:
            raise ValueError(
                "dirty + clean shards must cover the universe: "
                f"{len(self.dirty_shards)} + {len(self.clean_shards)} != "
                f"{self.n_shards}"
            )

    @property
    def is_full_reuse(self) -> bool:
        return not self.dirty_shards

    @property
    def is_full_rebuild(self) -> bool:
        return not self.clean_shards

    def reuse_fraction(self) -> float:
        """Fraction of shards stitched from the parent (0 when empty)."""
        if not self.n_shards:
            return 0.0
        return len(self.clean_shards) / self.n_shards

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "dirty_shards": list(self.dirty_shards),
            "clean_shards": list(self.clean_shards),
            "dirty_genes": list(self.dirty_genes),
            "reasons": {str(k): v for k, v in self.reasons.items()},
        }


def _any_up_into(
    out: NDArray[np.bool_],
    values: NDArray[np.float64],
    thresholds: NDArray[np.float64],
    chunk: int,
) -> None:
    """OR the gene set's pairwise relation into ``out[:C, :C]``."""
    n_genes, n_conditions = values.shape
    # One-time planning pass, chunked to bound memory.
    for start in range(0, n_genes, chunk):  # reglint: disable=RL106
        stop = min(start + chunk, n_genes)
        block = values[start:stop]
        diff = block[:, :, None] - block[:, None, :]
        hits = diff > thresholds[start:stop, None, None]
        out[:n_conditions, :n_conditions] |= hits.any(axis=0)


def _reachability(any_up: NDArray[np.bool_]) -> NDArray[np.bool_]:
    """``reach[s, c]``: ``c`` reachable from ``s`` in >= 0 successor hops.

    A successor edge ``a -> b`` exists iff ``any_up[b, a]``.  Closure by
    repeated boolean matrix squaring — ``O(C^3 log C)`` with tiny
    constants, and ``C`` is the condition count (tens, not thousands).
    """
    n = any_up.shape[0]
    reach = any_up.T | np.eye(n, dtype=bool)
    while True:
        step = reach.astype(np.uint8)
        grown = reach | ((step @ step) > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


class DirtyShardPlanner:
    """Plan which shards a revision job must re-mine.

    Parameters
    ----------
    gene_chunk:
        Gene-axis chunk bounding the dense ``(chunk, C, C)`` difference
        tensors built while deriving the condition graphs.
    """

    def __init__(self, *, gene_chunk: int = 256) -> None:
        if gene_chunk < 1:
            raise ValueError(f"gene_chunk must be >= 1, got {gene_chunk}")
        self.gene_chunk = int(gene_chunk)

    # ------------------------------------------------------------------
    # Per-kind dirty-gene discovery
    # ------------------------------------------------------------------

    def _dirty_rows(
        self,
        parent_matrix: ExpressionMatrix,
        child_matrix: ExpressionMatrix,
        delta: MatrixDelta,
        gamma: float,
    ) -> Tuple[
        Tuple[str, ...],
        Optional[NDArray[np.intp]],
        Optional[NDArray[np.intp]],
    ]:
        """Dirty gene names plus their row indices in parent and child.

        Either index array may be ``None`` when the dirty genes do not
        exist on that side (appended genes have no parent rows, dropped
        genes no child rows).
        """
        if isinstance(delta, AppendConditions):
            old = gene_thresholds(parent_matrix, gamma)
            new = gene_thresholds(child_matrix, gamma)
            # Exact float comparison on purpose: reuse demands the
            # *identical* threshold, not an approximately equal one.
            rows = np.flatnonzero(old != new).astype(np.intp)
            names = tuple(parent_matrix.gene_names[int(i)] for i in rows)
            return names, rows, rows
        if isinstance(delta, AppendGenes):
            n_old = parent_matrix.n_genes
            rows = np.arange(n_old, child_matrix.n_genes, dtype=np.intp)
            return tuple(delta.names), None, rows
        if isinstance(delta, DropGenes):
            dropped = set(delta.genes)
            rows = np.asarray(
                [
                    i
                    for i, name in enumerate(parent_matrix.gene_names)
                    if name in dropped
                ],
                dtype=np.intp,
            )
            return tuple(delta.genes), rows, None
        raise TypeError(f"unknown delta type {type(delta).__name__}")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(
        self,
        parent_matrix: ExpressionMatrix,
        child_matrix: ExpressionMatrix,
        delta: MatrixDelta,
        gamma: float,
    ) -> RevisionPlan:
        """Classify every child shard as clean (reusable) or dirty."""
        n_old = parent_matrix.n_conditions
        n_new = child_matrix.n_conditions
        parent_thr = gene_thresholds(parent_matrix, gamma)
        child_thr = gene_thresholds(child_matrix, gamma)

        # Union condition graph over all genes of both revisions,
        # expressed in child condition ids (parent ids are a prefix).
        union = np.zeros((n_new, n_new), dtype=bool)
        _any_up_into(union, parent_matrix.values, parent_thr, self.gene_chunk)
        _any_up_into(union, child_matrix.values, child_thr, self.gene_chunk)
        reach = _reachability(union)

        # Bits contributed by dirty genes, on either side of the delta.
        names, parent_rows, child_rows = self._dirty_rows(
            parent_matrix, child_matrix, delta, gamma
        )
        dirty_bits = np.zeros((n_new, n_new), dtype=bool)
        if parent_rows is not None and parent_rows.size:
            _any_up_into(
                dirty_bits,
                parent_matrix.values[parent_rows],
                parent_thr[parent_rows],
                self.gene_chunk,
            )
        if child_rows is not None and child_rows.size:
            _any_up_into(
                dirty_bits,
                child_matrix.values[child_rows],
                child_thr[child_rows],
                self.gene_chunk,
            )

        dirty: "list[int]" = []
        clean: "list[int]" = []
        reasons: Dict[int, str] = {}
        # One classification pass over the (small) condition universe.
        for shard in range(n_new):  # reglint: disable=RL106
            if shard >= n_old:
                dirty.append(shard)
                reasons[shard] = REASON_APPENDED_START
                continue
            scope = reach[shard]
            if n_new > n_old and bool(scope[n_old:].any()):
                dirty.append(shard)
                reasons[shard] = REASON_REACHES_APPENDED
                continue
            ids = np.flatnonzero(scope)
            if bool(dirty_bits[np.ix_(ids, ids)].any()):
                dirty.append(shard)
                reasons[shard] = REASON_DIRTY_GENE
                continue
            clean.append(shard)
        return RevisionPlan(
            kind=delta.kind,
            n_shards=n_new,
            dirty_shards=tuple(dirty),
            clean_shards=tuple(clean),
            dirty_genes=names,
            reasons=reasons,
        )
