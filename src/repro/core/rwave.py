"""The RWave^gamma model (paper Definition 3.1 and Lemma 3.1).

For one gene, the model is the list of conditions sorted in non-descending
order of expression value, decorated with *regulation pointers*.  A pointer
from tail position ``a`` to head position ``b`` (``a < b``) records a
*bordering* regulated condition-pair: every condition at position ``<= a``
differs from every condition at position ``>= b`` by more than the gene's
regulation threshold, and no other pointer is embedded inside it.  Instead
of the O(n^2) pairwise regulation table, the model stores O(n) pointers
from which Lemma 3.1 recovers every regulation predecessor / successor
with a single binary search.

Construction scans the sorted conditions once: each condition's *closest*
regulation predecessor spawns a candidate pointer, inserted only when no
existing pointer is embedded in it.  Because closest-predecessor positions
are non-decreasing along the scan, the embedding test reduces to comparing
against the last inserted tail.

The model additionally precomputes, for every position, the length of the
longest regulation chain that can *start* there (climbing up) or *end*
there (equivalently: the longest descending chain starting there).  These
tables implement the paper's MinC pruning (strategy 2).

:class:`RWaveIndex` holds the sorted order, the pointer lookups and the
max-chain tables of every gene of a matrix.  It computes them for all
genes in one call (:func:`chain_tables`: the compiled library of
:mod:`repro.core._runs`, in O(#cond log #cond) a gene, or one
vectorized numpy pass without a compiler) instead of building one model
object per gene, and builds a gene's :class:`RWaveModel` only when
asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.analysis.contracts import maybe_check_rwave_index
from repro.core._runs import native_tables
from repro.core.kernels import RegulationKernel
from repro.core.regulation import gene_thresholds
from repro.matrix.expression import ExpressionMatrix

__all__ = [
    "RegulationPointer",
    "RWaveModel",
    "RWaveIndex",
    "build_rwave",
    "ChainTables",
    "chain_tables",
    "table_dtype",
]


@dataclass(frozen=True)
class RegulationPointer:
    """A bordering regulation pointer between two *positions* in the order.

    ``tail`` and ``head`` are positions (not condition ids); every
    condition at position ``<= tail`` is a regulation predecessor of every
    condition at position ``>= head``.
    """

    tail: int
    head: int

    def __post_init__(self) -> None:
        if self.tail >= self.head:
            raise ValueError(
                f"pointer tail {self.tail} must precede head {self.head}"
            )


class RWaveModel:
    """RWave^gamma model of a single gene.

    Parameters
    ----------
    row:
        The gene's expression profile (one value per condition).
    threshold:
        The gene's regulation threshold ``gamma_i`` (Eq. 4).
    gene:
        Optional gene index carried along for diagnostics.
    """

    def __init__(
        self,
        row: ArrayLike,
        threshold: float,
        *,
        gene: Optional[int] = None,
    ) -> None:
        profile = np.asarray(row, dtype=np.float64)
        if profile.ndim != 1:
            raise ValueError("an RWave model is built from a single profile")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.gene = gene
        self.threshold = float(threshold)
        n = profile.shape[0]
        #: condition ids sorted in non-descending order of expression value
        self.order: NDArray[np.intp] = np.argsort(profile, kind="stable")
        #: expression values in sorted order
        self.sorted_values: NDArray[np.float64] = profile[self.order]
        #: position of each condition id in :attr:`order`
        self.position: NDArray[np.intp] = np.empty(n, dtype=np.intp)
        self.position[self.order] = np.arange(n, dtype=np.intp)
        self.pointers: Tuple[RegulationPointer, ...] = tuple(
            self._build_pointers()
        )
        self._tails = np.asarray([p.tail for p in self.pointers], dtype=np.intp)
        self._heads = np.asarray([p.head for p in self.pointers], dtype=np.intp)
        self.max_chain_up, self.max_chain_down = self._chain_tables()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_pointers(self) -> List[RegulationPointer]:
        values = self.sorted_values
        n = values.shape[0]
        pointers: List[RegulationPointer] = []
        last_tail = -1
        for pos in range(n):
            # Closest regulation predecessor: the largest position q with
            # values[pos] - values[q] > threshold (strict, Eq. 3).  The
            # binary search uses the algebraically equivalent cutoff
            # values[q] < values[pos] - threshold, whose float rounding
            # can disagree with Eq. 3 in the last ulp — so the candidate
            # is re-checked with the exact predicate and walked left
            # until it satisfies it.
            cutoff = values[pos] - self.threshold
            q = int(np.searchsorted(values, cutoff, side="left")) - 1
            while (
                q + 1 < pos
                and values[pos] - values[q + 1] > self.threshold
            ):
                q += 1
            while q >= 0 and not values[pos] - values[q] > self.threshold:
                q -= 1
            if q < 0:
                continue
            if q == last_tail:
                # An existing pointer with the same tail and an earlier
                # head is embedded in (q, pos): skip (Definition 3.1 (2)).
                continue
            pointers.append(RegulationPointer(tail=q, head=pos))
            last_tail = q
        return pointers

    def _chain_tables(self) -> Tuple[NDArray[np.intp], NDArray[np.intp]]:
        """Longest up-chain / down-chain length from every position.

        ``max_chain_up[p]`` is the maximum number of conditions in a
        regulation chain starting at position ``p`` and climbing towards
        higher expression values (including ``p`` itself);
        ``max_chain_down[p]`` is the same for descending chains.  Both are
        computed greedily — always hop to the nearest reachable position —
        which is optimal because the tables are monotone in position.
        """
        n = self.order.shape[0]
        up = np.ones(n, dtype=np.intp)
        down = np.ones(n, dtype=np.intp)
        tails, heads = self._tails, self._heads
        if len(tails):
            # Up: nearest pointer whose tail is at-or-after p; hop to head.
            for pos in range(n - 1, -1, -1):
                k = int(np.searchsorted(tails, pos, side="left"))
                if k < len(tails):
                    up[pos] = 1 + up[heads[k]]
            # Down: nearest pointer whose head is at-or-before p; hop to tail.
            for pos in range(n):
                k = int(np.searchsorted(heads, pos, side="right")) - 1
                if k >= 0:
                    down[pos] = 1 + down[tails[k]]
        return up, down

    # ------------------------------------------------------------------
    # Lemma 3.1 queries
    # ------------------------------------------------------------------

    @property
    def n_conditions(self) -> int:
        return self.order.shape[0]

    def predecessor_bound(self, condition: int) -> int:
        """Largest position whose conditions all precede ``condition``.

        Returns ``-1`` when the condition has no regulation predecessor.
        Lemma 3.1: follow the nearest pointer *before* the condition; every
        position up to that pointer's tail is a predecessor.
        """
        pos = int(self.position[condition])
        k = int(np.searchsorted(self._heads, pos, side="right")) - 1
        return int(self._tails[k]) if k >= 0 else -1

    def successor_bound(self, condition: int) -> int:
        """Smallest position whose conditions all succeed ``condition``.

        Returns ``n_conditions`` when the condition has no regulation
        successor.
        """
        pos = int(self.position[condition])
        k = int(np.searchsorted(self._tails, pos, side="left"))
        return int(self._heads[k]) if k < len(self._tails) else self.n_conditions

    def regulation_predecessors(self, condition: int) -> NDArray[np.intp]:
        """All regulation predecessors of ``condition`` (condition ids).

        The ids are returned in model order (non-descending expression).
        """
        bound = self.predecessor_bound(condition)
        return self.order[: bound + 1].copy()

    def regulation_successors(self, condition: int) -> NDArray[np.intp]:
        """All regulation successors of ``condition`` (condition ids)."""
        bound = self.successor_bound(condition)
        return self.order[bound:].copy()

    def is_up_regulated(self, cond_hi: int, cond_lo: int) -> bool:
        """``Reg(i, cond_hi, cond_lo) == Up`` — direct Eq. 3 check."""
        pos_hi = int(self.position[cond_hi])
        pos_lo = int(self.position[cond_lo])
        diff = float(self.sorted_values[pos_hi] - self.sorted_values[pos_lo])
        return diff > self.threshold

    def max_up_from(self, condition: int) -> int:
        """Longest regulation chain starting at ``condition`` going up."""
        return int(self.max_chain_up[self.position[condition]])

    def max_down_from(self, condition: int) -> int:
        """Longest regulation chain starting at ``condition`` going down."""
        return int(self.max_chain_down[self.position[condition]])

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def render(self, condition_names: Optional[Sequence[str]] = None) -> str:
        """ASCII rendering in the style of the paper's Figure 3.

        Conditions appear left-to-right in non-descending value order and
        each pointer is drawn underneath as ``tail --> head``.
        """
        if condition_names is None:
            names = [f"c{j + 1}" for j in range(self.n_conditions)]
        else:
            names = list(condition_names)
        cells = [names[j] for j in self.order]
        widths = [max(len(c), 5) for c in cells]
        header = "  ".join(c.center(w) for c, w in zip(cells, widths))
        values = "  ".join(
            f"{v:.4g}".center(w) for v, w in zip(self.sorted_values, widths)
        )
        lines = [header, values]
        starts = np.concatenate(([0], np.cumsum(np.asarray(widths) + 2)))
        for pointer in self.pointers:
            left = int(starts[pointer.tail] + widths[pointer.tail] // 2)
            right = int(starts[pointer.head] + widths[pointer.head] // 2)
            arrow = [" "] * (starts[-1])
            arrow[left] = "^"
            for k in range(left + 1, right):
                arrow[k] = "-"
            arrow[right - 1] = ">" if right - 1 > left else arrow[right - 1]
            lines.append("".join(arrow).rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = f"g{self.gene + 1}" if self.gene is not None else "?"
        return (
            f"RWaveModel(gene={label}, threshold={self.threshold:.4g}, "
            f"pointers={len(self.pointers)})"
        )


def build_rwave(
    matrix: ExpressionMatrix, gene: "int | str", gamma: float
) -> RWaveModel:
    """Build one gene's RWave^gamma model from a matrix (Eq. 4 threshold)."""
    i = matrix.gene_index(gene)
    threshold = float(gene_thresholds(matrix, gamma)[i])
    return RWaveModel(matrix.values[i], threshold, gene=i)


#: Gene-axis chunk of the columnar index build, bounding the dense
#: ``(chunk, C, C)`` comparison tensor as the kernel's ``_PACK_CHUNK`` does.
_INDEX_CHUNK = 512


def table_dtype(n_conditions: int) -> np.dtype:
    """Narrowest signed integer dtype holding ``-1`` and ``n_conditions``.

    Every index table entry is a position, a condition id, a chain
    length or a sentinel in ``[-1, C]``: ``int8`` up to 127 conditions.
    """
    return np.min_scalar_type(-(n_conditions + 1))


class ChainTables(NamedTuple):
    """The columnar RWave^gamma tables of a block of genes.

    Every table is shaped ``(n_genes, n_conditions)`` in
    :func:`table_dtype`; all but ``order`` are indexed by condition id.
    Row ``g`` holds what ``RWaveModel(values[g], thresholds[g])`` holds.
    """

    #: ``order[g, h]``: the condition at sorted position ``h``
    order: NDArray[np.signedinteger]
    #: ``position[g, c]``: the sorted position of condition ``c``
    position: NDArray[np.signedinteger]
    #: closest regulation successor position of ``c``, ``C`` if none
    #: (:meth:`RWaveModel.successor_bound`)
    successor_bound: NDArray[np.signedinteger]
    #: closest regulation predecessor position of ``c``, ``-1`` if none
    #: (:meth:`RWaveModel.predecessor_bound`)
    predecessor_bound: NDArray[np.signedinteger]
    #: longest regulation chain starting at ``c`` climbing up
    max_up: NDArray[np.signedinteger]
    #: longest regulation chain starting at ``c`` going down
    max_down: NDArray[np.signedinteger]


def chain_tables(values: ArrayLike, thresholds: ArrayLike) -> ChainTables:
    """The RWave^gamma tables of every row.

    Row ``g`` of each table equals ``RWaveModel(values[g],
    thresholds[g])``: its ``order`` and ``position``, its Lemma 3.1
    bounds ``successor_bound(c)`` / ``predecessor_bound(c)`` and its
    ``max_chain_up`` / ``max_chain_down`` scattered back to condition
    ids.  The per-gene model hops to the nearest pointer; that pointer's
    far end is the position's *closest* regulation successor (going up)
    or predecessor (going down), so the max-chain tables need only those
    two positions.  Over a row's sorted values ``s`` the exact Eq. 3
    predicate ``s[h] - s[q] > gamma_g`` holds on a prefix of ``q`` and a
    suffix of ``h`` (float subtraction is monotone).

    The compiled library (:func:`repro.core._runs.native_tables`) builds
    finite rows in O(#cond log #cond) a gene: a stable sort (ties in
    condition-id order, as numpy's stable argsort), two pointers walking
    that predicate, the longest-chain recurrences and the scatter back
    to condition ids.  Without a compiler, or for rows with non-finite
    values, :func:`_numpy_chain_tables` builds the same tables.
    """
    data = np.asarray(values, dtype=np.float64)
    per_gene = np.asarray(thresholds, dtype=np.float64)
    if np.isfinite(data).all():
        tables = native_tables(data, per_gene, table_dtype(data.shape[1]))
        if tables is not None:
            return ChainTables(*tables)
    return _numpy_chain_tables(data, per_gene)


def _numpy_chain_tables(
    values: ArrayLike, thresholds: ArrayLike
) -> ChainTables:
    """:func:`chain_tables` in one vectorized numpy pass (the fallback
    and the test oracle of the compiled build).

    Both closest positions are counts over one ``(C, C)`` comparison
    plane per gene; the longest chains take one vectorized step per
    condition.
    """
    data = np.asarray(values, dtype=np.float64)
    per_gene = np.asarray(thresholds, dtype=np.float64)
    n_genes, n_conditions = data.shape
    dtype = table_dtype(n_conditions)
    order = np.argsort(data, axis=1, kind="stable")
    sorted_values = np.take_along_axis(data, order, axis=1)
    # closest_pred[g, h]: largest position q with s[h] - s[q] > gamma_g
    # (-1 if none); closest_succ[g, q]: smallest such h (C if none).
    closest_pred = np.empty((n_genes, n_conditions), dtype=dtype)
    closest_succ = np.empty((n_genes, n_conditions), dtype=dtype)
    # One-time build, chunked to bound memory, not a search-time loop.
    for start in range(0, n_genes, _INDEX_CHUNK):  # reglint: disable=RL106
        stop = min(start + _INDEX_CHUNK, n_genes)
        block = sorted_values[start:stop]
        # Same operands, same order, as RWaveModel's Eq. 3 check.
        regulated = (
            block[:, :, None] - block[:, None, :]
            > per_gene[start:stop, None, None]
        )
        closest_pred[start:stop] = regulated.sum(axis=2) - 1
        closest_succ[start:stop] = n_conditions - regulated.sum(axis=1)
    # Longest chains by position, one vectorized step per condition.
    # Sentinel columns (0 past the top for up, 0 before the bottom for
    # down) end a chain that has no further hop.
    genes = np.arange(n_genes)
    up = np.zeros((n_genes, n_conditions + 1), dtype=dtype)
    down = np.zeros((n_genes, n_conditions + 1), dtype=dtype)
    for pos in range(n_conditions - 1, -1, -1):
        up[:, pos] = 1 + up[genes, closest_succ[:, pos]]
    for pos in range(n_conditions):
        down[:, pos + 1] = 1 + down[genes, closest_pred[:, pos] + 1]

    # Flat cell of each (gene, position) entry's condition, shared by
    # the scatters back to condition ids.
    cells = (order + (genes * n_conditions)[:, None]).ravel()

    def by_condition(by_position: ArrayLike) -> NDArray[np.signedinteger]:
        table = np.empty(n_genes * n_conditions, dtype=dtype)
        table[cells] = np.broadcast_to(by_position, order.shape).ravel()
        return table.reshape(n_genes, n_conditions)

    return ChainTables(
        order=order.astype(dtype),
        position=by_condition(np.arange(n_conditions)),
        successor_bound=by_condition(closest_succ),
        predecessor_bound=by_condition(closest_pred),
        max_up=by_condition(up[:, :-1]),
        max_down=by_condition(down[:, 1:]),
    )


class RWaveIndex:
    """Miner-facing RWave^gamma tables of every gene.

    The index holds the per-gene thresholds and the :class:`ChainTables`
    of every gene, each an attribute shaped ``(n_genes, n_conditions)``:

    ``order`` / ``position``
        each gene's conditions in non-descending value order, and its
        inverse;
    ``successor_bound`` / ``predecessor_bound``
        the Lemma 3.1 pointer lookups by condition id: the regulation
        successors of ``c`` in gene ``g`` are the conditions at sorted
        positions ``successor_bound[g, c]`` and beyond, its
        predecessors those at ``predecessor_bound[g, c]`` and before;
    ``max_up`` / ``max_down``
        longest regulation chain starting at condition ``c``, climbing
        up or going down (the MinC pruning tables).

    They are built for every gene at once by :func:`chain_tables`, so
    the miner enumerates chain extensions as runs of sorted positions
    instead of re-deriving Eq. 3.  The index keeps only these arrays
    (plus the matrix and the lazy kernel); :meth:`model` builds a gene's
    full :class:`RWaveModel` — pointers, Lemma 3.1 queries, Figure 3
    rendering — on demand.
    """

    order: NDArray[np.signedinteger]
    position: NDArray[np.signedinteger]
    successor_bound: NDArray[np.signedinteger]
    predecessor_bound: NDArray[np.signedinteger]
    max_up: NDArray[np.signedinteger]
    max_down: NDArray[np.signedinteger]

    def __init__(
        self,
        matrix: ExpressionMatrix,
        gamma: float,
        *,
        thresholds: Optional[ArrayLike] = None,
    ) -> None:
        if thresholds is None:
            thresholds = gene_thresholds(matrix, gamma)
        self._assign(matrix, gamma, thresholds)
        self._set_tables(chain_tables(matrix.values, self.thresholds))
        # Debug-mode Lemma 3.1 invariant checks (repro.analysis.contracts):
        # a no-op unless contracts are enabled for the process.
        maybe_check_rwave_index(self)

    @classmethod
    def from_parts(
        cls,
        matrix: ExpressionMatrix,
        gamma: float,
        *,
        thresholds: ArrayLike,
        tables: ChainTables,
    ) -> "RWaveIndex":
        """Assemble an index from prebuilt tables.

        The delta-update seam (:mod:`repro.incremental.update`): a
        revision that appends or drops genes leaves the surviving
        genes' rows — and therefore their table rows — untouched, so an
        updated index splices or slices them instead of re-sorting
        every gene.  The caller guarantees the parts belong to
        ``(matrix, gamma)``; the same debug-mode Lemma 3.1 contract hook
        as the cold constructor re-checks them when contracts are
        enabled.
        """
        index = cls.__new__(cls)
        index._assign(matrix, gamma, thresholds)
        index._set_tables(tables)
        maybe_check_rwave_index(index)
        return index

    def _assign(
        self, matrix: ExpressionMatrix, gamma: float, thresholds: ArrayLike
    ) -> None:
        """Set the matrix, gamma and validated thresholds; no kernel yet."""
        per_gene = np.asarray(thresholds, dtype=np.float64)
        if per_gene.shape != (matrix.n_genes,):
            raise ValueError(
                f"thresholds must have shape ({matrix.n_genes},), got "
                f"{per_gene.shape}"
            )
        if np.any(per_gene < 0):
            raise ValueError("thresholds must be non-negative")
        self.matrix = matrix
        self.gamma = float(gamma)
        self.thresholds: NDArray[np.float64] = per_gene
        self._kernel: Optional[RegulationKernel] = None

    def _set_tables(self, tables: ChainTables) -> None:
        """Install the tables as attributes, in the matrix's table dtype."""
        shape = (self.matrix.n_genes, self.matrix.n_conditions)
        dtype = table_dtype(self.matrix.n_conditions)
        for name, table in zip(ChainTables._fields, tables):
            array = np.asarray(table, dtype=dtype)
            if array.shape != shape:
                raise ValueError(
                    f"{name} table must have shape {shape}, got "
                    f"{array.shape}"
                )
            setattr(self, name, array)

    @property
    def tables(self) -> ChainTables:
        """The index's tables, e.g. to splice into a delta update."""
        return ChainTables(
            *(getattr(self, name) for name in ChainTables._fields)
        )

    def model(self, gene: "int | str") -> RWaveModel:
        """The RWave model of one gene, built from its row and threshold."""
        i = self.matrix.gene_index(gene)
        return RWaveModel(
            self.matrix.values[i], float(self.thresholds[i]), gene=i
        )

    @property
    def kernel(self) -> RegulationKernel:
        """The packed regulation-pair kernel of this index, built lazily.

        The kernel is derived from the same values and thresholds as the
        models, so its bits agree with :meth:`RWaveModel.is_up_regulated`
        everywhere.  The miner never reads it; the service caches it as
        an artifact and ships it to fleet nodes.  Built on first access;
        :meth:`attach_kernel` installs a prebuilt one (e.g. from the
        service artifact cache).
        """
        if self._kernel is None:
            self._kernel = RegulationKernel(
                self.matrix.values, self.thresholds
            )
        return self._kernel

    @property
    def has_kernel(self) -> bool:
        """Whether the kernel has already been built (or attached)."""
        return self._kernel is not None

    def attach_kernel(self, kernel: RegulationKernel) -> None:
        """Install a prebuilt kernel (must match this index's shape)."""
        if kernel.shape != self.matrix.shape:
            raise ValueError(
                f"kernel shape {kernel.shape} does not match matrix "
                f"shape {self.matrix.shape}"
            )
        self._kernel = kernel

    def __len__(self) -> int:
        return self.matrix.n_genes

    def __getstate__(self) -> "dict[str, object]":
        """Pickle without the kernel: it is cached as its own artifact
        (see :mod:`repro.service.cache`) and rebuilt lazily elsewhere."""
        state = dict(self.__dict__)
        state["_kernel"] = None
        return state

    def __setstate__(self, state: "dict[str, object]") -> None:
        self.__dict__.update(state)
        # Indexes pickled before the kernel attribute existed.
        self.__dict__.setdefault("_kernel", None)
        # Indexes pickled while every gene's model was kept: the tables
        # below already hold all the miner reads, so the models go.
        self.__dict__.pop("models", None)
        # Indexes pickled before the index kept the sorted order and
        # the pointer bounds (their max-chain tables were intp): rebuild
        # every table, so a loaded index equals a cold one.
        if "successor_bound" not in self.__dict__:
            self._set_tables(chain_tables(self.matrix.values, self.thresholds))
