"""The reg-cluster mining algorithm (paper Figure 5).

The miner performs a bi-directional depth-first enumeration of
*representative regulation chains* over the per-gene RWave^gamma models.
A search node carries the chain enumerated so far (``C.Y``), the genes
complying with it (p-members, ``C.pX``) and the genes complying with its
inversion (n-members, ``C.nX``).  Extending a node appends one candidate
condition, re-splits the members, scores every surviving gene with the
step's H value (Eq. 7) and branches on each maximal coherent gene window.

Pruning strategies (numbers follow the paper):

1. **MinG** — members only shrink along a branch, so a node with fewer
   than ``MinG`` members is abandoned.
2. **MinC reachability** — a gene whose longest remaining chain (from the
   RWave max-chain tables) cannot reach ``MinC`` is dropped.
3. **Redundancy** — (a) a node whose p-members fall below ``MinG / 2``
   can never yield a representative chain (the inverted orientation will);
   (b) a node that re-derives an already-emitted cluster roots a
   redundant subtree.
4. **Coherence** — a step with no coherent gene window of ``MinG`` genes
   ends the branch.

Prunings 1-3 are lossless (toggling them changes runtime, never output —
the ablation benchmark verifies this); pruning 4 *is* the coherence
constraint of the model and cannot be disabled.

Hot-path layout
---------------
Chain extensions are enumerated from the RWave^gamma index
(:class:`repro.core.rwave.RWaveIndex`): for a member gene the conditions
that extend its chain (Eq. 3) and can still reach ``MinC`` (pruning 2)
form one contiguous run of its sorted conditions, bounded by one pointer
lookup (Lemma 3.1) and one reach limit per gene.  A small C kernel
(``_runs.c``, built on first use and bound with :mod:`ctypes` by
:mod:`repro.core._runs`) makes two passes per node: one walks every
member's run and counts each condition's p-member support; after the
Python support filter, the other emits the viable (candidate, member)
pairs and, from depth 2, scores each with Eq. 7 from the member's own
row, drops non-finite scores and applies the coherence bucket
prefilter.  The few surviving pairs go through one (candidate, score,
gene) lexsort and one segmented window scan in numpy; the many nodes
where none survive skip both.  Gene-membership splits go through one reusable boolean scratch
mask over the full gene axis.  ``use_kernel=False`` selects the legacy
per-candidate path, which re-derives Eq. 3 from raw values at every
node and keeps a per-branch Eq. 7 baseline ``d_c2 - d_c1`` — kept both
as the equivalence oracle (the two are proven bit-identical in
``tests/core/test_miner_kernel_equivalence.py`` and
``tests/core/test_miner_differential.py``) and as the measured baseline
of ``BENCH_baseline.json``; it is also the path taken, with a
``RuntimeWarning``, where no C compiler can build the kernel.  Each
search phase (candidate generation / window partition / emit) is timed
into :class:`PhaseTimers`, surfaced by ``reg-cluster mine --stats``, the
service job records and the benchmark-regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

from repro.core._runs import RunPass, run_kernel
from repro.core.chain import is_representative
from repro.core.cluster import RegCluster
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.core.trace import SearchTrace
from repro.core.window import coherent_gene_windows, segmented_maximal_windows
from repro.matrix.expression import ExpressionMatrix
from repro.obs.trace import Tracer

__all__ = [
    "PruningConfig",
    "PhaseTimers",
    "SearchStatistics",
    "MiningResult",
    "MiningCancelled",
    "MiningTimeout",
    "ProgressCallback",
    "RegClusterMiner",
    "mine_reg_clusters",
]

#: Observer invoked as ``callback(event, nodes_expanded)``; ``event`` uses
#: the :class:`repro.core.trace.SearchTrace` taxonomy ("expanded",
#: "emitted", ...).
ProgressCallback = Callable[[str, int], None]


class MiningCancelled(RuntimeError):
    """Raised by :meth:`RegClusterMiner.mine` when ``should_stop`` fires.

    Cooperative cancellation: the check runs once per expanded search
    node, so a long-running search stops within one node expansion of the
    stop signal.  The partial clusters found so far are attached as
    :attr:`partial_clusters` for diagnostics.
    """

    def __init__(
        self, message: str, partial_clusters: Optional[List[RegCluster]] = None
    ) -> None:
        super().__init__(message)
        self.partial_clusters: List[RegCluster] = (
            partial_clusters if partial_clusters is not None else []
        )


class MiningTimeout(MiningCancelled):
    """A cancellation triggered by a wall-clock deadline, not a caller.

    Raised by deadline-aware drivers (``repro.service.executor``) when a
    per-job timeout fires the cooperative ``should_stop`` probe.  A
    subclass of :class:`MiningCancelled` so cancellation plumbing (and
    the attached :attr:`~MiningCancelled.partial_clusters`) is shared,
    while callers that must treat timeouts differently — the service
    marks them ``failed``, not ``cancelled`` — can catch it first.
    """


@dataclass(frozen=True)
class PruningConfig:
    """Which lossless prunings the search applies (ablation knobs).

    All default to on.  Pruning 4 (coherence windows) is part of the
    cluster definition and therefore has no switch.
    """

    min_genes: bool = True  #: pruning (1)
    reachability: bool = True  #: pruning (2)
    p_majority: bool = True  #: pruning (3a)
    redundancy: bool = True  #: pruning (3b)

    @classmethod
    def none(cls) -> "PruningConfig":
        """All lossless prunings off (slowest, same output)."""
        return cls(False, False, False, False)


@dataclass
class PhaseTimers:
    """Wall-clock seconds spent in each search phase.

    Kept separate from the integer counters of
    :class:`SearchStatistics` so result payloads (which must be
    bit-identical across equivalent runs) can carry the counters without
    the non-deterministic timings.
    """

    candidates: float = 0.0  #: candidate generation (step 4-5 of Fig. 5)
    windows: float = 0.0  #: Eq. 7 scoring + coherent window partition
    emit: float = 0.0  #: representativeness / redundancy check + emit

    def as_dict(self) -> Dict[str, float]:
        return {
            "candidates": self.candidates,
            "windows": self.windows,
            "emit": self.emit,
        }

    def prefixed(self) -> Dict[str, float]:
        """The timers under ``time_``-prefixed keys (shard transport)."""
        return {f"time_{key}": value for key, value in self.as_dict().items()}

    def add(self, other: "PhaseTimers") -> None:
        """Accumulate another run's timers into this one."""
        self.candidates += other.candidates
        self.windows += other.windows
        self.emit += other.emit


@dataclass
class SearchStatistics:
    """Counters describing one mining run (the ablation benches' payload)."""

    nodes_expanded: int = 0
    candidates_examined: int = 0
    pruned_min_genes: int = 0
    pruned_p_majority: int = 0
    pruned_redundant: int = 0
    genes_pruned_reachability: int = 0
    coherence_rejections: int = 0
    clusters_emitted: int = 0
    max_depth: int = 0
    #: genes whose Eq. 7 score came out non-finite (degenerate baseline
    #: ``d_c2 - d_c1``) and were dropped before the window partition.
    degenerate_genes_dropped: int = 0
    #: per-phase wall-clock timings (not part of :meth:`as_dict`).
    timers: PhaseTimers = field(default_factory=PhaseTimers)

    def as_dict(self) -> Dict[str, int]:
        return {
            "nodes_expanded": self.nodes_expanded,
            "candidates_examined": self.candidates_examined,
            "pruned_min_genes": self.pruned_min_genes,
            "pruned_p_majority": self.pruned_p_majority,
            "pruned_redundant": self.pruned_redundant,
            "genes_pruned_reachability": self.genes_pruned_reachability,
            "coherence_rejections": self.coherence_rejections,
            "clusters_emitted": self.clusters_emitted,
            "max_depth": self.max_depth,
            "degenerate_genes_dropped": self.degenerate_genes_dropped,
        }


@dataclass
class MiningResult:
    """Clusters plus the statistics of the search that produced them."""

    clusters: List[RegCluster]
    statistics: SearchStatistics
    parameters: MiningParameters

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[RegCluster]:
        return iter(self.clusters)

    def __getitem__(self, index: int) -> RegCluster:
        return self.clusters[index]


class _SearchLimitReached(Exception):
    """Internal signal: max_clusters emitted, unwind the recursion."""


#: Histogram resolution of the coherence prefilter the run kernel applies
#: for :meth:`RegClusterMiner._extend_batched`.  Scores beyond
#: ``min + _BUCKET_CAP * epsilon`` share the top bucket — merging buckets
#: only relaxes the bound, so clipping never drops a viable candidate.
#: Kept small: the histograms are rebuilt at every search node, and a
#: coarse top bucket merely lets a few extra candidates through to the
#: exact scan.
_BUCKET_CAP = 255


class RegClusterMiner:
    """Mines every validated reg-cluster of a matrix (Definition 3.2).

    Parameters
    ----------
    matrix:
        The expression data.
    params:
        MinG / MinC / gamma / epsilon bundle.
    prunings:
        Lossless-pruning switches, defaults to all on.
    use_kernel:
        Take the fast path (default): enumerate chain extensions as
        runs of the RWave^gamma index's sorted conditions and walk and
        score each node's runs in the native run kernel.  ``False``
        re-derives Eq. 3 from raw values per candidate — the legacy
        path, kept as the measured baseline and equivalence oracle;
        both paths emit bit-identical results.  Without a C compiler
        the fast path is unavailable and the legacy one runs (see
        :attr:`uses_kernel`).  (The name predates the run enumeration;
        neither path reads the index's regulation kernel.)

    Examples
    --------
    >>> from repro.datasets import load_running_example
    >>> from repro.core import MiningParameters
    >>> miner = RegClusterMiner(
    ...     load_running_example(),
    ...     MiningParameters(min_genes=3, min_conditions=5,
    ...                      gamma=0.15, epsilon=0.1),
    ... )
    >>> result = miner.mine()
    >>> [c + 1 for c in result.clusters[0].chain]
    [7, 9, 5, 1, 3]
    """

    def __init__(
        self,
        matrix: ExpressionMatrix,
        params: MiningParameters,
        *,
        prunings: Optional[PruningConfig] = None,
        thresholds: Optional[NDArray[np.float64]] = None,
        tracer: Optional[SearchTrace] = None,
        index: Optional[RWaveIndex] = None,
        progress_callback: Optional[ProgressCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        use_kernel: bool = True,
        span_tracer: Optional[Tracer] = None,
    ) -> None:
        self.matrix = matrix
        self.params = params
        self.prunings = prunings if prunings is not None else PruningConfig()
        #: optional search observer reconstructing the Figure 6 tree
        self.tracer = tracer
        #: optional :mod:`repro.obs` tracer wrapping each :meth:`mine`
        #: call in one span (never per-node; ``None`` adds a single
        #: ``is None`` check per call).  Distinct from ``tracer``, the
        #: Figure 6 search-tree observer.
        self.span_tracer = span_tracer
        #: optional per-node observer ``(event, nodes_expanded)``; ``None``
        #: (the default) adds zero overhead to the search.
        self.progress_callback = progress_callback
        #: optional cooperative cancellation probe, polled once per
        #: expanded node; ``None`` (the default) adds zero overhead.
        self.should_stop = should_stop
        if params.min_conditions > matrix.n_conditions:
            raise ValueError(
                f"min_conditions={params.min_conditions} exceeds the "
                f"matrix's {matrix.n_conditions} conditions"
            )
        if index is not None:
            # A prebuilt index (e.g. from repro.service.cache) skips the
            # most expensive part of construction; it must describe the
            # same data at the same gamma.
            if index.gamma != params.gamma:
                raise ValueError(
                    f"prebuilt index was built at gamma={index.gamma}, "
                    f"parameters ask for gamma={params.gamma}"
                )
            if index.matrix is not matrix and index.matrix != matrix:
                raise ValueError(
                    "prebuilt index describes a different expression matrix"
                )
            if thresholds is not None and not np.array_equal(
                np.asarray(thresholds, dtype=np.float64), index.thresholds
            ):
                raise ValueError(
                    "prebuilt index thresholds disagree with the "
                    "explicitly supplied thresholds"
                )
            self.index = index
        else:
            # `thresholds` overrides the Eq. 4 default, supporting the
            # alternative strategies of repro.core.thresholds.
            self.index = RWaveIndex(matrix, params.gamma, thresholds=thresholds)
        self._values = matrix.values
        self._thresholds = self.index.thresholds
        #: the fast path's binding of the native run kernel; ``None`` on
        #: the legacy path, also taken when the kernel cannot be built.
        self._runs: Optional[RunPass] = None
        kernel = run_kernel(self.index.order.dtype) if use_kernel else None
        if kernel is not None:
            self._runs = RunPass(
                kernel,
                (
                    self.index.order,
                    self.index.successor_bound,
                    self.index.predecessor_bound,
                ),
                matrix.values,
                _BUCKET_CAP,
            )
        #: reusable boolean scratch over the full gene axis — membership
        #: splits and distinct-gene counts without per-node allocation.
        self._scratch: NDArray[np.bool_] = np.zeros(
            matrix.n_genes, dtype=np.bool_
        )
        #: the legacy path's Eq. 7 denominator d_c2 - d_c1 for every
        #: gene, refreshed at each depth-2 branch root (valid for the
        #: whole subtree); the kernel computes it from each member's row.
        self._baseline: NDArray[np.float64] = np.zeros(
            matrix.n_genes, dtype=np.float64
        )
        #: pruning (2) keyed by the remaining chain length, built once
        #: per distinct ``need``: run limits ``(up_end, down_start)`` per
        #: gene on the fast path, ``max_up/max_down >= need`` masks on
        #: the legacy one.
        self._reach_cache: Dict[int, Tuple[NDArray, NDArray]] = {}

    @property
    def uses_kernel(self) -> bool:
        """Whether the search takes the fast path.

        ``False`` on the legacy per-candidate oracle path: asked for with
        ``use_kernel=False``, or taken because the native run kernel
        could not be built (no C compiler; warned once per process).
        """
        return self._runs is not None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def mine(
        self, *, start_conditions: Optional[Sequence[int]] = None
    ) -> MiningResult:
        """Run the depth-first search and return every reg-cluster.

        Parameters
        ----------
        start_conditions:
            Restrict the top-level enumeration to these first conditions
            (the chain prefixes of Fig. 5).  ``None`` enumerates every
            condition — the full single-process search.  This is the
            sharding seam used by :mod:`repro.service.executor`: chains
            starting from different conditions are disjoint, so mining
            each start separately and concatenating in start order
            reproduces the full search exactly.

        Raises
        ------
        MiningCancelled
            If the ``should_stop`` probe returns true mid-search.
        """
        if self.span_tracer is None:
            return self._run_search(start_conditions)
        with self.span_tracer.span(
            "miner.mine",
            attributes={
                "n_genes": self.matrix.n_genes,
                "n_conditions": self.matrix.n_conditions,
                "n_starts": (
                    self.matrix.n_conditions
                    if start_conditions is None else len(start_conditions)
                ),
            },
        ) as span:
            result = self._run_search(start_conditions)
            span.set_attributes(
                {
                    "nodes_expanded": result.statistics.nodes_expanded,
                    "clusters_emitted": result.statistics.clusters_emitted,
                }
            )
            span.set_attributes(result.statistics.timers.prefixed())
            return result

    def _run_search(
        self, start_conditions: Optional[Sequence[int]]
    ) -> MiningResult:
        self._stats = SearchStatistics()
        self._emitted: Set[Tuple[Tuple[int, ...], FrozenSet[int]]] = set()
        self._clusters: List[RegCluster] = []

        if start_conditions is None:
            starts: Sequence[int] = range(self.matrix.n_conditions)
        else:
            starts = [int(s) for s in start_conditions]
            for start in starts:
                if not 0 <= start < self.matrix.n_conditions:
                    raise ValueError(
                        f"start condition {start} out of range for a matrix "
                        f"with {self.matrix.n_conditions} conditions"
                    )

        all_genes = np.arange(self.matrix.n_genes, dtype=np.intp)
        min_c = self.params.min_conditions
        try:
            # Degenerate Eq. 7 baselines divide to inf/NaN (a subnormal
            # baseline can also overflow the quotient); those scores are
            # dropped (and counted) explicitly, so the warnings are
            # silenced once here instead of per extension step.
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                for start in starts:
                    if self.prunings.reachability:
                        p_mask = self.index.max_up[:, start] >= min_c
                        n_mask = self.index.max_down[:, start] >= min_c
                        self._stats.genes_pruned_reachability += int(
                            (~p_mask).sum() + (~n_mask).sum()
                        )
                        p_members = all_genes[p_mask]
                        n_members = all_genes[n_mask]
                    else:
                        p_members = all_genes
                        n_members = all_genes
                    self._expand((start,), p_members, n_members)
        except _SearchLimitReached:
            pass
        return MiningResult(
            clusters=list(self._clusters),
            statistics=self._stats,
            parameters=self.params,
        )

    # ------------------------------------------------------------------
    # Depth-first search (subroutine MineC^2 of Figure 5)
    # ------------------------------------------------------------------

    def _distinct_members(
        self,
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
    ) -> int:
        """Distinct genes across both orientations (depth-1 totals).

        A mask-OR popcount over the reusable gene scratch — replaces the
        ``np.union1d`` (sort + allocate) the root nodes used to pay.
        """
        scratch = self._scratch
        scratch[p_members] = True
        scratch[n_members] = True
        total = int(np.count_nonzero(scratch))
        scratch[p_members] = False
        scratch[n_members] = False
        return total

    def _expand(
        self,
        chain: Tuple[int, ...],
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
    ) -> None:
        stats = self._stats
        timers = stats.timers
        params = self.params
        depth = len(chain)
        stats.nodes_expanded += 1
        stats.max_depth = max(stats.max_depth, depth)
        if self.should_stop is not None and self.should_stop():
            raise MiningCancelled(
                f"search cancelled after {stats.nodes_expanded} nodes",
                partial_clusters=list(self._clusters),
            )
        if self.progress_callback is not None:
            self.progress_callback("expanded", stats.nodes_expanded)

        if depth >= 2:
            total = p_members.shape[0] + n_members.shape[0]
        else:
            # Orientation is undetermined for a single condition; the
            # member sets may overlap, count distinct genes.
            total = self._distinct_members(p_members, n_members)

        # Pruning (1): members only shrink along a branch.
        if total < params.min_genes:
            if self.prunings.min_genes:
                stats.pruned_min_genes += 1
                if self.tracer is not None and depth:
                    self.tracer.record(chain, "pruned_min_genes")
                return
        # Pruning (3a): p-members below MinG/2 can never be a majority in
        # any valid descendant.
        if self.prunings.p_majority and 2 * p_members.shape[0] < params.min_genes:
            stats.pruned_p_majority += 1
            if self.tracer is not None and depth:
                self.tracer.record(chain, "pruned_p_majority")
            return
        if self.tracer is not None and depth:
            self.tracer.record(chain, "expanded")

        # Emit (step 3 of Figure 5).
        if (
            depth >= params.min_conditions
            and total >= params.min_genes
            and is_representative(chain, p_members.shape[0], n_members.shape[0])
        ):
            emit_started = perf_counter()
            key = (chain, frozenset(map(int, np.concatenate((p_members, n_members)))))
            if key in self._emitted:
                if self.prunings.redundancy:
                    stats.pruned_redundant += 1
                    if self.tracer is not None:
                        self.tracer.record(chain, "pruned_redundant")
                    timers.emit += perf_counter() - emit_started
                    return
                timers.emit += perf_counter() - emit_started
            else:
                self._emitted.add(key)
                if self.tracer is not None:
                    self.tracer.record(chain, "emitted")
                self._clusters.append(
                    RegCluster(
                        chain=chain,
                        p_members=tuple(map(int, p_members)),
                        n_members=tuple(map(int, n_members)),
                    )
                )
                stats.clusters_emitted += 1
                timers.emit += perf_counter() - emit_started
                if self.progress_callback is not None:
                    self.progress_callback("emitted", stats.nodes_expanded)
                if (
                    params.max_clusters is not None
                    and stats.clusters_emitted >= params.max_clusters
                ):
                    raise _SearchLimitReached

        if depth >= self.matrix.n_conditions:
            return

        if self._runs is not None:
            self._extend_runs(self._runs, chain, p_members, n_members)
            return

        if depth == 2:
            # Eq. 7 baseline d_c2 - d_c1 for the whole branch: every
            # descendant of this node shares (c1, c2), so the per-gene
            # denominators are computed once here and gathered per step.
            np.subtract(
                self._values[:, chain[1]],
                self._values[:, chain[0]],
                out=self._baseline,
            )

        phase_started = perf_counter()
        candidates = list(self._candidates(chain, p_members, n_members))
        timers.candidates += perf_counter() - phase_started

        for candidate, child_p, child_n in candidates:
            stats.candidates_examined += 1
            extended = chain + (candidate,)
            if len(extended) == 2:
                # The new pair *is* the baseline: every member scores
                # H = 1, so there is exactly one (trivially coherent)
                # window.
                if child_p.shape[0] + child_n.shape[0] > 0:
                    self._expand(extended, child_p, child_n)
                continue

            phase_started = perf_counter()
            genes = np.concatenate((child_p, child_n))
            if genes.shape[0] == 0:
                timers.windows += perf_counter() - phase_started
                continue
            scores = self._step_scores(genes, chain, candidate)
            finite = np.isfinite(scores)
            if not finite.all():
                # Degenerate baseline (possible only for genes that never
                # complied with the chain's first step — defensive: valid
                # members always have |d_c2 - d_c1| > gamma_g >= 0).
                stats.degenerate_genes_dropped += int(
                    genes.shape[0] - np.count_nonzero(finite)
                )
                genes = genes[finite]
                scores = scores[finite]
            windows = coherent_gene_windows(
                genes, scores, params.epsilon, params.min_genes
            )
            if not windows:
                stats.coherence_rejections += 1
                timers.windows += perf_counter() - phase_started
                if self.tracer is not None:
                    self.tracer.record(extended, "pruned_coherence")
                continue
            # Orientation split: one pass over the reusable scratch mask
            # instead of an O(|window| log |child_p|) np.isin per window.
            scratch = self._scratch
            scratch[child_p] = True
            picks = [scratch[window] for window in windows]
            scratch[child_p] = False
            timers.windows += perf_counter() - phase_started
            for window, in_p in zip(windows, picks):
                self._expand(extended, window[in_p], window[~in_p])

    # ------------------------------------------------------------------
    # Candidate generation (step 4-5 of Figure 5)
    # ------------------------------------------------------------------

    def _candidate_matrix(
        self,
        chain: Tuple[int, ...],
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
    ) -> Tuple[
        NDArray[np.intp], NDArray[np.bool_], NDArray[np.bool_]
    ]:
        """Viable extensions of a chain as ``(cands, up_ok, down_ok)``.

        ``cands`` lists the candidate conditions in ascending order;
        ``up_ok[i, j]`` marks the i-th p-member complying with the j-th
        candidate, ``down_ok`` likewise for n-members.  Candidates are
        gathered by scanning the regulation successors of the chain's
        last condition for the p-members and its predecessors for the
        n-members (prunings 2 and 3a make scanning n-members for support
        unnecessary).  The Eq. 3 tests are derived from raw values: this
        is the legacy path's dense oracle for the runs that
        :meth:`_extend_runs` walks.
        """
        params = self.params
        last = chain[-1]
        depth = len(chain)
        need = params.min_conditions - depth  # chain still to grow, incl. cand

        p_idx = p_members
        n_idx = n_members
        values = self._values
        thresholds = self._thresholds
        up_ok = (
            values[p_idx] - values[p_idx, last][:, None]
            > thresholds[p_idx][:, None]
        )
        down_ok = (
            values[n_idx, last][:, None] - values[n_idx]
            > thresholds[n_idx][:, None]
        )
        if self.prunings.reachability and need > 1:
            reach = self._reach_cache.get(need)
            if reach is None:
                reach = (
                    self.index.max_up >= need,
                    self.index.max_down >= need,
                )
                self._reach_cache[need] = reach
            up_ok &= reach[0][p_idx]
            down_ok &= reach[1][n_idx]

        support = up_ok.sum(axis=0)
        support[list(chain)] = 0
        cands = np.flatnonzero(self._viable(chain, support)).astype(
            np.intp, copy=False
        )
        return cands, up_ok[:, cands], down_ok[:, cands]

    def _viable(
        self, chain: Tuple[int, ...], support: NDArray[np.intp]
    ) -> NDArray[np.bool_]:
        """Conditions with enough p-member support to extend ``chain``.

        ``support`` counts, per condition, the p-members it extends;
        pruning 3a asks for ``MinG / 2`` of them, else one.
        """
        min_support = (
            self.params.min_p_members if self.prunings.p_majority else 1
        )
        if self.tracer is not None:
            # Surface the silently-filtered candidate edges so the
            # rendered tree matches Figure 6's annotated prunings.
            in_chain = np.zeros(self.matrix.n_conditions, dtype=bool)
            in_chain[list(chain)] = True
            for condition in np.flatnonzero(
                (support < min_support) & ~in_chain
            ):
                event = (
                    "pruned_reachability"
                    if support[condition] == 0
                    else "pruned_p_majority"
                )
                self.tracer.record(chain + (int(condition),), event)
        return support >= min_support

    def _candidates(
        self,
        chain: Tuple[int, ...],
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
    ) -> Iterator[Tuple[int, NDArray[np.intp], NDArray[np.intp]]]:
        """Yield ``(condition, child_p, child_n)`` extensions of a chain."""
        cands, up_sel, down_sel = self._candidate_matrix(
            chain, p_members, n_members
        )
        for position, condition in enumerate(cands):
            yield (
                int(condition),
                p_members[up_sel[:, position]],
                n_members[down_sel[:, position]],
            )

    def _reach_runs(
        self, need: int
    ) -> Tuple[NDArray[np.intp], NDArray[np.intp]]:
        """Pruning (2) as per-gene limits on sorted positions.

        ``max_up`` never increases along a gene's sorted conditions: a
        chain that climbs from one value can climb from any lower value
        instead (float subtraction is monotone).  So ``max_up >= need``
        holds on a prefix ``[0, up_end[g])`` of the sorted positions,
        and likewise ``max_down >= need`` on a suffix ``[down_start[g],
        C)``.  ``need <= 1`` (or pruning 2 off) keeps every position.
        """
        if not self.prunings.reachability or need < 1:
            need = 1
        runs = self._reach_cache.get(need)
        if runs is None:
            up_end = np.count_nonzero(self.index.max_up >= need, axis=1)
            down_start = self.matrix.n_conditions - np.count_nonzero(
                self.index.max_down >= need, axis=1
            )
            runs = (up_end, down_start)
            self._reach_cache[need] = runs
        return runs

    def _extend_runs(
        self,
        runs: RunPass,
        chain: Tuple[int, ...],
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
    ) -> None:
        """Expand every extension of a node, enumerated from RWave runs.

        Why one run per member: over a gene's sorted values ``s`` float
        subtraction is monotone, so ``s[h] - s[last] > gamma_g`` (Eq. 3)
        holds on a suffix of positions ``h``, starting at ``last``'s
        closest regulation successor (one pointer lookup, Lemma 3.1);
        pruning 2 holds on a prefix (:meth:`_reach_runs`).  A p-member's
        extensions are the run where both hold; an n-member's are the
        mirror image, from its reach limit up to ``last``'s closest
        predecessor.  No chain condition lies in a run: values strictly
        rise along a p-member's chain and fall along an n-member's, so
        every chain condition sits on the far side of ``last`` from its
        run.  Candidates need enough p-member support (prunings 2 and 3a
        make scanning n-members for support unnecessary).  The native
        kernel walks the runs (:class:`repro.core._runs.RunPass`); the
        legacy :meth:`_candidate_matrix` finds the same pairs densely.
        """
        stats = self._stats
        timers = stats.timers
        phase_started = perf_counter()
        members = np.concatenate((p_members, n_members))
        n_pm = p_members.shape[0]
        runs.walk(
            members, n_pm, chain[-1],
            self._reach_runs(self.params.min_conditions - len(chain)),
        )
        viable = self._viable(chain, runs.support)
        cands = viable.nonzero()[0]
        if len(chain) >= 2:
            timers.candidates += perf_counter() - phase_started
            self._extend_batched(runs, chain, cands, viable, members, n_pm)
            return
        conds, owners = runs.pairs(members, viable)
        # Depth 1: group the pairs by candidate.  The stable sort keeps
        # each group in member order, p-members first, as the legacy
        # children are; on the narrow table dtype it is a radix sort.
        grouped = owners[
            np.argsort(conds.astype(self.index.order.dtype), kind="stable")
        ]
        ends = np.bincount(conds, minlength=self.matrix.n_conditions)[
            cands
        ].cumsum()
        children = []
        for condition, end, count in zip(
            cands, ends, np.diff(ends, prepend=0)
        ):
            group = grouped[end - count : end]
            split = int(group.searchsorted(n_pm))
            children.append(
                (
                    chain + (int(condition),),
                    members[group[:split]],
                    members[group[split:]],
                )
            )
        timers.candidates += perf_counter() - phase_started
        for extended, child_p, child_n in children:
            stats.candidates_examined += 1
            # The new pair *is* the baseline: every member scores H = 1,
            # so there is exactly one (trivially coherent) window.
            self._expand(extended, child_p, child_n)

    def _extend_batched(
        self,
        runs: RunPass,
        chain: Tuple[int, ...],
        cands: NDArray[np.intp],
        viable: NDArray[np.bool_],
        members: NDArray[np.intp],
        n_pm: int,
    ) -> None:
        """Score and branch every candidate extension in one flat pass.

        The per-candidate legacy loop pays numpy call overhead on tiny
        arrays tens of thousands of times; this path has the native
        kernel emit every viable (candidate, member) pair with its Eq. 7
        score, drop non-finite scores and apply the coherence prefilter
        (:meth:`RunPass.scored`), then canonicalizes the survivors'
        order with a single (candidate, score, gene) lexsort and
        partitions all candidates' windows with one segmented scan.  The
        per-candidate bookkeeping loop then only touches precomputed
        arrays, so statistics, tracer events and recursion order — and
        therefore the emitted clusters — are bit-identical to the legacy
        path.

        The prefilter: a window of spread <= epsilon occupies at most two
        adjacent epsilon-wide buckets of ``(score - low) / epsilon``
        (four with the slack of the float bucketing itself), so a
        candidate whose best 4-adjacent-bucket count stays below MinG
        provably has no valid window.  It is conservative for any
        ``low`` at or below every score (the kernel takes the least);
        scores beyond ``low + _BUCKET_CAP * epsilon`` share the top
        bucket, which only relaxes the bound.
        """
        stats = self._stats
        timers = stats.timers
        params = self.params
        n_cands = cands.shape[0]
        if n_cands == 0:
            return

        phase_started = perf_counter()
        conds, owners, scores_flat = runs.scored(
            members, viable, chain, params.epsilon, params.min_genes
        )
        # Degenerate baselines (defensive — valid members always have
        # |d_c2 - d_c1| > gamma_g >= 0): dropped, counted per candidate.
        degenerate = runs.degenerate[cands]
        n_windows = 0
        # Most nodes keep no pair (every candidate fails coherence); they
        # skip the sort and the scan and only book their rejections.
        if conds.shape[0]:
            genes_flat = members[owners]
            cand_pos = cands.searchsorted(conds)
            counts = np.bincount(cand_pos, minlength=n_cands)
            # Primary key candidate, then score, then gene id — within
            # each candidate segment this is exactly the
            # lexsort((ids, values)) order of coherent_gene_windows.
            order = np.lexsort((genes_flat, scores_flat, cand_pos))
            genes_sorted = genes_flat[order]
            scores_sorted = scores_flat[order]
            in_p_sorted = owners[order] < n_pm
            seg_sorted = cand_pos[order]
            seg_ends = np.repeat(np.cumsum(counts) - 1, counts)
            win_starts, win_ends = segmented_maximal_windows(
                scores_sorted, seg_sorted, seg_ends,
                params.epsilon, params.min_genes,
            )
            win_seg = seg_sorted[win_starts]
            n_windows = win_starts.shape[0]
        timers.windows += perf_counter() - phase_started

        cursor = 0
        for position in range(n_cands):
            stats.candidates_examined += 1
            if degenerate[position]:
                stats.degenerate_genes_dropped += int(degenerate[position])
            first = cursor
            while cursor < n_windows and win_seg[cursor] == position:
                cursor += 1
            if cursor == first:
                stats.coherence_rejections += 1
                if self.tracer is not None:
                    self.tracer.record(
                        chain + (int(cands[position]),), "pruned_coherence"
                    )
                continue
            extended = chain + (int(cands[position]),)
            for index in range(first, cursor):
                start = win_starts[index]
                end = win_ends[index]
                window = genes_sorted[start : end + 1]
                in_p = in_p_sorted[start : end + 1]
                self._expand(extended, window[in_p], window[~in_p])

    # ------------------------------------------------------------------
    # Coherence scores for one extension step
    # ------------------------------------------------------------------

    def _step_scores(
        self,
        genes: NDArray[np.intp],
        chain: Tuple[int, ...],
        candidate: int,
    ) -> NDArray[np.float64]:
        """H(j, c_k1, c_k2, c_km, candidate) for every gene (Eq. 7).

        The denominator is gathered from the branch-root baseline cache
        (refreshed on every depth-2 node, see :meth:`_expand`) — the same
        float subtraction as the direct form, performed once per branch
        instead of once per extension.
        """
        values = self._values
        last = chain[-1]
        baseline = self._baseline[genes]
        step = values[genes, candidate] - values[genes, last]
        return np.asarray(step / baseline, dtype=np.float64)


def mine_reg_clusters(
    matrix: ExpressionMatrix,
    *,
    min_genes: int,
    min_conditions: int,
    gamma: float,
    epsilon: float,
    max_clusters: Optional[int] = None,
    prunings: Optional[PruningConfig] = None,
    thresholds: Optional[NDArray[np.float64]] = None,
    use_kernel: bool = True,
) -> MiningResult:
    """One-call convenience wrapper around :class:`RegClusterMiner`.

    >>> from repro.datasets import load_running_example
    >>> result = mine_reg_clusters(load_running_example(), min_genes=3,
    ...                            min_conditions=5, gamma=0.15, epsilon=0.1)
    >>> len(result)
    1
    """
    params = MiningParameters(
        min_genes=min_genes,
        min_conditions=min_conditions,
        gamma=gamma,
        epsilon=epsilon,
        max_clusters=max_clusters,
    )
    miner = RegClusterMiner(
        matrix, params, prunings=prunings, thresholds=thresholds,
        use_kernel=use_kernel,
    )
    return miner.mine()
