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
lookup (Lemma 3.1) and one reach limit per gene.  Over a gene's sorted
values float subtraction is monotone, so ``s[h] - s[last] > gamma_g``
holds on a suffix of positions ``h``, from ``last``'s closest regulation
successor, and pruning 2 on a prefix (``max_up`` never increases along
the sorted conditions); an n-member's run is the mirror image, up to
``last``'s closest predecessor.  No chain condition lies in a run.

The search itself runs in C (``_runs.c``, built on first use and bound
with :mod:`ctypes` by :mod:`repro.core._runs`): :meth:`RegClusterMiner.mine`
makes one kernel call per start condition, and the kernel expands that
start's subtree on an explicit node stack, on buffers its
:class:`~repro.core._runs.RunPass` owns.  Each node takes the steps of
:meth:`RegClusterMiner._expand` in its order: the counters, prunings 1
and 3a, the emit check, then a walk of every member's run that counts
each condition's p-member support, the support filter (pruning 3a needs
``MinG / 2`` p-members), and one pass that lists the viable (candidate,
member) pairs and returns every candidate's coherent windows.  From
depth 2 that pass scores each pair with Eq. 7 from the member's own row,
drops non-finite scores, applies the coherence bucket prefilter, sorts
each candidate's pairs by (score, gene) and scans their maximal windows;
at depth 1 the new pair *is* the Eq. 7 baseline (every member scores
H = 1), so each candidate's members are its one window.  The node's
candidates are then booked one at a time and each window of a candidate
is visited as a child before the next candidate, so clusters, counters
and Figure 6 events come out in the legacy order.  Python runs only
where it must: at each emit-eligible node (the redundancy check, the
cluster, ``max_clusters``), at each node when ``should_stop`` or
``progress_callback`` is set, for each event of a ``tracer``, and every
4096 nodes otherwise, so Ctrl-C is answered.  ``use_kernel=False``
selects the legacy per-candidate path, which re-derives Eq. 3 from raw
values at every node and keeps a per-branch Eq. 7 baseline ``d_c2 -
d_c1`` — kept both as the equivalence oracle (the two are proven
bit-identical in ``tests/core/test_miner_kernel_equivalence.py`` and
``tests/core/test_miner_differential.py``) and as the measured baseline
of ``BENCH_baseline.json``; it is also the path taken, with a
``RuntimeWarning``, where no C compiler can build the kernel.  Each
search phase (candidate generation / window partition / emit) is timed
into :class:`PhaseTimers` (on the fast path by the kernel, with
``CLOCK_MONOTONIC``), surfaced by ``reg-cluster mine --stats``, the
service job records and the benchmark-regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

from repro.core._runs import (
    CONTINUE,
    COUNTERS,
    EVENTS,
    PHASES,
    REDUNDANT,
    STOP,
    RunPass,
    run_kernel,
)
from repro.core.chain import is_representative
from repro.core.cluster import RegCluster
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.core.trace import SearchTrace
from repro.core.window import coherent_gene_windows
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
#: from depth 2.  A window of spread <= epsilon occupies at most two
#: adjacent epsilon-wide buckets of ``(score - low) / epsilon`` (four
#: with the slack of the float bucketing itself), so a candidate whose
#: best 4-adjacent-bucket count stays below MinG provably has no valid
#: window; ``low`` is the node's least score.  Scores beyond
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
        runs of the RWave^gamma index's sorted conditions and run the
        whole search in the native run kernel.  ``False``
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
            self._runs = RunPass(kernel, self.index, _BUCKET_CAP)
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
        #: the legacy path's pruning (2) masks ``max_up/max_down >=
        #: need``, built once per remaining chain length ``need``.
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

        if self._runs is not None:
            self._search_natively(self._runs, starts)
        else:
            try:
                # Degenerate Eq. 7 baselines divide to inf/NaN (a
                # subnormal baseline can also overflow the quotient);
                # those scores are dropped (and counted) explicitly, so
                # the warnings are silenced once here instead of per
                # extension step.
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    for start in starts:
                        p_members, n_members, __ = self._roots(start)
                        self._expand((start,), p_members, n_members)
            except _SearchLimitReached:
                pass
        return MiningResult(
            clusters=list(self._clusters),
            statistics=self._stats,
            parameters=self.params,
        )

    def _roots(
        self, start: int
    ) -> Tuple[NDArray[np.intp], NDArray[np.intp], int]:
        """The p- and n-members of the depth-1 node ``(start,)``, and
        how many distinct genes they hold.

        Pruning (2) keeps the genes whose longest chain from ``start``,
        up or down, reaches MinC (and counts the others).  Orientation
        is undetermined for a single condition, so the two member sets
        may overlap.
        """
        n_genes = self.matrix.n_genes
        all_genes = np.arange(n_genes, dtype=np.intp)
        if not self.prunings.reachability:
            return all_genes, all_genes, n_genes
        min_c = self.params.min_conditions
        p_mask = self.index.max_up[:, start] >= min_c
        n_mask = self.index.max_down[:, start] >= min_c
        self._stats.genes_pruned_reachability += int(
            (~p_mask).sum() + (~n_mask).sum()
        )
        total = int(np.count_nonzero(p_mask | n_mask))
        return all_genes[p_mask], all_genes[n_mask], total

    def _search_natively(self, runs: RunPass, starts: Sequence[int]) -> None:
        """The fast path: one kernel call per start condition.

        The kernel expands every node of the start's subtree in C, in
        :meth:`_expand`'s order and with its counters.  It calls back
        into Python (:meth:`_hook`) only at emit-eligible nodes (the
        redundancy check, the cluster, ``max_clusters``), at every node
        for ``should_stop`` / ``progress_callback``, for each Figure 6
        event when traced, and every few thousand nodes otherwise, so
        Ctrl-C is answered.  An exception a hook raises is kept, the
        search told to stop, and it is raised again here.
        """
        params, prunings = self.params, self.prunings
        self._raised: Optional[BaseException] = None
        hook = self._hook(runs)
        next(hook)
        runs.begin(
            hook.send,
            min_genes=params.min_genes,
            min_conditions=params.min_conditions,
            min_support=(
                params.min_p_members if prunings.p_majority else 1
            ),
            epsilon=params.epsilon,
            prune_min_genes=prunings.min_genes,
            prune_p_majority=prunings.p_majority,
            reachability=prunings.reachability,
            probe=(
                self.should_stop is not None
                or self.progress_callback is not None
            ),
            trace=self.tracer is not None,
        )
        try:
            for start in starts:
                if runs.search(start, *self._roots(start)):
                    break
        finally:
            hook.close()
        if self._raised is not None:
            raise self._raised
        stats, counted = self._stats, runs.settings
        for name in COUNTERS:
            setattr(stats, name, getattr(counted, name))
        for name in PHASES:
            setattr(stats.timers, name, getattr(counted, name))

    def _hook(self, runs: RunPass) -> Generator[int, int, None]:
        """The kernel's hook, as a generator: its ``send(event)`` is
        called from C and answers :data:`~repro.core._runs.CONTINUE`,
        ``REDUNDANT`` or ``STOP``.

        A generator, not a function, so that an exception raised as the
        call enters Python (a pending Ctrl-C) still lands in its
        ``try``; it is kept in ``_raised`` and the search stopped.
        """
        answer = CONTINUE
        while True:
            try:
                event = yield answer
                answer = self._on_event(runs, EVENTS[event])
            except GeneratorExit:
                return
            # Kept and raised again once the kernel returns.
            except BaseException as error:  # reglint: disable=RL103
                self._raised = error
                answer = STOP

    def _on_event(self, runs: RunPass, event: str) -> int:
        """Serve one hook call about the node ``runs.settings`` names."""
        settings = runs.settings
        nodes = settings.nodes_expanded
        if event == "node":
            if self.should_stop is not None and self.should_stop():
                raise MiningCancelled(
                    f"search cancelled after {nodes} nodes",
                    partial_clusters=list(self._clusters),
                )
            if self.progress_callback is not None:
                self.progress_callback("expanded", nodes)
            return CONTINUE
        if event == "tick":
            return CONTINUE
        chain = tuple(runs.chain[: settings.depth].tolist())
        if event == "emit":
            n_pm = settings.n_pm
            members = runs.members[: n_pm + settings.n_n]
            return self._emit(chain, members[:n_pm], members[n_pm:], nodes)
        assert self.tracer is not None
        self.tracer.record(chain, event)
        return CONTINUE

    def _emit(
        self,
        chain: Tuple[int, ...],
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
        nodes: int,
    ) -> int:
        """Step 3 of Figure 5 at an emit-eligible node.

        Emits the cluster unless the same chain and genes were emitted
        before (pruning 3b: then :data:`~repro.core._runs.REDUNDANT`
        ends the node, if that pruning is on).  Answers ``STOP`` once
        ``max_clusters`` clusters are out.
        """
        stats = self._stats
        key = (chain, frozenset(map(int, np.concatenate((p_members, n_members)))))
        if key in self._emitted:
            if not self.prunings.redundancy:
                return CONTINUE
            stats.pruned_redundant += 1
            if self.tracer is not None:
                self.tracer.record(chain, "pruned_redundant")
            return REDUNDANT
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
        if self.progress_callback is not None:
            self.progress_callback("emitted", nodes)
        if (
            self.params.max_clusters is not None
            and stats.clusters_emitted >= self.params.max_clusters
        ):
            return STOP
        return CONTINUE

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
            answer = self._emit(
                chain, p_members, n_members, stats.nodes_expanded
            )
            timers.emit += perf_counter() - emit_started
            if answer == REDUNDANT:
                return
            if answer == STOP:
                raise _SearchLimitReached

        if depth >= self.matrix.n_conditions:
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
        is the legacy path's dense oracle for the runs the kernel walks.
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
