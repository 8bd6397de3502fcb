"""Sliding-window partition of genes by coherence score (pruning 4).

When the miner extends a chain by one condition, every candidate gene gets
an H score for the new step (Eq. 7).  Genes sorted by that score are then
partitioned into *maximal* intervals whose score spread is at most
``epsilon`` — each interval of at least ``MinG`` genes becomes one child
branch of the search.  Intervals may overlap, which is why reg-clusters
themselves may overlap.

The miner's fast path scans its windows in the native run kernel
(``_runs.c``), which sorts each candidate's pairs by (score, gene) and
runs the scalar two-pointer definition, :func:`_scan_maximal_windows`.
This module serves the legacy per-candidate path, the pCluster baseline
and the tests.  :func:`maximal_coherent_windows` computes the partition
vectorized: one :func:`numpy.searchsorted` proposes every window end at
once, then a fix-up pass re-checks the proposals against the *exact*
predicate ``scores[end] - scores[start] <= epsilon`` — the cutoff
``scores[start] + epsilon`` used by the binary search can disagree with
the subtraction form in the last ulp, and the window boundaries must
match the scalar definition bit for bit.  The scalar scan is also the
reference the property tests compare against and the fallback for
non-finite scores.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["maximal_coherent_windows", "coherent_gene_windows"]


def _scan_maximal_windows(
    scores: NDArray[np.float64], epsilon: float, min_length: int
) -> List[Tuple[int, int]]:
    """Reference scalar two-pointer scan (the window definition)."""
    n = scores.shape[0]
    windows: List[Tuple[int, int]] = []
    end = 0
    previous_end = -1
    for start in range(n):
        if end < start:
            end = start
        while end + 1 < n and scores[end + 1] - scores[start] <= epsilon:
            end += 1
        if end > previous_end:  # not contained in the previous window
            if end - start + 1 >= min_length:
                windows.append((start, end))
            previous_end = end
        if end == n - 1:
            break
    return windows


def _vector_maximal_windows(
    scores: NDArray[np.float64], epsilon: float, min_length: int
) -> List[Tuple[int, int]]:
    """Vectorized window scan, bit-identical to the scalar reference.

    For sorted finite scores the reachable end of every start is
    ``end[s] = max{e : scores[e] - scores[s] <= epsilon}``; IEEE
    subtraction is monotone, so ``end`` is non-decreasing and a window is
    maximal exactly where ``end`` strictly advances.  ``searchsorted``
    proposes the ends; the short correction loops below reconcile the
    additive cutoff with the exact subtractive predicate (they run zero
    iterations unless the two round differently).
    """
    n = scores.shape[0]
    starts = np.arange(n, dtype=np.intp)
    ends = np.searchsorted(scores, scores + epsilon, side="right") - 1
    np.maximum(ends, starts, out=ends)
    while True:
        probe = np.minimum(ends + 1, n - 1)
        grow = (ends + 1 < n) & (scores[probe] - scores[starts] <= epsilon)
        if not grow.any():
            break
        ends[grow] += 1
    while True:
        shrink = (ends > starts) & (scores[ends] - scores[starts] > epsilon)
        if not shrink.any():
            break
        ends[shrink] -= 1
    maximal = np.flatnonzero(np.diff(ends, prepend=-1) > 0)
    long_enough = ends[maximal] - maximal + 1 >= min_length
    return [
        (int(start), int(ends[start])) for start in maximal[long_enough]
    ]


def maximal_coherent_windows(
    sorted_scores: ArrayLike,
    epsilon: float,
    min_length: int,
    *,
    assume_sorted: bool = False,
) -> List[Tuple[int, int]]:
    """Maximal windows of width <= epsilon over ascending scores.

    Parameters
    ----------
    sorted_scores:
        H scores in non-descending order.
    epsilon:
        Maximum allowed spread ``max - min`` inside one window.
    min_length:
        Windows with fewer elements are dropped (pruning 4 / MinG).
    assume_sorted:
        Skip the sortedness re-validation (for callers that just sorted,
        like :func:`coherent_gene_windows`).

    Returns
    -------
    List of half-open-free ``(start, end)`` index pairs, *inclusive* on
    both sides, each maximal: extending the window in either direction
    would either exceed epsilon or leave the array.

    Notes
    -----
    The rightmost reachable end for each start is non-decreasing, and a
    window is maximal exactly when its end strictly advanced past the
    previous start's end.  Sorted finite scores take the vectorized scan;
    anything containing NaN/inf falls back to the scalar reference.
    """
    scores = np.asarray(sorted_scores, dtype=np.float64)
    n = scores.shape[0]
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not assume_sorted and n and np.any(np.diff(scores) < 0):
        raise ValueError("scores must be sorted in non-descending order")
    if n == 0:
        return []
    if not np.isfinite(scores).all():
        return _scan_maximal_windows(scores, epsilon, min_length)
    return _vector_maximal_windows(scores, epsilon, min_length)


def coherent_gene_windows(
    genes: ArrayLike,
    scores: ArrayLike,
    epsilon: float,
    min_length: int,
) -> List[NDArray[np.intp]]:
    """Partition genes into maximal coherent subsets by H score.

    ``genes`` and ``scores`` are parallel arrays in any order; the result
    is a list of gene-index arrays, one per maximal window of at least
    ``min_length`` genes whose scores agree within ``epsilon``.  Genes
    with non-finite scores are discarded first (they arise only from
    degenerate baselines, which valid chain members never have).

    Sorting is stable on (score, gene id) so the output is deterministic.
    """
    ids = np.asarray(genes, dtype=np.intp)
    values = np.asarray(scores, dtype=np.float64)
    if ids.shape != values.shape:
        raise ValueError("genes and scores must be parallel arrays")
    finite = np.isfinite(values)
    if not finite.all():
        ids, values = ids[finite], values[finite]
    order = np.lexsort((ids, values))
    ids, values = ids[order], values[order]
    return [
        ids[start : end + 1]
        for start, end in maximal_coherent_windows(
            values, epsilon, min_length, assume_sorted=True
        )
    ]
