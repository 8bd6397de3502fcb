"""The native run kernel, pair for pair against its numpy transcription.

``numpy_walk`` and ``numpy_scored`` below are the miner's former numpy
fast path — the run walk of ``_extension_pairs`` and the Eq. 7 scoring,
degenerate drop and bucket prefilter of ``_extend_batched`` — kept here
as the kernel's reference.  Both kernel calls must reproduce them
exactly: the same pairs in the same order, bit-identical scores, the
same support and degenerate counts.  Inputs are random runs with ties,
empty runs, all-p and all-n member lists, 1-, 2- and 4-byte tables, and
epsilons so small that the top bucket clips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._runs import RunPass, run_kernel
from repro.core.miner import _BUCKET_CAP
from repro.core.rwave import RWaveIndex, table_dtype
from repro.matrix.expression import ExpressionMatrix


def numpy_walk(tables, reach, members, n_pm, last):
    """Every run entry as flat ``(conds, owners)``, plus the support."""
    order, successor_bound, predecessor_bound = tables
    up_end, down_start = reach
    n_conditions = order.shape[1]
    p_members = members[:n_pm]
    n_members = members[n_pm:]
    first = np.concatenate(
        (successor_bound[:, last][p_members], down_start[n_members]),
        dtype=np.intp,
    )
    stop = np.concatenate(
        (
            up_end[p_members],
            predecessor_bound[:, last][n_members].astype(np.intp) + 1,
        ),
        dtype=np.intp,
    )
    np.maximum(stop, first, out=stop)
    lengths = stop - first
    ends = lengths.cumsum()
    total = int(ends[-1]) if ends.shape[0] else 0
    shift = members * n_conditions
    shift += stop
    shift -= ends
    flat = shift.repeat(lengths)
    flat += np.arange(total)
    conds = order.ravel()[flat].astype(np.intp)
    owners = np.arange(members.shape[0]).repeat(lengths)
    n_p = int(ends[n_pm - 1]) if n_pm else 0
    support = np.bincount(conds[:n_p], minlength=n_conditions)
    return conds, owners, support


def numpy_scored(values, members, conds, owners, chain, epsilon, min_genes):
    """Eq. 7 scores, degenerate drop and bucket prefilter of the pairs."""
    n_conditions = values.shape[1]
    scores = values.ravel()[(members * n_conditions)[owners] + conds]
    scores -= values[members, chain[-1]][owners]
    baseline = values[:, chain[1]] - values[:, chain[0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores /= baseline[members][owners]
    finite = np.isfinite(scores)
    degenerate = np.bincount(conds[~finite], minlength=n_conditions)
    conds, owners, scores = conds[finite], owners[finite], scores[finite]
    clipped = False
    if epsilon > 0.0 and scores.shape[0]:
        low = np.minimum.reduce(scores)
        with np.errstate(over="ignore"):
            buckets = (scores - low) / epsilon
        clipped = bool((buckets > _BUCKET_CAP).any())
        key = conds * np.int64(_BUCKET_CAP + 1) + np.minimum(
            buckets, float(_BUCKET_CAP)
        ).astype(np.int64)
        hist = np.bincount(
            key, minlength=n_conditions * (_BUCKET_CAP + 1)
        ).reshape(n_conditions, _BUCKET_CAP + 1)
        adjacent = hist[:, :-1] + hist[:, 1:]
        quads = adjacent[:, :-2] + adjacent[:, 2:]
        alive = quads.max(axis=1) >= min_genes
        survivors = alive[conds]
        conds, owners = conds[survivors], owners[survivors]
        scores = scores[survivors]
    return conds, owners, scores, degenerate, clipped


def random_index(rng, n_genes, n_conditions):
    # Small integers: ties within rows, zero Eq. 7 baselines.
    values = rng.integers(-4, 5, size=(n_genes, n_conditions)).astype(float)
    values[rng.random(values.shape) < 0.3] *= rng.choice([1e-3, 1e3])
    values[0] = 1.0  # a constant row: no regulation, empty runs
    thresholds = rng.choice([0.0, 0.5, 2.0], size=n_genes)
    return RWaveIndex(ExpressionMatrix(values), 0.1, thresholds=thresholds)


def random_reach(rng, index):
    n_conditions = index.order.shape[1]
    if rng.random() < 0.5:
        need = int(rng.integers(1, 4))
        return (
            np.count_nonzero(index.max_up >= need, axis=1),
            n_conditions
            - np.count_nonzero(index.max_down >= need, axis=1),
        )
    # Arbitrary limits: runs that end before they start are empty.
    size = index.order.shape[0]
    return (
        rng.integers(0, n_conditions + 1, size=size).astype(np.intp),
        rng.integers(0, n_conditions + 1, size=size).astype(np.intp),
    )


def random_members(rng, n_genes):
    kind = rng.integers(4)
    p = rng.choice(n_genes, size=rng.integers(0, n_genes + 1), replace=False)
    n = rng.choice(n_genes, size=rng.integers(0, n_genes + 1), replace=False)
    if kind == 0:
        n = n[:0]  # all p-members
    elif kind == 1:
        p = p[:0]  # all n-members
    elif kind == 2:
        p, n = p[:0], n[:0]
    # p and n may overlap, as at a depth-1 node.
    return np.concatenate((p, n)).astype(np.intp), p.shape[0]


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        actual.view(np.int64), expected.view(np.int64)
    )


@pytest.mark.parametrize(
    "n_conditions, width",
    [(12, 1), (127, 1), (128, 2), (130, 2), (20, 4)],
)
@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_the_numpy_transcription(n_conditions, width, seed):
    rng = np.random.default_rng(1000 * n_conditions + seed)
    index = random_index(rng, 30, n_conditions)
    values = index.matrix.values
    dtype = table_dtype(n_conditions) if width < 4 else np.dtype(np.int32)
    assert dtype.itemsize == width
    tables = tuple(
        table.astype(dtype)
        for table in (
            index.order, index.successor_bound, index.predecessor_bound
        )
    )
    kernel = run_kernel(dtype)
    assert kernel is not None
    runs = RunPass(kernel, tables, values, _BUCKET_CAP)
    clipped = degenerate_seen = False
    for __ in range(12):
        reach = random_reach(rng, index)
        members, n_pm = random_members(rng, values.shape[0])
        chain = tuple(
            int(c) for c in rng.choice(n_conditions, size=3, replace=False)
        )
        conds, owners, support = numpy_walk(
            tables, reach, members, n_pm, chain[-1]
        )
        runs.walk(members, n_pm, chain[-1], reach)
        np.testing.assert_array_equal(runs.support, support)

        viable = rng.random(n_conditions) < 0.7
        viable[list(chain)] = False
        keep = viable[conds]
        got_conds, got_owners = runs.pairs(members, viable)
        np.testing.assert_array_equal(got_conds, conds[keep])
        np.testing.assert_array_equal(got_owners, owners[keep])

        epsilon = float(rng.choice([0.0, 1e-300, 1e-3, 0.1, 2.0]))
        min_genes = int(rng.integers(1, 6))
        expected = numpy_scored(
            values, members, conds[keep], owners[keep], chain, epsilon,
            min_genes,
        )
        got = runs.scored(members, viable, chain, epsilon, min_genes)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert_bits_equal(got[2], expected[2])
        np.testing.assert_array_equal(runs.degenerate, expected[3])
        clipped |= expected[4]
        degenerate_seen |= bool(expected[3].any())
    # The generator reaches the edges it is meant to.
    assert clipped and degenerate_seen


def test_buffers_grow_past_their_first_capacity():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(400, 40))
    index = RWaveIndex(ExpressionMatrix(values), 0.0)
    kernel = run_kernel(index.order.dtype)
    assert kernel is not None
    tables = (index.order, index.successor_bound, index.predecessor_bound)
    runs = RunPass(kernel, tables, values, _BUCKET_CAP)
    members = np.arange(400, dtype=np.intp)
    reach = (np.full(400, 40, dtype=np.intp), np.zeros(400, dtype=np.intp))
    conds, owners, __ = numpy_walk(tables, reach, members, 400, 0)
    assert conds.shape[0] > 1024
    runs.walk(members, 400, 0, reach)
    viable = np.ones(40, dtype=bool)
    viable[0] = False
    got_conds, got_owners = runs.pairs(members, viable)
    np.testing.assert_array_equal(got_conds, conds[viable[conds]])
    np.testing.assert_array_equal(got_owners, owners[viable[conds]])


def test_arrays_the_kernel_cannot_read_safely_are_refused():
    index = RWaveIndex(ExpressionMatrix(np.arange(12.0).reshape(3, 4)), 0.1)
    kernel = run_kernel(index.order.dtype)
    assert kernel is not None
    values = index.matrix.values
    with pytest.raises(ValueError, match="one dtype"):
        RunPass(
            run_kernel(np.dtype(np.int16)),
            (index.order, index.successor_bound, index.predecessor_bound),
            values,
            _BUCKET_CAP,
        )
    with pytest.raises(ValueError, match="one dtype"):
        RunPass(
            kernel,
            (
                index.order,
                index.successor_bound.astype(np.int16),
                index.predecessor_bound,
            ),
            values,
            _BUCKET_CAP,
        )
    tables = (index.order, index.successor_bound, index.predecessor_bound)
    runs = RunPass(kernel, tables, values, _BUCKET_CAP)
    reach = (np.full(3, 4, dtype=np.intp), np.zeros(3, dtype=np.intp))
    with pytest.raises(ValueError, match="C-contiguous int"):
        runs.walk(np.arange(3, dtype=np.int32), 3, 0, reach)
    with pytest.raises(ValueError, match="at most 6 members"):
        runs.walk(np.zeros(7, dtype=np.intp), 7, 0, reach)
    members = np.arange(3, dtype=np.intp)
    # The kernel reads reach at every member's gene id and viable at
    # every condition: shorter arrays would be read past their end.
    up_end, down_start = reach
    for wrong in (
        (up_end[:2], down_start),
        (up_end, down_start[:2]),
        (np.full(4, 4, dtype=np.intp), down_start),
    ):
        with pytest.raises(ValueError, match="of 3 entries"):
            runs.walk(members, 3, 0, wrong)
    runs.walk(members, 3, 0, reach)
    with pytest.raises(ValueError, match="bool"):
        runs.pairs(members, np.ones(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="C-contiguous"):
        runs.pairs(members, np.ones(8, dtype=bool)[::2])
    with pytest.raises(ValueError, match="of 4 entries"):
        runs.pairs(members, np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="of 4 entries"):
        runs.scored(members, np.ones((2, 2), dtype=bool), (0, 1), 0.1, 2)
    # Runs exist only for the members walked last; the pair buffers are
    # sized for them.
    with pytest.raises(ValueError, match="last walked"):
        runs.pairs(np.arange(6, dtype=np.intp) % 3, np.ones(4, dtype=bool))
