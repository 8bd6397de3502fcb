"""The native run kernel, window for window against a numpy reference.

``numpy_walk`` and ``numpy_scored`` below are the miner's former numpy
fast path — the run walk of ``_extension_pairs`` and the Eq. 7 scoring,
degenerate drop and bucket prefilter of ``_extend_batched`` — and
``numpy_windows`` splits the surviving pairs of every candidate with
:func:`coherent_gene_windows`, as the legacy path does.  The kernel must
reproduce them exactly: the same support and degenerate counts,
bit-identical scores, and the same windows with the same genes in the
same order and the same p/n split.  Inputs are random runs with ties,
empty runs, all-p and all-n member lists, 1-, 2- and 4-byte tables,
epsilons from zero to so small that the top bucket clips, and depth-1
as well as deeper nodes.
"""

from __future__ import annotations

import ctypes
import re
from types import SimpleNamespace

import numpy as np
import pytest
from repro.core._runs import (
    _HOOK,
    _SOURCE,
    RunPass,
    _Heap,
    _Pass,
    _Search,
    run_kernel,
)
from repro.core.miner import _BUCKET_CAP, RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex, table_dtype
from repro.core.window import coherent_gene_windows
from repro.matrix.expression import ExpressionMatrix

EPSILONS = (0.0, 1e-300, 1e-3, 0.1, 2.0)


def numpy_reach(max_up, max_down, need):
    """Pruning (2) as the per-gene run limits ``(up_end, down_start)``."""
    need = max(need, 1)
    return (
        np.count_nonzero(max_up >= need, axis=1),
        max_up.shape[1] - np.count_nonzero(max_down >= need, axis=1),
    )


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
    """Eq. 7 scores and degenerate drop of the pairs, then the bucket
    prefilter: ``(listed, survivors, degenerate, clipped)``."""
    n_conditions = values.shape[1]
    scores = values.ravel()[(members * n_conditions)[owners] + conds]
    scores -= values[members, chain[-1]][owners]
    baseline = values[:, chain[1]] - values[:, chain[0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores /= baseline[members][owners]
    finite = np.isfinite(scores)
    degenerate = np.bincount(conds[~finite], minlength=n_conditions)
    listed = conds[finite], owners[finite], scores[finite]
    conds, owners, scores = listed
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
    return listed, (conds, owners, scores), degenerate, clipped


def numpy_windows(members, n_pm, pairs, epsilon, min_genes):
    """Every candidate's windows as ``(condition, genes, in_p)``.

    ``pairs`` is ``(conds, owners, scores)``; ``scores`` ``None`` at
    depth 1, where a candidate's pairs, in member order, are its one
    window.  Deeper, :func:`coherent_gene_windows` splits them.
    """
    conds, owners, scores = pairs
    genes = members[owners]
    in_p = owners < n_pm
    windows = []
    for condition in np.unique(conds).tolist():
        mine = conds == condition
        if scores is None:
            windows.append(
                (condition, genes[mine].tolist(), in_p[mine].tolist())
            )
            continue
        # A gene's p-run and n-run lie on either side of the chain's
        # last condition, so (condition, gene) is unique.
        flags = dict(zip(genes[mine].tolist(), in_p[mine].tolist()))
        assert len(flags) == np.count_nonzero(mine)
        for window in coherent_gene_windows(
            genes[mine], scores[mine], epsilon, min_genes
        ):
            window = window.tolist()
            windows.append((condition, window, [flags[g] for g in window]))
    return windows


def kernel_windows(runs, n_windows):
    """The last emit's windows, in the form of :func:`numpy_windows`."""
    return [
        (
            condition,
            runs.genes[first : last + 1].tolist(),
            runs.in_p[first : last + 1].tolist(),
        )
        for condition, first, last in runs.windows[:n_windows].tolist()
    ]


def random_index(rng, n_genes, n_conditions):
    # Small integers: ties within rows, zero Eq. 7 baselines.
    values = rng.integers(-4, 5, size=(n_genes, n_conditions)).astype(float)
    values[rng.random(values.shape) < 0.3] *= rng.choice([1e-3, 1e3])
    values[0] = 1.0  # a constant row: no regulation, empty runs
    thresholds = rng.choice([0.0, 0.5, 2.0], size=n_genes)
    return RWaveIndex(ExpressionMatrix(values), 0.1, thresholds=thresholds)


def index_like(index, **replaced):
    """The index's tables and values, some replaced: what a RunPass reads."""
    fields = {
        name: getattr(index, name)
        for name in (
            "order", "successor_bound", "predecessor_bound", "max_up",
            "max_down",
        )
    }
    fields["matrix"] = SimpleNamespace(values=index.matrix.values)
    if "values" in replaced:
        fields["matrix"] = SimpleNamespace(values=replaced.pop("values"))
    fields.update(replaced)
    return SimpleNamespace(**fields)


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
    # Real pruning-2 tables, and arbitrary ones whose runs may end
    # before they start (and so are empty).
    limits = [(index.max_up, index.max_down)]
    limits.append(
        tuple(
            rng.integers(0, 4, size=values.shape).astype(np.int8)
            for __ in range(2)
        )
    )
    passes = [
        RunPass(
            kernel,
            index_like(
                index, order=tables[0], successor_bound=tables[1],
                predecessor_bound=tables[2], max_up=max_up,
                max_down=max_down,
            ),
            _BUCKET_CAP,
        )
        for max_up, max_down in limits
    ]
    clipped = degenerate_seen = deep_windows = False
    for step in range(16):
        which = int(rng.integers(2))
        runs = passes[which]
        need = int(rng.integers(0, 4))
        reach = numpy_reach(*limits[which], need)
        members, n_pm = random_members(rng, values.shape[0])
        chain = tuple(
            int(c) for c in rng.choice(n_conditions, size=3, replace=False)
        )
        conds, owners, support = numpy_walk(
            tables, reach, members, n_pm, chain[-1]
        )
        runs.walk(members[:n_pm], members[n_pm:], chain[-1], need)
        np.testing.assert_array_equal(runs.support, support)

        viable = rng.random(n_conditions) < 0.7
        viable[list(chain)] = False
        keep = viable[conds]
        epsilon = EPSILONS[step % len(EPSILONS)]
        min_genes = int(rng.integers(1, 6))

        # Depth 1: every candidate's pairs are one window.
        n_windows = runs.emit(viable, chain[-1:], epsilon, min_genes)
        assert kernel_windows(runs, n_windows) == numpy_windows(
            members, n_pm, (conds[keep], owners[keep], None), epsilon,
            min_genes,
        )
        assert not runs.degenerate.any()

        listed, survivors, degenerate, clip = numpy_scored(
            values, members, conds[keep], owners[keep], chain, epsilon,
            min_genes,
        )
        n_windows = runs.emit(viable, chain, epsilon, min_genes)
        assert kernel_windows(runs, n_windows) == numpy_windows(
            members, n_pm, survivors, epsilon, min_genes
        )
        deep_windows |= n_windows > 0
        np.testing.assert_array_equal(runs.degenerate, degenerate)
        # The kernel lists the finite pairs before it filters them.
        n_listed = listed[0].shape[0]
        for name, expected in zip(("conds", "owners", "scores"), listed):
            assert_bits_equal(runs._grown(name)[:n_listed], expected)
        clipped |= clip
        degenerate_seen |= bool(degenerate.any())
    # The generator reaches the edges it is meant to.
    assert clipped and degenerate_seen and deep_windows


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_the_search_is_the_same_at_every_table_width(dtype):
    # Real indexes only reach 4-byte tables past 32,766 conditions; the
    # same tables widened must drive the same search.
    index = random_index(np.random.default_rng(5), 40, 12)
    params = MiningParameters(
        min_genes=2, min_conditions=3, gamma=0.1, epsilon=0.5
    )
    miner = RegClusterMiner(index.matrix, params, index=index)
    expected = miner.mine()
    wide = index_like(
        index,
        **{
            name: getattr(index, name).astype(dtype)
            for name in (
                "order", "successor_bound", "predecessor_bound", "max_up",
                "max_down",
            )
        },
    )
    miner._runs = RunPass(run_kernel(np.dtype(dtype)), wide, _BUCKET_CAP)
    result = miner.mine()
    assert expected.clusters and result.clusters == expected.clusters
    assert result.statistics.as_dict() == expected.statistics.as_dict()


def one_pair_pass(candidates, values):
    """A RunPass where gene ``g``'s p-run is the one condition
    ``candidates[g]``, scored from ``values`` on the chain (0, 1, 2).

    Each gene's sorted order starts 0, 1, 2, then its candidate, and its
    run is position 3 alone.  The tables need not agree with the values.
    """
    n_genes, n_conditions = values.shape
    dtype = table_dtype(n_conditions)
    order = np.empty((n_genes, n_conditions), dtype=dtype)
    for gene, candidate in enumerate(candidates):
        rest = [c for c in range(3, n_conditions) if c != candidate]
        order[gene] = [0, 1, 2, candidate, *rest]
    successor_bound = np.zeros_like(order)
    successor_bound[:, 2] = 3
    max_up = np.zeros_like(order)
    max_up[:, :4] = 1
    kernel = run_kernel(dtype)
    assert kernel is not None
    fake = SimpleNamespace(
        order=order, successor_bound=successor_bound,
        predecessor_bound=np.zeros_like(order), max_up=max_up,
        max_down=np.zeros_like(order),
        matrix=SimpleNamespace(values=values),
    )
    return RunPass(kernel, fake, _BUCKET_CAP)


def test_score_ties_and_signed_zeros_fall_through_to_the_gene():
    # Zero Eq. 7 numerators over baselines of either sign score 0.0 and
    # -0.0; they tie, as in numpy's lexsort, and so do the 2.0 scores.
    values = np.zeros((8, 4))
    values[:, 1] = [1, -1, -1, 1, 1, -1, 1, -1]
    values[6:, 3] = 2.0 * values[6:, 1]
    scores = (values[:, 3] - values[:, 2]) / (values[:, 1] - values[:, 0])
    assert np.signbit(scores[:6]).any() and not np.signbit(scores[:6]).all()
    runs = one_pair_pass([3] * 8, values)
    # Listed in reverse, so only the sort puts the genes in order.
    runs.walk(
        np.arange(8, dtype=np.intp)[::-1], np.empty(0, dtype=np.intp), 2, 1
    )
    viable = np.array([False, False, False, True])
    for epsilon, min_genes in ((0.0, 1), (0.0, 3), (1.0, 2), (2.0, 8)):
        n_windows = runs.emit(viable, (0, 1, 2), epsilon, min_genes)
        expected = [
            (3, window.tolist(), [True] * window.shape[0])
            for window in coherent_gene_windows(
                np.arange(8), scores, epsilon, min_genes
            )
        ]
        assert kernel_windows(runs, n_windows) == expected
    assert expected == [(3, list(range(8)), [True] * 8)]


def test_buffers_grow_past_their_first_capacity():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(400, 40))
    index = RWaveIndex(ExpressionMatrix(values), 0.0)
    kernel = run_kernel(index.order.dtype)
    assert kernel is not None
    tables = (index.order, index.successor_bound, index.predecessor_bound)
    runs = RunPass(kernel, index, _BUCKET_CAP)
    members = np.arange(400, dtype=np.intp)
    reach = numpy_reach(index.max_up, index.max_down, 1)
    conds, owners, __ = numpy_walk(tables, reach, members, 400, 0)
    assert conds.shape[0] > 1024
    runs.walk(members, members[:0], 0, 1)
    viable = np.ones(40, dtype=bool)
    viable[0] = False
    keep = viable[conds]
    n_windows = runs.emit(viable, (0,), 0.1, 2)
    assert kernel_windows(runs, n_windows) == numpy_windows(
        members, 400, (conds[keep], owners[keep], None), 0.1, 2
    )


def test_arrays_the_kernel_cannot_read_safely_are_refused():
    index = RWaveIndex(ExpressionMatrix(np.arange(12.0).reshape(3, 4)), 0.1)
    kernel = run_kernel(index.order.dtype)
    assert kernel is not None
    # Tables of another width or shape than the kernel and the values.
    wrong = [
        (run_kernel(np.dtype(np.int16)), index),
        (kernel, index_like(index, successor_bound=index.order[:, :3])),
        (
            kernel,
            index_like(
                index, predecessor_bound=index.predecessor_bound.astype(
                    np.int16
                ),
            ),
        ),
        (kernel, index_like(index, values=np.zeros((3, 5)))),
        (kernel, index_like(index, max_down=index.max_down[:2])),
    ]
    for other_kernel, other_index in wrong:
        with pytest.raises(ValueError, match="one dtype"):
            RunPass(other_kernel, other_index, _BUCKET_CAP)
    # Inputs that do not fit the owned buffers (2 * 3 members, 4
    # conditions) never reach the kernel.
    calls = []
    recording = kernel._replace(
        walk=lambda *args: calls.append("walk") or 0,
        emit=lambda *args: calls.append("emit") or 0,
    )
    runs = RunPass(recording, index, _BUCKET_CAP)
    genes = np.arange(3, dtype=np.intp)
    for p_members, n_members in (
        (np.zeros(7, dtype=np.intp), genes[:0]),
        (genes, np.zeros(4, dtype=np.intp)),
    ):
        with pytest.raises(ValueError, match="broadcast"):
            runs.walk(p_members, n_members, 0, 1)
    for viable in (
        np.ones(5, dtype=bool), np.ones(3, dtype=bool),
        np.ones((2, 2), dtype=bool),
    ):
        with pytest.raises(ValueError, match="broadcast"):
            runs.emit(viable, (0, 1), 0.1, 2)
    assert calls == []
    runs.walk(genes, genes, 0, 1)
    runs.emit(np.ones(4, dtype=bool), (0,), 0.1, 2)
    assert calls == ["walk", "emit"]


def test_the_pass_struct_lists_the_c_fields_in_order():
    # RunPass hands the kernel one struct of addresses; a field out of
    # order would point the kernel at the wrong buffer.
    declaration = re.search(
        r"typedef struct \{([^{}]*)\} pass_t;", _SOURCE.read_text()
    )
    assert declaration is not None
    fields = re.findall(r"\*\s*(\w+)", declaration.group(1))
    assert fields == [name for name, __ in _Pass._fields_]


@pytest.mark.parametrize(
    "struct, name", [(_Heap, "heap_t"), (_Search, "search_t")]
)
def test_the_shared_structs_list_the_c_fields_in_order(struct, name):
    # The kernel writes counters, sizes and grown buffers into these;
    # a field out of order or of another width would land elsewhere.
    declaration = re.search(
        r"typedef struct \{([^{}]*)\} " + name + ";", _SOURCE.read_text()
    )
    assert declaration is not None
    body = re.sub(r"/\*.*?\*/", "", declaration.group(1), flags=re.S)
    fields = []
    for line in body.split(";"):
        words = line.replace(",", " ").split()
        fields += [
            (word.strip("*"), "pointer" if word.startswith("*") else words[0])
            for word in words[1:]
        ]
    kinds = {
        "pointer": ctypes.c_void_p, "intptr_t": ctypes.c_ssize_t,
        "double": ctypes.c_double, "hook_t": _HOOK,
    }
    assert [(field, kinds[kind]) for field, kind in fields] == struct._fields_
