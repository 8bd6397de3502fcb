"""Differential test of the run-enumeration fast path (hypothesis).

The default miner enumerates chain extensions as runs of the RWave^gamma
index's sorted conditions; ``use_kernel=False`` re-derives Eq. 3 from
raw values per candidate.  On generated matrices — ties, constant rows,
embedded shift-and-scale clusters with both signs of ``s1`` (so p- and
n-members occur, Lemma 3.2), condition counts on and around byte
boundaries, including 128 where the index tables widen from int8 to
int16 — both paths must agree exactly: the cluster list in emission
order, every search statistic and every Figure 6 trace event, under
every pruning configuration and with or without a ``max_clusters`` cap.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import MiningCancelled, PruningConfig, RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex, RWaveModel, table_dtype
from repro.core.trace import SearchTrace
from repro.matrix.expression import ExpressionMatrix

CONDITION_COUNTS = (7, 8, 9, 16, 17, 127, 128, 129)
ALL_PRUNINGS = [
    PruningConfig(*flags)
    for flags in itertools.product((True, False), repeat=4)
]


@st.composite
def mining_cases(draw):
    """A small matrix plus mining parameters that reach real clusters."""
    n_conditions = draw(st.sampled_from(CONDITION_COUNTS))
    n_genes = draw(st.integers(min_value=6, max_value=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Small integers: many ties inside and across rows.
    values = rng.integers(-3, 4, size=(n_genes, n_conditions)).astype(float)
    if draw(st.booleans()):
        values += rng.normal(scale=0.05, size=values.shape)
    for row in range(draw(st.integers(min_value=0, max_value=2))):
        values[row] = draw(st.integers(min_value=-3, max_value=3))
    for __ in range(draw(st.integers(min_value=1, max_value=2))):
        # One shift-and-scale cluster: d_g = s1 * base + s2 on a random
        # condition subset, s1 of either sign.
        width = draw(st.integers(min_value=3, max_value=n_conditions))
        conditions = rng.choice(n_conditions, size=width, replace=False)
        base = rng.permutation(width) * draw(st.sampled_from([1.0, 2.5]))
        size = draw(st.integers(min_value=2, max_value=min(6, n_genes)))
        for gene in rng.choice(n_genes, size=size, replace=False):
            scale = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0]))
            shift = draw(st.integers(min_value=-4, max_value=4))
            values[gene, conditions] = scale * base + shift
    params = MiningParameters(
        min_genes=draw(st.integers(min_value=2, max_value=4)),
        min_conditions=draw(st.integers(min_value=2, max_value=5)),
        gamma=draw(st.sampled_from([0.0, 0.05, 0.1, 0.25])),
        epsilon=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])),
        max_clusters=draw(st.one_of(st.none(), st.integers(1, 3))),
    )
    return ExpressionMatrix(values), params


#: Nodes after which a search is stopped.  Both paths expand nodes in
#: the same order, so a stopped search must stop in the same state; the
#: budget bounds the rare generated search that explodes (gamma = 0 and
#: prunings off).
NODE_BUDGET = 250


def mine_traced(matrix, params, prunings, use_kernel, *, trace=True):
    """Clusters, statistics (``None`` if stopped) and Figure 6 events."""
    tracer = SearchTrace() if trace else None
    expanded = [0]

    def progress(event, nodes):
        expanded[0] = nodes

    miner = RegClusterMiner(
        matrix,
        params,
        prunings=prunings,
        tracer=tracer,
        use_kernel=use_kernel,
        progress_callback=progress,
        should_stop=lambda: expanded[0] >= NODE_BUDGET,
    )
    try:
        result = miner.mine()
        clusters, statistics = result.clusters, result.statistics.as_dict()
    except MiningCancelled as stopped:
        clusters, statistics = stopped.partial_clusters, None
    events = (
        [(chain, tracer.events(chain)) for chain in tracer.chains()]
        if tracer is not None else None
    )
    return (
        [(c.chain, c.p_members, c.n_members) for c in clusters],
        statistics,
        events,
    )


@pytest.mark.parametrize("prunings", ALL_PRUNINGS, ids=repr)
@given(case=mining_cases())
@settings(max_examples=6, deadline=None)
def test_run_enumeration_matches_the_legacy_path(prunings, case):
    matrix, params = case
    legacy = mine_traced(matrix, params, prunings, use_kernel=False)
    fast = mine_traced(matrix, params, prunings, use_kernel=True)
    assert fast[0] == legacy[0]
    assert fast[1] == legacy[1]
    assert fast[2] == legacy[2]
    # The tracer only observes: the untraced fast path agrees too.
    untraced = mine_traced(matrix, params, prunings, True, trace=False)
    assert untraced[:2] == fast[:2]


def test_an_overflowing_eq7_quotient_is_dropped_alike_on_both_paths():
    """A subnormal baseline d_c2 - d_c1 still complies at gamma = 0, and
    the next step's quotient overflows to inf: both paths drop and count
    those genes identically."""
    tiny = np.nextafter(0.0, 1.0)
    values = np.array(
        [
            [0.0, tiny, 1e300, 2.0],
            [0.0, tiny, 3e300, 4.0],
            [0.0, tiny, 2e300, 3.0],
            [0.0, 1.0, 2.0, 3.0],
            [0.0, 2.0, 4.0, 6.0],
        ]
    )
    params = MiningParameters(
        min_genes=2, min_conditions=3, gamma=0.0, epsilon=0.1
    )
    legacy = mine_traced(ExpressionMatrix(values), params, PruningConfig(),
                         use_kernel=False)
    fast = mine_traced(ExpressionMatrix(values), params, PruningConfig(),
                       use_kernel=True)
    assert fast == legacy
    assert legacy[1]["degenerate_genes_dropped"] > 0


@pytest.mark.parametrize("n_genes", [511, 512, 513])
def test_run_tables_equal_every_model_across_the_build_chunk(n_genes):
    """The sorted order and pointer bounds the miner walks equal each
    gene's RWaveModel, on both sides of the 512-gene build chunk."""
    rng = np.random.default_rng(n_genes)
    values = np.round(rng.normal(size=(n_genes, 17)), 1)
    values[::5] = -1.5  # constant rows: no regulation, empty runs
    index = RWaveIndex(ExpressionMatrix(values), 0.15)
    for table in index.tables:
        assert table.dtype == table_dtype(17)
    for gene, row in enumerate(values):
        model = RWaveModel(row, float(index.thresholds[gene]))
        np.testing.assert_array_equal(index.order[gene], model.order)
        np.testing.assert_array_equal(index.position[gene], model.position)
        assert index.successor_bound[gene].tolist() == [
            model.successor_bound(c) for c in range(17)
        ]
        assert index.predecessor_bound[gene].tolist() == [
            model.predecessor_bound(c) for c in range(17)
        ]


def test_mining_a_fresh_index_builds_no_kernel(running_example, paper_params):
    index = RWaveIndex(running_example, paper_params.gamma)
    result = RegClusterMiner(running_example, paper_params, index=index).mine()
    assert len(result) == 1
    assert not index.has_kernel
