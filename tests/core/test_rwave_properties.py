"""Property-based tests for the RWave^gamma model (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    ContractViolation,
    activated,
    check_rwave_index,
    check_rwave_model,
)
from repro.core._runs import run_kernel
from repro.core.rwave import (
    ChainTables,
    RWaveIndex,
    RWaveModel,
    _numpy_chain_tables,
    chain_tables,
    table_dtype,
)
from repro.matrix.expression import ExpressionMatrix

profiles = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    min_size=1,
    max_size=14,
)
gammas = st.floats(min_value=0.0, max_value=1.0)


def brute_force_predecessors(row, threshold, condition):
    return {
        b
        for b in range(len(row))
        if row[condition] - row[b] > threshold
    }


def brute_force_longest_up(row, threshold, condition, _cache=None):
    if _cache is None:
        _cache = {}
    if condition in _cache:
        return _cache[condition]
    succs = [
        b for b in range(len(row)) if row[b] - row[condition] > threshold
    ]
    result = 1 + max(
        (brute_force_longest_up(row, threshold, s, _cache) for s in succs),
        default=0,
    )
    _cache[condition] = result
    return result


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_queries_equal_brute_force(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    for condition in range(len(row)):
        expected = brute_force_predecessors(row, threshold, condition)
        got = set(model.regulation_predecessors(condition).tolist())
        assert got == expected
        expected_succ = {
            b for b in range(len(row)) if row[b] - row[condition] > threshold
        }
        got_succ = set(model.regulation_successors(condition).tolist())
        assert got_succ == expected_succ


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_pointer_invariants(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    sorted_values = model.sorted_values
    previous_tail, previous_head = -1, -1
    for pointer in model.pointers:
        # bordering pair is regulated
        assert (
            sorted_values[pointer.head] - sorted_values[pointer.tail]
            > threshold
        )
        # pointers are strictly ordered on both endpoints (non-embedded)
        assert pointer.tail > previous_tail
        assert pointer.head > previous_head
        previous_tail, previous_head = pointer.tail, pointer.head
        # minimality: the tail is the *closest* predecessor of the head
        if pointer.tail + 1 < pointer.head:
            assert (
                sorted_values[pointer.head] - sorted_values[pointer.tail + 1]
                <= threshold
            )


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_chain_tables_equal_brute_force(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    cache = {}
    for condition in range(len(row)):
        assert model.max_up_from(condition) == brute_force_longest_up(
            row, threshold, condition, cache
        )


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_down_table_is_mirrored_up_table(values, gamma):
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    mirror = RWaveModel(-row, threshold)
    for condition in range(len(row)):
        assert model.max_down_from(condition) == mirror.max_up_from(condition)


@given(profiles, gammas)
@settings(max_examples=200, deadline=None)
def test_order_is_sorted_permutation(values, gamma):
    """Definition 3.1: the model stores a sorted permutation of conditions."""
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    model = RWaveModel(row, threshold)
    n = len(row)
    assert sorted(model.order.tolist()) == list(range(n))
    assert np.all(np.diff(model.sorted_values) >= 0)
    assert np.array_equal(model.sorted_values, row[model.order])
    # position is the inverse permutation of order
    assert np.all(model.position[model.order] == np.arange(n))


@given(profiles, gammas)
@settings(max_examples=100, deadline=None)
def test_contracts_accept_every_built_model(values, gamma):
    """The Lemma 3.1 contract checker passes on any freshly built model."""
    row = np.asarray(values, dtype=np.float64)
    threshold = gamma * (row.max() - row.min())
    check_rwave_model(RWaveModel(row, threshold))


@given(
    st.lists(profiles.filter(lambda p: len(p) >= 2), min_size=1, max_size=4),
    gammas,
)
@settings(max_examples=50, deadline=None)
def test_contracts_accept_every_built_index(rows, gamma):
    width = min(len(r) for r in rows)
    matrix = ExpressionMatrix([r[:width] for r in rows])
    with activated():
        index = RWaveIndex(matrix, gamma)  # runs maybe_check_rwave_index
    check_rwave_index(index)


@st.composite
def matrices_and_thresholds(draw):
    """Small matrices with ties and constant rows, plus explicit
    thresholds (some equal to a pairwise difference, testing Eq. 3's
    strict inequality) or ``None`` for the Eq. 4 thresholds."""
    n_conditions = draw(st.integers(min_value=1, max_value=17))
    n_genes = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    )
    rows = []
    for __ in range(n_genes):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            rows.append([draw(value)] * n_conditions)
        else:
            rows.append(
                draw(
                    st.lists(
                        value, min_size=n_conditions, max_size=n_conditions
                    )
                )
            )
    if not draw(st.booleans()):
        return ExpressionMatrix(rows), None
    position = st.integers(min_value=0, max_value=n_conditions - 1)
    thresholds = []
    for row in rows:
        difference = abs(row[draw(position)] - row[draw(position)])
        thresholds.append(
            draw(
                st.one_of(
                    st.just(difference),
                    st.floats(min_value=0, max_value=50, allow_nan=False),
                )
            )
        )
    return ExpressionMatrix(rows), thresholds


def assert_tables_match_models(index):
    """``index.max_up``/``max_down`` equal every gene's model tables."""
    for gene, row in enumerate(index.matrix.values):
        model = RWaveModel(row, float(index.thresholds[gene]))
        np.testing.assert_array_equal(
            index.max_up[gene, model.order], model.max_chain_up
        )
        np.testing.assert_array_equal(
            index.max_down[gene, model.order], model.max_chain_down
        )


@given(matrices_and_thresholds(), gammas)
@settings(max_examples=300, deadline=None)
def test_index_tables_equal_per_gene_models(case, gamma):
    """The columnar index build agrees with the per-gene RWaveModel."""
    matrix, thresholds = case
    assert_tables_match_models(
        RWaveIndex(matrix, gamma, thresholds=thresholds)
    )


def assert_native_tables_match(values, thresholds):
    """The compiled build equals the numpy build entry for entry, in the
    same dtype, and every row equals its gene's RWaveModel."""
    values = np.asarray(values, dtype=np.float64)
    assert run_kernel(table_dtype(values.shape[1])) is not None
    native = chain_tables(values, thresholds)
    oracle = _numpy_chain_tables(values, thresholds)
    for name in ChainTables._fields:
        got, expected = getattr(native, name), getattr(oracle, name)
        assert got.dtype == expected.dtype == table_dtype(values.shape[1])
        np.testing.assert_array_equal(got, expected, err_msg=name)
    for gene, row in enumerate(values):
        model = RWaveModel(row, float(thresholds[gene]))
        conditions = range(row.shape[0])
        np.testing.assert_array_equal(native.order[gene], model.order)
        np.testing.assert_array_equal(native.position[gene], model.position)
        assert native.successor_bound[gene].tolist() == [
            model.successor_bound(c) for c in conditions
        ]
        assert native.predecessor_bound[gene].tolist() == [
            model.predecessor_bound(c) for c in conditions
        ]
        np.testing.assert_array_equal(
            native.max_up[gene, model.order], model.max_chain_up
        )
        np.testing.assert_array_equal(
            native.max_down[gene, model.order], model.max_chain_down
        )


@given(matrices_and_thresholds(), gammas)
@settings(max_examples=200, deadline=None)
def test_native_tables_equal_the_numpy_build(case, gamma):
    matrix, thresholds = case
    if thresholds is None:
        thresholds = RWaveIndex(matrix, gamma).thresholds
    assert_native_tables_match(matrix.values, np.asarray(thresholds))


@pytest.mark.parametrize("n_conditions", [1, 2, 127, 128, 129, 130])
def test_native_tables_on_tie_heavy_rows(n_conditions):
    """Ties everywhere, at the widths around the int8/int16 switch."""
    rng = np.random.default_rng(n_conditions)
    values = rng.integers(-3, 4, size=(8, n_conditions)).astype(float)
    values[1] = 2.0  # a constant row
    # -0.0 against 0.0: equal, so their order is the condition ids'
    values[2] = np.where(rng.random(n_conditions) < 0.5, -0.0, 0.0)
    values[3, ::2] = -0.0
    values[4] = rng.integers(0, 2, size=n_conditions) * 0.5
    thresholds = np.array([0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 2.0, 0.25])
    assert_native_tables_match(values, thresholds)


def test_native_tables_sort_a_wide_row():
    """One 3000-condition row: the sort's merges, far past its
    insertion-sort runs, keep ties in condition-id order."""
    rng = np.random.default_rng(3000)
    values = rng.integers(0, 40, size=(1, 3000)).astype(float)
    assert_native_tables_match(values, np.array([1.5]))


@pytest.mark.parametrize("n_genes", [511, 512, 513, 1025])
def test_index_tables_cross_chunk_boundaries(n_genes):
    """Gene counts around the build's 512-gene chunk."""
    rng = np.random.default_rng(n_genes)
    values = np.round(rng.normal(size=(n_genes, 9)), 1)
    values[::7] = 0.5  # constant rows: zero threshold, no regulation
    assert_tables_match_models(RWaveIndex(ExpressionMatrix(values), 0.2))


def test_contracts_reject_embedded_pointers():
    """An embedded pointer pair must trip the Definition 3.1 check."""
    from repro.core.rwave import RegulationPointer

    model = RWaveModel([1.0, 5.0, 2.0, 9.0], threshold=1.5)
    # sorted values are [1, 2, 5, 9]; both pointers mark regulated pairs,
    # but (1, 2) is embedded inside (0, 3).
    model.pointers = (
        RegulationPointer(tail=0, head=3),
        RegulationPointer(tail=1, head=2),
    )
    with pytest.raises(ContractViolation):
        check_rwave_model(model)


def test_contracts_reject_unsorted_values():
    model = RWaveModel([1.0, 5.0, 2.0, 9.0], threshold=1.5)
    model.sorted_values = model.sorted_values[::-1].copy()
    with pytest.raises(ContractViolation):
        check_rwave_model(model)


def test_contracts_reject_a_corrupt_pointer_bound():
    """A wrong successor bound would hand the miner a wrong run."""
    index = RWaveIndex(ExpressionMatrix([[1.0, 5.0, 2.0, 9.0]]), 0.2)
    index.successor_bound = index.successor_bound.copy()
    index.successor_bound[0, 0] -= 1
    with pytest.raises(ContractViolation, match="successor_bound"):
        check_rwave_index(index)


def test_contracts_reject_a_non_monotone_reach_table():
    """The miner's runs need max_up non-increasing along sorted order."""
    index = RWaveIndex(ExpressionMatrix([[1.0, 5.0, 2.0, 9.0]]), 0.2)
    index.max_up = index.max_up.copy()
    index.max_up[0, index.order[0, -1]] = index.max_up[0].max() + 1
    with pytest.raises(ContractViolation, match="increases along"):
        check_rwave_index(index)
