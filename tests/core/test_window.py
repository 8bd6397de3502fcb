"""Unit and property tests for the coherence sliding window, in numpy
and in the native run kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import coherent_gene_windows, maximal_coherent_windows
from tests.core.test_runs_kernel import kernel_windows, one_pair_pass


class TestMaximalWindows:
    def test_single_window(self):
        assert maximal_coherent_windows(
            np.array([0.0, 0.1, 0.2]), 0.5, 1
        ) == [(0, 2)]

    def test_two_disjoint_windows(self):
        scores = np.array([0.0, 0.1, 5.0, 5.05])
        assert maximal_coherent_windows(scores, 0.2, 1) == [(0, 1), (2, 3)]

    def test_overlapping_windows(self):
        scores = np.array([0.0, 0.5, 1.0, 1.5])
        assert maximal_coherent_windows(scores, 1.0, 1) == [
            (0, 2),
            (1, 3),
        ]

    def test_min_length_filters(self):
        scores = np.array([0.0, 0.1, 5.0])
        assert maximal_coherent_windows(scores, 0.2, 2) == [(0, 1)]

    def test_empty_input(self):
        assert maximal_coherent_windows(np.array([]), 0.5, 1) == []

    def test_epsilon_zero_groups_equal_scores(self):
        scores = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
        assert maximal_coherent_windows(scores, 0.0, 2) == [(0, 1), (2, 4)]

    def test_unsorted_raises(self):
        with pytest.raises(ValueError, match="sorted"):
            maximal_coherent_windows(np.array([1.0, 0.0]), 0.5, 1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="min_length"):
            maximal_coherent_windows(np.array([1.0]), 0.5, 0)
        with pytest.raises(ValueError, match="epsilon"):
            maximal_coherent_windows(np.array([1.0]), -0.5, 1)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False,
                      width=32),
            max_size=30,
        ),
        st.floats(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_properties(self, values, epsilon, min_length):
        scores = np.sort(np.asarray(values, dtype=np.float64))
        windows = maximal_coherent_windows(scores, epsilon, min_length)
        covered = set()
        for start, end in windows:
            assert end - start + 1 >= min_length
            assert scores[end] - scores[start] <= epsilon
            # maximality in both directions
            if start > 0:
                assert scores[end] - scores[start - 1] > epsilon
            if end < len(scores) - 1:
                assert scores[end + 1] - scores[start] > epsilon
            covered.update(range(start, end + 1))
        # completeness: any element not covered belongs only to windows
        # shorter than min_length
        for index in set(range(len(scores))) - covered:
            lo = index
            while lo > 0 and scores[index] - scores[lo - 1] <= epsilon:
                lo -= 1
            hi = index
            while (
                hi < len(scores) - 1
                and scores[hi + 1] - scores[lo] <= epsilon
            ):
                hi += 1
            # the largest window this element fits in is too short
            assert hi - lo + 1 < min_length


class TestGeneWindows:
    def test_partitions_by_score(self):
        genes = np.array([10, 11, 12, 13])
        scores = np.array([5.0, 0.0, 5.1, 0.2])
        windows = coherent_gene_windows(genes, scores, 0.3, 2)
        assert [w.tolist() for w in windows] == [[11, 13], [10, 12]]

    def test_non_finite_scores_dropped(self):
        genes = np.array([1, 2, 3])
        scores = np.array([np.inf, 1.0, 1.1])
        windows = coherent_gene_windows(genes, scores, 0.5, 2)
        assert [w.tolist() for w in windows] == [[2, 3]]

    def test_deterministic_tie_order(self):
        genes = np.array([9, 3, 7])
        scores = np.array([1.0, 1.0, 1.0])
        windows = coherent_gene_windows(genes, scores, 0.0, 1)
        assert windows[0].tolist() == [3, 7, 9]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="parallel"):
            coherent_gene_windows(np.array([1]), np.array([1.0, 2.0]), 0.1, 1)


class TestSegmentedWindows:
    """One run-kernel emit over many candidates: its windows never cross
    candidate boundaries and equal per-candidate
    maximal_coherent_windows."""

    @staticmethod
    def _check(runs, epsilon, min_length):
        """Candidate ``3 + r`` gets run ``r``'s scores, one gene each:
        Eq. 7 with numerator ``score - 0`` over baseline ``1 - 0``
        gives every score back exactly."""
        runs = [np.sort(np.asarray(run, dtype=np.float64)) for run in runs]
        n_genes = sum(run.shape[0] for run in runs)
        n_conditions = 3 + max(len(runs), 1)
        values = np.zeros((max(n_genes, 1), n_conditions))
        values[:, 1] = 1.0
        candidates, expected, gene = [], [], 0
        for position, run in enumerate(runs):
            candidate = 3 + position
            for start, end in maximal_coherent_windows(
                run, epsilon, min_length
            ):
                expected.append(
                    (candidate, list(range(gene + start, gene + end + 1)))
                )
            for score in run:
                values[gene, candidate] = score
                candidates.append(candidate)
                gene += 1
        native = one_pair_pass(candidates or [3], values)
        native.walk(
            np.arange(n_genes, dtype=np.intp), np.empty(0, dtype=np.intp),
            2, 1,
        )
        viable = np.ones(n_conditions, dtype=bool)
        viable[:3] = False
        n_windows = native.emit(viable, (0, 1, 2), epsilon, min_length)
        got = [
            (condition, genes)
            for condition, genes, __ in kernel_windows(native, n_windows)
        ]
        assert got == expected

    def test_empty(self):
        self._check([], 0.5, 1)

    def test_single_run_matches_unsegmented(self):
        self._check([[0.0, 0.1, 0.2, 5.0, 5.05]], 0.2, 1)

    def test_windows_never_cross_run_boundaries(self):
        # Identical scores of adjacent candidates stay separate windows.
        self._check([[1.0, 1.1], [1.0, 1.1]], 0.5, 1)

    def test_maximality_resets_at_run_starts(self):
        # Run 2 starts with a window whose end does not exceed run 1's
        # last end in flat coordinates; the per-run reset must keep it.
        self._check([[0.0, 0.1, 0.2, 0.3], [0.0, 0.1]], 0.5, 1)

    def test_min_length_applies_per_run(self):
        self._check([[0.0, 0.1], [3.0, 3.05, 3.1], [9.0]], 0.2, 2)

    def test_mixed_scales_between_runs(self):
        self._check(
            [[-1e6, -1e6 + 0.005], [0.0, 0.004, 0.009], [1e6]], 0.01, 1
        )

    @given(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-1e3, max_value=1e3, allow_nan=False, width=32
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_run_reference(self, runs, epsilon, min_length):
        self._check(runs, epsilon, min_length)
