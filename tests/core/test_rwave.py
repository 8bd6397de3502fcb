"""Unit tests for the RWave^gamma model on the paper's running example.

Pins the structure of Figure 3 and the Lemma 3.1 worked example
(predecessors of c6 for g1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regulation import regulation_matrix
from repro.core.rwave import RegulationPointer, RWaveIndex, RWaveModel, build_rwave
from repro.matrix.expression import ExpressionMatrix


def names(matrix, ids):
    return [matrix.condition_names[c] for c in ids]


class TestConstruction:
    def test_order_is_non_descending(self, running_example):
        for gene in range(3):
            model = build_rwave(running_example, gene, 0.15)
            assert np.all(np.diff(model.sorted_values) >= 0)

    def test_g1_order(self, running_example):
        model = build_rwave(running_example, "g1", 0.15)
        assert names(running_example, model.order) == [
            "c7", "c2", "c9", "c10", "c5", "c8", "c1", "c4", "c6", "c3",
        ]

    def test_g2_order(self, running_example):
        model = build_rwave(running_example, "g2", 0.15)
        assert names(running_example, model.order) == [
            "c2", "c3", "c1", "c10", "c5", "c9", "c8", "c4", "c6", "c7",
        ]

    def test_pointer_validation(self):
        with pytest.raises(ValueError, match="tail"):
            RegulationPointer(tail=3, head=3)

    def test_rejects_2d_profile(self):
        with pytest.raises(ValueError, match="single profile"):
            RWaveModel(np.zeros((2, 2)), 1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            RWaveModel(np.zeros(3), -1.0)

    def test_repr(self, running_example):
        model = build_rwave(running_example, 0, 0.15)
        assert "pointers=4" in repr(model)


class TestPointerSemantics:
    """Definition 3.1: pointers mark bordering regulated pairs,
    non-embedded."""

    @pytest.mark.parametrize("gene", [0, 1, 2])
    def test_every_pointer_is_regulated(self, running_example, gene):
        model = build_rwave(running_example, gene, 0.15)
        values = model.sorted_values
        for pointer in model.pointers:
            # every position <= tail against every position >= head
            left = values[: pointer.tail + 1]
            right = values[pointer.head :]
            assert right.min() - left.max() > model.threshold

    @pytest.mark.parametrize("gene", [0, 1, 2])
    def test_no_embedded_pointers(self, running_example, gene):
        model = build_rwave(running_example, gene, 0.15)
        pointers = model.pointers
        for a in pointers:
            for b in pointers:
                if a is b:
                    continue
                embedded = a.tail >= b.tail and a.head <= b.head
                assert not embedded, f"{a} embedded in {b}"

    @pytest.mark.parametrize("gene", [0, 1, 2])
    def test_pointers_are_minimal_borders(self, running_example, gene):
        """Shrinking a pointer by one position breaks the regulation."""
        model = build_rwave(running_example, gene, 0.15)
        values = model.sorted_values
        for pointer in model.pointers:
            assert (
                values[pointer.head] - values[pointer.tail]
                > model.threshold
            )
            # the pair one step tighter must NOT be regulated, otherwise a
            # pointer embedded in this one would exist
            if pointer.head - pointer.tail > 1:
                assert (
                    values[pointer.head] - values[pointer.tail + 1]
                    <= model.threshold
                    or values[pointer.head - 1] - values[pointer.tail]
                    <= model.threshold
                )


class TestLemmaQueries:
    def test_paper_predecessors_of_c6(self, running_example):
        """Lemma 3.1 worked example: predecessors of c6 for g1."""
        model = build_rwave(running_example, "g1", 0.15)
        c6 = running_example.condition_index("c6")
        predecessors = set(names(running_example, model.regulation_predecessors(c6)))
        assert predecessors == {"c7", "c2", "c10", "c9", "c8", "c5"}

    def test_paper_no_successors_of_c6(self, running_example):
        model = build_rwave(running_example, "g1", 0.15)
        c6 = running_example.condition_index("c6")
        assert model.regulation_successors(c6).size == 0

    @pytest.mark.parametrize("gene", [0, 1, 2])
    def test_queries_match_brute_force(self, running_example, gene):
        """Lemma 3.1 exactness against the O(n^2) regulation table."""
        model = build_rwave(running_example, gene, 0.15)
        table = regulation_matrix(running_example, gene, 0.15)
        n = running_example.n_conditions
        for condition in range(n):
            expected_preds = {
                b for b in range(n) if table[condition, b] == 1
            }
            expected_succs = {
                b for b in range(n) if table[b, condition] == 1
            }
            assert set(model.regulation_predecessors(condition).tolist()) == (
                expected_preds
            )
            assert set(model.regulation_successors(condition).tolist()) == (
                expected_succs
            )

    def test_is_up_regulated(self, running_example):
        model = build_rwave(running_example, "g1", 0.15)
        c3 = running_example.condition_index("c3")
        c7 = running_example.condition_index("c7")
        assert model.is_up_regulated(c3, c7)
        assert not model.is_up_regulated(c7, c3)


class TestChainTables:
    @pytest.mark.parametrize("gene", [0, 1, 2])
    def test_max_chain_matches_exhaustive(self, running_example, gene):
        """The greedy chain-length tables equal exhaustive DFS lengths."""
        model = build_rwave(running_example, gene, 0.15)
        table = regulation_matrix(running_example, gene, 0.15)
        n = running_example.n_conditions

        cache = {}

        def longest_up(cond):
            key = (gene, cond)
            if key in cache:
                return cache[key]
            succs = [b for b in range(n) if table[b, cond] == 1]
            result = 1 + max((longest_up(s) for s in succs), default=0)
            cache[key] = result
            return result

        for cond in range(n):
            assert model.max_up_from(cond) == longest_up(cond)

    def test_down_is_mirror_of_up(self, running_example):
        """max_down of gene equals max_up of the negated profile."""
        for gene in range(3):
            row = running_example.values[gene]
            threshold = 0.15 * (row.max() - row.min())
            model = RWaveModel(row, threshold)
            mirror = RWaveModel(-row, threshold)
            for cond in range(running_example.n_conditions):
                assert model.max_down_from(cond) == mirror.max_up_from(cond)


class TestIndex:
    def test_index_tables_match_models(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        assert len(index) == 3
        for gene in range(len(index)):
            model = index.model(gene)
            for cond in range(running_example.n_conditions):
                assert index.max_up[gene, cond] == model.max_up_from(cond)
                assert index.max_down[gene, cond] == model.max_down_from(cond)

    def test_model_lookup_by_name(self, running_example):
        index = RWaveIndex(running_example, 0.15)
        model = index.model("g2")
        assert model.gene == 1
        assert model.threshold == index.thresholds[1]
        np.testing.assert_array_equal(
            index.max_up[1, model.order], model.max_chain_up
        )
        np.testing.assert_array_equal(
            index.max_down[1, model.order], model.max_chain_down
        )


class TestRendering:
    def test_render_contains_conditions_and_arrows(self, running_example):
        model = build_rwave(running_example, "g1", 0.15)
        text = model.render(running_example.condition_names)
        assert "c7" in text and "c3" in text
        assert ">" in text and "^" in text

    def test_render_default_names(self, running_example):
        model = build_rwave(running_example, "g1", 0.15)
        assert "c7" in model.render()
