"""Typed deltas, apply_delta, and the revision lineage edge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixRevision,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
)
from repro.matrix.summary import matrix_digest


class TestDeltaValidation:
    def test_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            AppendGenes(names=("a", "a"), values=np.zeros((2, 3)))

    def test_names_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            DropGenes(genes=())

    def test_values_must_match_names(self):
        with pytest.raises(ValueError, match="one row per"):
            AppendConditions(names=("c9",), values=np.zeros((2, 3)))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            AppendGenes(names=("g",), values=[[1.0, np.nan]])

    def test_round_trip_through_dict(self):
        for delta in (
            AppendConditions(names=("c9", "c10"), values=np.ones((2, 3))),
            AppendGenes(names=("gX",), values=np.ones((1, 4))),
            DropGenes(genes=("g1", "g2")),
        ):
            again = delta_from_dict(delta_to_dict(delta))
            assert type(again) is type(delta)
            assert delta_to_dict(again) == delta_to_dict(delta)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown delta kind"):
            delta_from_dict({"kind": "transpose"})


class TestApplyDelta:
    def test_append_conditions(self, base_matrix):
        delta = AppendConditions(
            names=("new1", "new2"),
            values=np.ones((2, base_matrix.n_genes)),
        )
        child = apply_delta(base_matrix, delta)
        assert child.n_conditions == base_matrix.n_conditions + 2
        assert child.n_genes == base_matrix.n_genes
        np.testing.assert_array_equal(
            child.values[:, : base_matrix.n_conditions], base_matrix.values
        )
        np.testing.assert_array_equal(child.values[:, -2:], 1.0)
        assert child.condition_names[-2:] == ("new1", "new2")

    def test_append_genes(self, base_matrix):
        delta = AppendGenes(
            names=("gX",), values=np.zeros((1, base_matrix.n_conditions))
        )
        child = apply_delta(base_matrix, delta)
        assert child.n_genes == base_matrix.n_genes + 1
        np.testing.assert_array_equal(
            child.values[:-1], base_matrix.values
        )
        assert child.gene_names[-1] == "gX"

    def test_drop_genes_preserves_order(self, base_matrix):
        victims = (base_matrix.gene_names[1], base_matrix.gene_names[4])
        child = apply_delta(base_matrix, DropGenes(genes=victims))
        kept = [
            name
            for name in base_matrix.gene_names
            if name not in victims
        ]
        assert list(child.gene_names) == kept

    def test_wrong_width_rejected(self, base_matrix):
        with pytest.raises(ValueError, match="columns"):
            apply_delta(
                base_matrix,
                AppendGenes(names=("gX",), values=np.zeros((1, 3))),
            )

    def test_clashing_name_rejected(self, base_matrix):
        with pytest.raises(ValueError, match="already present"):
            apply_delta(
                base_matrix,
                AppendGenes(
                    names=(base_matrix.gene_names[0],),
                    values=np.zeros((1, base_matrix.n_conditions)),
                ),
            )

    def test_unknown_drop_rejected(self, base_matrix):
        with pytest.raises(ValueError, match="unknown gene"):
            apply_delta(base_matrix, DropGenes(genes=("nope",)))

    def test_cannot_drop_every_gene(self, base_matrix):
        with pytest.raises(ValueError, match="every gene"):
            apply_delta(
                base_matrix, DropGenes(genes=base_matrix.gene_names)
            )


class TestMatrixRevision:
    def test_no_op_revision_rejected(self, base_matrix):
        digest = matrix_digest(base_matrix)
        with pytest.raises(ValueError, match="alias"):
            MatrixRevision(
                parent_digest=digest,
                child_digest=digest,
                delta={"kind": "drop_genes", "genes": ["g1"]},
                created_at=1.0,
            )
