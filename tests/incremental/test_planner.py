"""DirtyShardPlanner: dirty/clean classification and its soundness."""

# The planner is kept for perfbench/layers.py; no job path plans.

from __future__ import annotations

import numpy as np
import pytest

from repro.core.miner import mine_reg_clusters
from repro.core.params import MiningParameters
from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DirtyShardPlanner,
    DropGenes,
    apply_delta,
)
from repro.incremental.planner import (
    REASON_APPENDED_START,
    REASON_REACHES_APPENDED,
)
from tests.incremental.conftest import bimodal_matrix

GAMMA = 0.6


@pytest.fixture
def planner() -> DirtyShardPlanner:
    return DirtyShardPlanner()


class TestClassification:
    def test_flat_appended_gene_is_full_reuse(self, planner, base_matrix):
        # A constant gene has zero range, so it carries no up-bits at
        # all — it cannot influence any shard.
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, base_matrix.n_conditions), 5.0),
        )
        child = apply_delta(base_matrix, delta)
        plan = planner.plan(base_matrix, child, delta, GAMMA)
        assert plan.is_full_reuse
        assert plan.n_shards == child.n_conditions
        assert plan.reuse_fraction() == 1.0

    def test_global_max_condition_dirties_everything(
        self, planner, base_matrix
    ):
        # A condition above every gene's maximum is up-regulated
        # against every old condition for every gene: every shard
        # reaches it.
        top = base_matrix.values.max() + 100.0
        delta = AppendConditions(
            names=("top",),
            values=np.full((1, base_matrix.n_genes), top),
        )
        child = apply_delta(base_matrix, delta)
        plan = planner.plan(base_matrix, child, delta, GAMMA)
        assert plan.is_full_rebuild
        assert plan.reasons[base_matrix.n_conditions] == (
            REASON_APPENDED_START
        )
        assert any(
            reason == REASON_REACHES_APPENDED
            for shard, reason in plan.reasons.items()
            if shard < base_matrix.n_conditions
        )

    def test_appended_shards_are_always_dirty(self, planner, base_matrix):
        mid = (
            base_matrix.values.min(axis=1) + base_matrix.values.max(axis=1)
        ) / 2.0
        delta = AppendConditions(names=("mid",), values=mid[None, :])
        child = apply_delta(base_matrix, delta)
        plan = planner.plan(base_matrix, child, delta, GAMMA)
        assert base_matrix.n_conditions in plan.dirty_shards
        assert plan.reasons[base_matrix.n_conditions] == (
            REASON_APPENDED_START
        )

    def test_dirty_gene_names_reported(self, planner, base_matrix):
        delta = DropGenes(genes=(base_matrix.gene_names[0],))
        child = apply_delta(base_matrix, delta)
        plan = planner.plan(base_matrix, child, delta, GAMMA)
        assert plan.dirty_genes == (base_matrix.gene_names[0],)

    def test_plan_round_trips_to_dict(self, planner, base_matrix):
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, base_matrix.n_conditions), 5.0),
        )
        child = apply_delta(base_matrix, delta)
        payload = planner.plan(base_matrix, child, delta, GAMMA).to_dict()
        assert payload["kind"] == "append_genes"
        assert len(payload["clean_shards"]) == child.n_conditions


class TestSoundness:
    """Clean shards must mine identically on parent and child."""

    PARAMS = MiningParameters(
        min_genes=2, min_conditions=2, gamma=GAMMA, epsilon=0.1
    )

    def _clusters_by_shard(self, matrix):
        result = mine_reg_clusters(
            matrix,
            min_genes=self.PARAMS.min_genes,
            min_conditions=self.PARAMS.min_conditions,
            gamma=self.PARAMS.gamma,
            epsilon=self.PARAMS.epsilon,
        )
        by_shard = {}
        for cluster in result.clusters:
            by_shard.setdefault(cluster.chain[0], []).append(
                (cluster.chain, frozenset(cluster.genes))
            )
        return by_shard

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_clean_shards_identical_under_random_deltas(self, seed):
        planner = DirtyShardPlanner()
        parent = bimodal_matrix(8, 7, seed=seed)
        rng = np.random.default_rng(seed + 50)
        deltas = [
            AppendConditions(
                names=("n1",),
                values=rng.uniform(0, 10, size=(1, parent.n_genes)),
            ),
            AppendGenes(
                names=("gA",),
                values=rng.uniform(0, 10, size=(1, parent.n_conditions)),
            ),
            DropGenes(genes=(parent.gene_names[seed % parent.n_genes],)),
        ]
        for delta in deltas:
            child = apply_delta(parent, delta)
            plan = planner.plan(parent, child, delta, GAMMA)
            parent_shards = self._clusters_by_shard(parent)
            child_shards = self._clusters_by_shard(child)
            for shard in plan.clean_shards:
                parent_clusters = {
                    (chain, genes)
                    for chain, genes in parent_shards.get(shard, [])
                }
                child_clusters = set(child_shards.get(shard, []))
                if isinstance(delta, DropGenes):
                    # Gene ids shift after a drop; compare by resolving
                    # parent ids to names and back to child ids.
                    dropped = set(delta.genes)
                    remap = {}
                    new_id = 0
                    for old_id, name in enumerate(parent.gene_names):
                        if name not in dropped:
                            remap[old_id] = new_id
                            new_id += 1
                    assert all(
                        g in remap
                        for __, genes in parent_clusters
                        for g in genes
                    ), "dropped gene appeared in a clean shard's cluster"
                    parent_clusters = {
                        (chain, frozenset(remap[g] for g in genes))
                        for chain, genes in parent_clusters
                    }
                assert parent_clusters == child_clusters, (
                    f"clean shard {shard} diverged under "
                    f"{delta.kind} (seed {seed})"
                )
