"""Service-level incremental mining: revisions, index deltas, sweeps."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.incremental import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    apply_delta,
)
from repro.incremental.delta import delta_to_dict
from repro.matrix.summary import matrix_digest
from repro.core.params import MiningParameters
from repro.service.cache import index_cache_key
from repro.service.jobs import JobState
from repro.service.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service.service import MiningService
from tests.incremental.conftest import bimodal_matrix
from tests.service.test_execution_paths import no_kernel  # noqa: F401

PARAMS = MiningParameters(
    min_genes=2, min_conditions=2, gamma=0.6, epsilon=0.1
)
NO_RETRY = RetryPolicy(max_retries=0, backoff_base=0.0, jitter=0.0)


@pytest.fixture
def service(tmp_path) -> MiningService:
    return MiningService(tmp_path / "store")


@pytest.fixture
def matrix():
    return bimodal_matrix(10, 8, seed=7)


def run_done(service, record):
    service.run_pending()
    done = service.status(record.job_id)
    assert done.state is JobState.DONE, done.error
    return done


def scratch_payload(tmp_path, child_matrix, params=PARAMS):
    """The child matrix mined from scratch in a pristine service."""
    clean = MiningService(tmp_path / "scratch")
    record = clean.submit(child_matrix, params)
    clean.run_pending()
    return clean.result(record.job_id)


def assert_bit_identical(payload, reference):
    """A revision job must return exactly what a from-scratch run does:
    the clusters (names, chains, memberships, in order) and the search
    statistics, since it mines every shard of the child itself."""
    assert payload["clusters"] == reference["clusters"]
    assert payload["statistics"] == reference["statistics"]


class TestRevisionJobs:
    def test_flat_gene_append_is_full_reuse(
        self, service, matrix, tmp_path
    ):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        revision, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        done = run_done(service, record)
        # The index carries every parent gene row over, and the job
        # mines exactly what mining the child from scratch does.
        assert done.index_build == "delta"
        assert_bit_identical(
            service.result(record.job_id),
            scratch_payload(tmp_path, apply_delta(matrix, delta)),
        )

    def test_all_dirty_delta_runs_as_plain_job(
        self, service, matrix, tmp_path
    ):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        # A condition above every gene's max moves every Eq. 4
        # threshold; the revision job mines like any other.
        top = matrix.values.max() + 100.0
        delta = AppendConditions(
            names=("top",), values=np.full((1, matrix.n_genes), top)
        )
        revision, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        done = run_done(service, record)
        assert done.index_build == "cold"
        assert_bit_identical(
            service.result(record.job_id),
            scratch_payload(tmp_path, apply_delta(matrix, delta)),
        )

    @pytest.mark.parametrize(
        "make_delta, build",
        [
            (
                lambda m: AppendConditions(
                    names=("n1",),
                    values=np.random.default_rng(1).uniform(
                        0, 10, size=(1, m.n_genes)
                    ),
                ),
                "cold",
            ),
            (
                lambda m: AppendGenes(
                    names=("gA",),
                    values=bimodal_matrix(
                        1, m.n_conditions, seed=21
                    ).values,
                ),
                "delta",
            ),
            (lambda m: DropGenes(genes=(m.gene_names[3],)), "delta"),
        ],
        ids=["append_conditions", "append_genes", "drop_genes"],
    )
    def test_stitched_result_bit_identical_to_scratch(
        self, service, matrix, tmp_path, make_delta, build
    ):
        """A revision job's result is the child's from-scratch result.

        Its index build says whether the update carried the parent's
        gene rows over: an ``append_conditions`` update carries none
        (every row gained values), so it is a cold build, counted once,
        that never reads the parent's index.
        """
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        delta = make_delta(matrix)
        __, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        assert run_done(service, record).index_build == build
        builds = dict(
            re.findall(
                r'repro_incremental_index_builds_total\{mode="(\w+)"\} (\d+)',
                service.metrics.render(),
            )
        )
        # The parent's own job built its index cold.
        assert builds == (
            {"cold": "2"} if build == "cold" else {"cold": "1", "delta": "1"}
        )
        # Only a gene-axis update reads (hits) the parent's index.
        assert service.cache.stats.as_dict()["index_hits"] == (
            0 if build == "cold" else 1
        )
        assert_bit_identical(
            service.result(record.job_id),
            scratch_payload(tmp_path, apply_delta(matrix, delta)),
        )

    def test_chained_revisions(self, service, matrix, tmp_path):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        first = AppendGenes(
            names=("gA",),
            values=bimodal_matrix(1, matrix.n_conditions, seed=31).values,
        )
        rev1, rec1 = service.submit_revision(
            matrix_digest(matrix), first, PARAMS
        )
        run_done(service, rec1)
        second = DropGenes(genes=(matrix.gene_names[0],))
        rev2, rec2 = service.submit_revision(
            rev1.child_digest, second, PARAMS
        )
        run_done(service, rec2)
        grandchild = apply_delta(apply_delta(matrix, first), second)
        assert_bit_identical(
            service.result(rec2.job_id),
            scratch_payload(tmp_path, grandchild),
        )

    def test_unknown_parent_digest_raises(self, service):
        with pytest.raises(KeyError):
            service.submit_revision(
                "0" * 64,
                DropGenes(genes=("g1",)),
                PARAMS,
            )

    def test_misfit_delta_raises(self, service, matrix):
        service.submit(matrix, PARAMS)
        with pytest.raises(ValueError, match="unknown gene"):
            service.submit_revision(
                matrix_digest(matrix),
                DropGenes(genes=("not-a-gene",)),
                PARAMS,
            )

    def test_revision_without_parent_job_mines_from_scratch(
        self, service, matrix, tmp_path
    ):
        # The parent matrix is stored but has no job at the revision's
        # parameters: the revision job mines like any other —
        # correctness never depends on the lineage.
        service.submit(matrix, PARAMS)  # stores the matrix ...
        # ... but do NOT run it; submit the revision at different
        # parameters so no parent job record exists for them.
        other = PARAMS.with_overrides(epsilon=0.2)
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        revision, record = service.submit_revision(
            matrix_digest(matrix), delta, other
        )
        service.run_pending()
        done = service.status(record.job_id)
        assert done.state is JobState.DONE
        assert_bit_identical(
            service.result(record.job_id),
            scratch_payload(tmp_path, apply_delta(matrix, delta), other),
        )

    def test_degraded_parent_missing_shards_are_mined(
        self, tmp_path, matrix
    ):
        # Lose one shard of the parent permanently; the revision job
        # mines every shard of the child, the parent's missing one too.
        victim = 3
        plan = FaultPlan(
            [
                FaultSpec(
                    kind=FaultKind.CRASH_SHARD, shard=victim, times=10
                )
            ]
        )
        service = MiningService(
            tmp_path / "store", retry=NO_RETRY, fault_plan=plan
        )
        parent = service.submit(matrix, PARAMS)
        service.run_pending()
        degraded = service.status(parent.job_id)
        assert degraded.state is JobState.DEGRADED
        assert degraded.missing_shards == [victim]
        # Fresh service over the same store, no faults: the revision
        # job delta-updates the parent's index and mines.
        healthy = MiningService(tmp_path / "store")
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        revision, record = healthy.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        done = run_done(healthy, record)
        assert done.index_build == "delta"
        assert_bit_identical(
            healthy.result(record.job_id),
            scratch_payload(tmp_path, apply_delta(matrix, delta)),
        )

    def test_revision_metrics_families(self, service, matrix):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        __, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        run_done(service, record)
        text = service.metrics.render()
        assert (
            'repro_incremental_revisions_total{delta="append_genes"} 1'
            in text
        )
        assert (
            'repro_incremental_index_builds_total{mode="delta"} 1'
            in text
        )

    def test_cold_revision_bootstraps_the_lineage(
        self, service, matrix, tmp_path
    ):
        # A parent whose index left the cache (LRU eviction, or an
        # explicit drop) leaves nothing to delta-update.  Evict it: the
        # first revision must fall back to a cold build but *store* it,
        # so a chained second revision delta-updates.
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        cache = service.cache
        parent_digest = matrix_digest(matrix)
        cache.drop_artifact(index_cache_key(parent_digest, PARAMS.gamma))
        assert cache.get_index(parent_digest, PARAMS.gamma) is None

        first = AppendGenes(
            names=("gA",),
            values=bimodal_matrix(1, matrix.n_conditions, seed=41).values,
        )
        rev1, rec1 = service.submit_revision(
            parent_digest, first, PARAMS
        )
        done1 = run_done(service, rec1)
        assert done1.index_build == "cold"
        # ... but the cold build was stored for the lineage:
        assert (
            cache.get_index(rev1.child_digest, PARAMS.gamma) is not None
        )

        second = DropGenes(genes=(matrix.gene_names[1],))
        rev2, rec2 = service.submit_revision(
            rev1.child_digest, second, PARAMS
        )
        done2 = run_done(service, rec2)
        assert done2.index_build == "delta"
        assert_bit_identical(
            service.result(rec2.job_id),
            scratch_payload(
                tmp_path,
                apply_delta(apply_delta(matrix, first), second),
            ),
        )


class TestPoolMinedParent:
    """A job mined on a worker pool leaves its index in the cache."""

    @pytest.fixture
    def pool_service(self, tmp_path):
        return MiningService(tmp_path / "pool", n_workers=2)

    @pytest.fixture
    def parent(self, pool_service, matrix):
        record = pool_service.submit(matrix, PARAMS)
        run_done(pool_service, record)
        return record

    def test_index_is_cached(self, pool_service, matrix, parent):
        assert (
            pool_service.cache.get_index(matrix_digest(matrix), PARAMS.gamma)
            is not None
        )

    def test_revision_delta_updates_the_index(
        self, pool_service, matrix, parent
    ):
        delta = AppendGenes(
            names=("gA",),
            values=bimodal_matrix(1, matrix.n_conditions, seed=41).values,
        )
        __, record = pool_service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        assert run_done(pool_service, record).index_build == "delta"


class TestSweeps:
    @pytest.mark.usefixtures("no_kernel")
    def test_one_index_build_per_gamma(self, service, matrix):
        batch = service.submit_sweep(
            matrix, PARAMS, gammas=[0.5, 0.7], epsilons=[0.05, 0.1]
        )
        service.run_pending()
        status = service.sweep_status(batch.sweep_id)
        assert status["finished"]
        assert status["counts"] == {"done": 4}
        text = service.metrics.render()
        # Gamma-major submission order: the first point of each gamma
        # builds the index cold, the remaining points hit the cache.
        assert (
            'repro_incremental_index_builds_total{mode="cold"} 2'
            in text
        )
        assert (
            'repro_incremental_index_builds_total{mode="cached"} 2'
            in text
        )
        assert "repro_incremental_sweeps_total 1" in text
        assert "repro_incremental_sweep_points_total 4" in text

    def test_points_are_ordinary_idempotent_jobs(self, service, matrix):
        record = service.submit(
            matrix, PARAMS.with_overrides(gamma=0.5, epsilon=0.05)
        )
        batch = service.submit_sweep(
            matrix, PARAMS, gammas=[0.5], epsilons=[0.05]
        )
        assert batch.points[0].job_id == record.job_id
        assert (
            service.status(record.job_id).sweep_id == batch.sweep_id
        )

    def test_sweep_results_envelope(self, service, matrix):
        batch = service.submit_sweep(
            matrix, PARAMS, gammas=[0.5], epsilons=[0.05, 0.1]
        )
        results = service.sweep_results(batch.sweep_id)
        assert all(p["result"] is None for p in results["points"])
        service.run_pending()
        results = service.sweep_results(batch.sweep_id)
        assert all(
            p["result"]["format"] == "reg-cluster/v1"
            for p in results["points"]
        )

    def test_unknown_sweep_raises(self, service):
        with pytest.raises(KeyError):
            service.sweep_status("sweep-" + "0" * 16)

    def test_sweep_under_fault_injection(self, tmp_path, matrix):
        # One shard crashes once per job; the retry policy absorbs it
        # and every sweep point still finishes done.
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=2, times=2)]
        )
        service = MiningService(
            tmp_path / "store",
            retry=RetryPolicy(
                max_retries=2, backoff_base=0.0, jitter=0.0
            ),
            fault_plan=plan,
        )
        batch = service.submit_sweep(
            matrix, PARAMS, gammas=[0.5, 0.7], epsilons=[0.1]
        )
        service.run_pending()
        status = service.sweep_status(batch.sweep_id)
        assert status["finished"]
        assert status["counts"] == {"done": 2}


class TestCacheLineage:
    def test_parent_eviction_leaves_children_intact(
        self, service, matrix
    ):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        revision, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        assert run_done(service, record).index_build == "delta"
        cache = service.cache
        # Evict the parent's index; the delta-built child must still load.
        cache.drop_artifact(
            index_cache_key(matrix_digest(matrix), PARAMS.gamma)
        )
        assert cache.get_index(matrix_digest(matrix), PARAMS.gamma) is None
        assert cache.get_index(revision.child_digest, PARAMS.gamma) is not None


class TestIncrementalEndpoints:
    """The HTTP surface for revisions and sweeps (router-level)."""

    @pytest.fixture
    def router(self, service):
        from repro.service.router import ServiceRouter

        return ServiceRouter(service)

    def _post(self, router, path, payload):
        import json

        from repro.service.router import Request

        response = router.handle(
            Request("POST", path, body=json.dumps(payload).encode())
        )
        return response.status, json.loads(response.body)

    def _get(self, router, path):
        import json

        from repro.service.router import Request

        response = router.handle(Request("GET", path))
        return response.status, json.loads(response.body)

    def test_post_revision_envelope(self, router, service, matrix):
        parent = service.submit(matrix, PARAMS)
        run_done(service, parent)
        delta = AppendGenes(
            names=("flat",),
            values=np.full((1, matrix.n_conditions), 5.0),
        )
        status, body = self._post(
            router,
            f"/matrices/{matrix_digest(matrix)}/revisions",
            {
                "delta": delta_to_dict(delta),
                "parameters": {"min_genes": 2, "min_conditions": 2,
                               "gamma": 0.6, "epsilon": 0.1},
            },
        )
        assert status == 202
        assert set(body) == {"revision", "job"}
        assert body["revision"]["parent_digest"] == matrix_digest(matrix)
        assert body["job"]["matrix_digest"] == (
            body["revision"]["child_digest"]
        )

    def test_post_revision_unknown_digest_404(self, router):
        status, body = self._post(
            router,
            "/matrices/" + "ef" * 32 + "/revisions",
            {
                "delta": {"kind": "drop_genes", "genes": ["g0"]},
                "parameters": {"min_genes": 2, "min_conditions": 2,
                               "gamma": 0.6, "epsilon": 0.1},
            },
        )
        assert status == 404
        assert "error" in body

    def test_post_revision_bad_delta_400(self, router, service, matrix):
        service.submit(matrix, PARAMS)
        status, body = self._post(
            router,
            f"/matrices/{matrix_digest(matrix)}/revisions",
            {
                "delta": {"kind": "transpose"},
                "parameters": {"min_genes": 2, "min_conditions": 2,
                               "gamma": 0.6, "epsilon": 0.1},
            },
        )
        assert status == 400
        assert "error" in body

    def test_sweep_endpoints_round_trip(self, router, service, matrix):
        status, body = self._post(
            router,
            "/sweeps",
            {
                "matrix": {
                    "values": matrix.values.tolist(),
                    "gene_names": list(matrix.gene_names),
                    "condition_names": list(matrix.condition_names),
                },
                "parameters": {"min_genes": 2, "min_conditions": 2,
                               "gamma": 0.6, "epsilon": 0.1},
                "gammas": [0.5, 0.7],
                "epsilons": [0.1],
            },
        )
        assert status == 202
        sweep_id = body["sweep"]["sweep_id"]
        assert len(body["sweep"]["points"]) == 2

        status, listing = self._get(router, "/sweeps")
        assert status == 200
        assert sweep_id in [s["sweep_id"] for s in listing["sweeps"]]

        service.run_pending()
        status, summary = self._get(router, f"/sweeps/{sweep_id}")
        assert status == 200
        assert summary["finished"]

        status, results = self._get(
            router, f"/sweeps/{sweep_id}/results"
        )
        assert status == 200
        assert all(
            point["result"] is not None for point in results["points"]
        )

    def test_sweep_rejects_non_list_axes(self, router, matrix):
        status, body = self._post(
            router,
            "/sweeps",
            {
                "matrix": {"values": matrix.values.tolist()},
                "parameters": {"min_genes": 2, "min_conditions": 2,
                               "gamma": 0.6, "epsilon": 0.1},
                "gammas": 0.5,
                "epsilons": [0.1],
            },
        )
        assert status == 400

    def test_unknown_sweep_404(self, router):
        status, body = self._get(router, "/sweeps/sweep-" + "0" * 16)
        assert status == 404


class TestClientSurface:
    """ServiceClient request shaping for the new endpoints (no server)."""

    def test_submit_revision_builds_expected_request(self, matrix):
        from repro.service.http import ServiceClient

        calls = {}

        class Probe(ServiceClient):
            def _request(self, method, path, payload=None):
                calls["method"] = method
                calls["path"] = path
                calls["payload"] = payload
                return {"revision": {"r": 1}, "job": {"j": 1}}

        client = Probe("http://invalid.example")
        delta = {"kind": "drop_genes", "genes": ["g0"]}
        envelope = client.submit_revision(
            "ab" * 32, delta, {"min_genes": 2}
        )
        assert calls["method"] == "POST"
        assert calls["path"] == "/matrices/" + "ab" * 32 + "/revisions"
        assert calls["payload"]["delta"] == delta
        assert envelope == {"revision": {"r": 1}, "job": {"j": 1}}

    def test_sweep_client_methods(self):
        from repro.service.http import ServiceClient

        calls = []

        class Probe(ServiceClient):
            def _request(self, method, path, payload=None):
                calls.append((method, path))
                return {
                    "sweep": {"sweep_id": "sweep-" + "1" * 16},
                    "sweeps": [],
                }

        client = Probe("http://invalid.example")
        client.submit_sweep(
            bimodal_matrix(2, 3, seed=0),
            {"min_genes": 2},
            gammas=[0.5],
            epsilons=[0.1],
        )
        client.sweep_status("sweep-" + "1" * 16)
        client.sweep_results("sweep-" + "1" * 16)
        client.list_sweeps()
        assert calls == [
            ("POST", "/sweeps"),
            ("GET", "/sweeps/sweep-" + "1" * 16),
            ("GET", "/sweeps/sweep-" + "1" * 16 + "/results"),
            ("GET", "/sweeps"),
        ]
