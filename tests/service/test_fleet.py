"""Tests for the distributed shard-mining fleet (repro.service.fleet).

Covers the coordinator's lease lifecycle (grant / heartbeat / expiry /
reclaim / idempotent rejection), affinity routing, the wire form of
shard results, the provenance reporting satellite, and — the headline
guarantee — that a job mined by a coordinator plus worker nodes is
bit-identical to single-process mining.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core.cluster import RegCluster
from repro.core.miner import mine_reg_clusters
from repro.core.params import MiningParameters
from repro.core.serialize import result_to_dict
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.summary import matrix_digest
from repro.service.cache import index_cache_key
from repro.service.fleet import (
    FleetNode,
    FleetState,
    shard_from_wire,
    shard_to_wire,
)
from repro.service.http import ServiceClient, serve
from repro.service.jobs import JobState
from repro.service.resilience import RetryPolicy
from repro.service.service import MiningService


def _shard(start, n_clusters=1):
    """A fabricated, deterministic shard result."""
    clusters = [
        RegCluster(chain=(start, 100 + i), p_members=(0, 1, 2))
        for i in range(n_clusters)
    ]
    return (start, clusters, {"nodes_expanded": 1.0, "max_depth": 1.0})


def _complete_payload(lease, start, shard=None, **extra):
    payload = shard_to_wire(shard if shard is not None else _shard(start))
    payload.update({
        "node_id": extra.pop("node_id", "node-a"),
        "lease_id": lease["lease_id"],
        "job_id": lease["job_id"],
        "shard": start,
        "status": "ok",
    })
    payload.update(extra)
    return payload


@pytest.fixture
def small_matrix():
    return ExpressionMatrix(
        [[float(g * c + g) for c in range(4)] for g in range(3)]
    )


@pytest.fixture
def small_params():
    return MiningParameters(
        min_genes=3, min_conditions=2, gamma=0.5, epsilon=10.0
    )


def _start_job(state, matrix, params, **kwargs):
    """Run state.run_job on a thread; returns (thread, result box)."""
    box = {}

    def target():
        try:
            outcome = box["outcome"] = state.run_job(
                "job-0000000000000000",
                matrix,
                params,
                matrix_digest=matrix_digest(matrix),
                poll_interval=0.01,
                **kwargs,
            )
            box["provenance"] = {
                str(s): info for s, info in outcome.provenance.items()
            }
        # Harness thread: every failure (incl. cancellation) must land
        # in the box for the test to assert on.
        except BaseException as error:  # reglint: disable=RL103
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _lease_or_wait(state, node_id, deadline_s=5.0, **kwargs):
    """Poll for a lease until the queue has one (run_job just started)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        lease = state.lease(node_id, **kwargs)
        if lease is not None:
            return lease
        time.sleep(0.01)
    raise AssertionError(f"no lease granted to {node_id} in {deadline_s}s")


def _finish(thread, box, timeout=10.0):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "run_job did not finish"
    if "error" in box:
        raise box["error"]
    return box["outcome"], box["provenance"]


class TestShardWire:
    def test_round_trip_is_exact(self):
        shard = _shard(3, n_clusters=2)
        assert shard_from_wire(shard_to_wire(shard)) == shard

    def test_members_survive_as_equal_clusters(self):
        shard = (
            2,
            [RegCluster(chain=(2, 5), p_members=(1, 0, 3),
                        n_members=(7,))],
            {"nodes_expanded": 4.0, "time_search_s": 0.25},
        )
        start, clusters, stats = shard_from_wire(shard_to_wire(shard))
        assert start == 2
        assert clusters == [
            RegCluster(chain=(2, 5), p_members=(0, 1, 3), n_members=(7,))
        ]
        assert stats == {"nodes_expanded": 4.0, "time_search_s": 0.25}

    @pytest.mark.parametrize("payload", [
        {},
        {"start": 0},
        {"start": 0, "clusters": [{"chain": "junk"}], "stats": {}},
        {"start": "x", "clusters": [], "stats": {}},
    ])
    def test_malformed_payload_raises(self, payload):
        with pytest.raises(ValueError):
            shard_from_wire(payload)


class TestLeaseLifecycle:
    def test_shards_lease_once_and_complete(
        self, small_matrix, small_params
    ):
        state = FleetState(lease_ttl=30.0, local_mining=False)
        thread, box = _start_job(state, small_matrix, small_params)
        seen = set()
        while len(seen) < small_matrix.n_conditions:
            lease = _lease_or_wait(state, "node-a", max_shards=2)
            for start in lease["shards"]:
                # Double-lease prevention: a leased shard never shows
                # up in another grant while its lease is alive.
                assert start not in seen
                seen.add(start)
                answer = state.complete(_complete_payload(lease, start))
                assert answer == {"accepted": True}
        outcome, provenance = _finish(thread, box)
        assert not outcome.degraded
        assert sorted(seen) == list(range(small_matrix.n_conditions))
        assert all(
            provenance[str(s)] == {"node": "node-a", "attempts": 1}
            for s in seen
        )

    def test_two_nodes_never_share_a_shard(
        self, small_matrix, small_params
    ):
        state = FleetState(
            lease_ttl=30.0, local_mining=False, max_lease_shards=1
        )
        thread, box = _start_job(state, small_matrix, small_params)
        grants = {"node-a": [], "node-b": []}
        leases = []
        for node_id in ("node-a", "node-b", "node-a", "node-b"):
            lease = _lease_or_wait(state, node_id)
            grants[node_id].extend(lease["shards"])
            leases.append((node_id, lease))
        assert not set(grants["node-a"]) & set(grants["node-b"])
        for node_id, lease in leases:
            for start in lease["shards"]:
                state.complete(
                    _complete_payload(lease, start, node_id=node_id)
                )
        outcome, provenance = _finish(thread, box)
        assert not outcome.degraded
        miners = {info["node"] for info in provenance.values()}
        assert miners == {"node-a", "node-b"}

    def test_ttl_expiry_reclaims_and_rejects_late_complete(
        self, small_matrix, small_params
    ):
        state = FleetState(
            lease_ttl=0.1,
            local_mining=False,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01,
                              jitter=0.0, backoff_max=0.02),
            max_lease_shards=1,
        )
        thread, box = _start_job(state, small_matrix, small_params)
        stale = _lease_or_wait(state, "node-dead")
        start = stale["shards"][0]
        # No heartbeat: the lease expires and run_job's sweep reclaims
        # the shard, charging one attempt against the retry budget.
        deadline = time.monotonic() + 5.0
        fresh = None
        while fresh is None and time.monotonic() < deadline:
            lease = state.lease("node-live")
            if lease is not None and start in lease["shards"]:
                fresh = lease
            elif lease is not None:
                for other in lease["shards"]:
                    state.complete(_complete_payload(
                        lease, other, node_id="node-live"
                    ))
            else:
                time.sleep(0.01)
        assert fresh is not None, "reclaimed shard was never re-leased"
        # Reclaim-then-retry counts against the shard's budget: the
        # re-grant reports the failed attempt.
        assert fresh["attempts"][str(start)] == 1
        # The dead node's late completion is rejected idempotently.
        late = state.complete(_complete_payload(
            stale, start, node_id="node-dead"
        ))
        assert late == {"accepted": False, "reason": "lease-expired"}
        accepted = state.complete(_complete_payload(
            fresh, start, node_id="node-live"
        ))
        assert accepted == {"accepted": True}
        # And completing the same shard again is a duplicate.
        again = state.complete(_complete_payload(
            fresh, start, node_id="node-live"
        ))
        assert again == {"accepted": False, "reason": "duplicate"}
        while True:
            lease = state.lease("node-live")
            if lease is None:
                if not thread.is_alive():
                    break
                time.sleep(0.01)
                continue
            for other in lease["shards"]:
                state.complete(_complete_payload(
                    lease, other, node_id="node-live"
                ))
        outcome, provenance = _finish(thread, box)
        assert not outcome.degraded
        assert provenance[str(start)] == {
            "node": "node-live", "attempts": 2,
        }
        snap = state.metrics_snapshot()
        assert snap["shards_reclaimed"] >= 1
        assert snap["completions_rejected"]["lease-expired"] >= 1
        assert snap["completions_rejected"]["duplicate"] >= 1

    def test_reclaims_exhaust_the_retry_budget_into_degradation(
        self, small_matrix, small_params
    ):
        state = FleetState(
            lease_ttl=0.05,
            local_mining=False,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01,
                              jitter=0.0, backoff_max=0.02),
        )
        thread, box = _start_job(state, small_matrix, small_params)
        victim = None
        # Keep leasing without ever completing the victim shard; every
        # expiry burns one attempt until the budget (1 retry) is gone.
        deadline = time.monotonic() + 10.0
        while thread.is_alive() and time.monotonic() < deadline:
            lease = state.lease("node-flaky", max_shards=2)
            if lease is None:
                time.sleep(0.01)
                continue
            if victim is None:
                victim = lease["shards"][0]
            for start in lease["shards"]:
                if start != victim:
                    state.complete(_complete_payload(
                        lease, start, node_id="node-flaky"
                    ))
        outcome, provenance = _finish(thread, box)
        assert outcome.degraded
        assert outcome.missing_shards == [victim]
        assert outcome.failed_attempts[victim] == 2  # 1 try + 1 retry
        assert "expired" in outcome.shard_errors[victim]
        assert provenance[str(victim)] == {"node": None, "attempts": 2}

    def test_heartbeat_keeps_a_slow_lease_alive(
        self, small_matrix, small_params
    ):
        state = FleetState(
            lease_ttl=0.2, local_mining=False, max_lease_shards=1
        )
        thread, box = _start_job(state, small_matrix, small_params)
        lease = _lease_or_wait(state, "node-slow")
        start = lease["shards"][0]
        # Hold the shard well past the TTL, heartbeating all along.
        until = time.monotonic() + 0.6
        while time.monotonic() < until:
            answer = state.heartbeat("node-slow")
            assert answer["ok"] is True
            time.sleep(0.05)
        accepted = state.complete(_complete_payload(
            lease, start, node_id="node-slow"
        ))
        assert accepted == {"accepted": True}
        while thread.is_alive():
            other = state.lease("node-slow")
            if other is None:
                time.sleep(0.01)
                continue
            for s in other["shards"]:
                state.complete(_complete_payload(
                    other, s, node_id="node-slow"
                ))
        outcome, __ = _finish(thread, box)
        assert not outcome.degraded
        assert outcome.failed_attempts == {}

    def test_reported_node_failure_counts_against_the_budget(
        self, small_matrix, small_params
    ):
        state = FleetState(
            lease_ttl=30.0,
            local_mining=False,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01,
                              jitter=0.0, backoff_max=0.02),
            max_lease_shards=1,
        )
        thread, box = _start_job(state, small_matrix, small_params)
        lease = _lease_or_wait(state, "node-a")
        start = lease["shards"][0]
        answer = state.complete({
            "node_id": "node-a",
            "lease_id": lease["lease_id"],
            "job_id": lease["job_id"],
            "shard": start,
            "status": "failed",
            "error": "boom",
        })
        assert answer["accepted"] is True
        assert answer["will_retry"] is True
        while thread.is_alive():
            lease = state.lease("node-a", max_shards=1)
            if lease is None:
                time.sleep(0.01)
                continue
            for s in lease["shards"]:
                state.complete(_complete_payload(lease, s))
        outcome, provenance = _finish(thread, box)
        assert not outcome.degraded
        assert outcome.failed_attempts[start] == 1
        assert provenance[str(start)]["attempts"] == 2

    def test_unknown_job_and_malformed_completions(
        self, small_matrix, small_params
    ):
        state = FleetState(lease_ttl=30.0, local_mining=False)
        answer = state.complete({
            "node_id": "n", "lease_id": "x", "job_id": "job-ffffffffffffffff",
            "shard": 0, "status": "failed", "error": "late",
        })
        assert answer == {"accepted": False, "reason": "unknown-job"}
        with pytest.raises(ValueError):
            state.complete({"job_id": "job-0"})  # missing fields


class TestContention:
    def test_racing_nodes_are_booked_exactly_once(self, small_params):
        """Eight node threads lease, fail and complete shards at once
        while run_job books the completions: every attempt must be
        counted exactly once, whatever the interleaving."""
        n_shards = 24
        matrix = ExpressionMatrix(
            [[float(g * c + g) for c in range(n_shards)] for g in range(3)]
        )
        flaky = set(range(0, n_shards, 3))  # fail their first attempt
        state = FleetState(
            lease_ttl=30.0,
            local_mining=False,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0),
        )
        thread, box = _start_job(state, matrix, small_params)

        def node(node_id):
            while thread.is_alive():
                lease = state.lease(node_id)
                if lease is None:
                    time.sleep(0.001)
                    continue
                for start in lease["shards"]:
                    if start in flaky and lease["attempts"][str(start)] == 0:
                        state.complete({
                            "node_id": node_id,
                            "lease_id": lease["lease_id"],
                            "job_id": lease["job_id"],
                            "shard": start,
                            "status": "failed",
                            "error": "flaky",
                        })
                    else:
                        state.complete(
                            _complete_payload(lease, start, node_id=node_id)
                        )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            nodes = [
                threading.Thread(target=node, args=(f"node-{i}",))
                for i in range(8)
            ]
            for worker in nodes:
                worker.start()
            outcome, provenance = _finish(thread, box, timeout=60.0)
            for worker in nodes:
                worker.join(timeout=10.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not outcome.degraded
        assert outcome.failed_attempts == {start: 1 for start in flaky}
        assert {s: info["attempts"] for s, info in provenance.items()} == {
            str(s): 2 if s in flaky else 1 for s in range(n_shards)
        }
        assert len(outcome.result.clusters) == n_shards
        assert state.metrics_snapshot()["shards_completed"] == {
            "remote": n_shards
        }


class TestAffinity:
    def test_leases_prefer_nodes_holding_the_index(
        self, small_matrix, small_params
    ):
        state = FleetState(lease_ttl=30.0, local_mining=False)
        thread, box = _start_job(state, small_matrix, small_params)
        key = index_cache_key(
            matrix_digest(small_matrix), small_params.gamma
        )
        lease = _lease_or_wait(state, "node-warm", indexes=[key])
        assert lease["affinity_hit"] is True
        cold = state.lease("node-cold")
        if cold is not None:
            assert cold["affinity_hit"] is False
        snap = state.metrics_snapshot()
        assert snap["affinity_hits"] >= 1
        for granted in [lease] + ([cold] if cold else []):
            for start in granted["shards"]:
                state.complete(_complete_payload(
                    granted, start,
                    node_id="node-warm",
                    lease_id=granted["lease_id"],
                ))
        while thread.is_alive():
            more = state.lease("node-warm", indexes=[key])
            if more is None:
                time.sleep(0.01)
                continue
            for start in more["shards"]:
                state.complete(_complete_payload(
                    more, start, node_id="node-warm"
                ))
        _finish(thread, box)


class TestFleetService:
    def test_local_only_fleet_is_bit_identical(
        self, tmp_path, running_example, paper_params
    ):
        plain = MiningService(tmp_path / "plain")
        fleet = MiningService(tmp_path / "fleet", fleet=True)
        expected = result_to_dict(
            mine_reg_clusters(
                running_example,
                min_genes=paper_params.min_genes,
                min_conditions=paper_params.min_conditions,
                gamma=paper_params.gamma,
                epsilon=paper_params.epsilon,
            ),
            running_example,
        )
        for service in (plain, fleet):
            record = service.submit(running_example, paper_params)
            service.run_pending()
            assert service.status(record.job_id).state is JobState.DONE
            assert service.result(record.job_id) == expected

    def test_provenance_reported_on_both_paths(
        self, tmp_path, running_example, paper_params
    ):
        for name, kwargs in (
            ("plain", {}),
            ("fleet", {"fleet": True}),
        ):
            service = MiningService(tmp_path / name, **kwargs)
            record = service.submit(running_example, paper_params)
            service.run_pending()
            record = service.status(record.job_id)
            provenance = record.shard_provenance
            assert provenance is not None
            assert set(provenance) == {
                str(s) for s in range(running_example.n_conditions)
            }
            assert all(
                info == {"node": "local", "attempts": 1}
                for info in provenance.values()
            )

    def test_distributed_job_is_bit_identical_and_names_nodes(
        self, tmp_path, running_example, paper_params
    ):
        service = MiningService(
            tmp_path / "store",
            fleet=True,
            fleet_local=False,
            lease_ttl=10.0,
            trace_dir=tmp_path / "traces",
        )
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[0], server.server_address[1]
        url = f"http://{host}:{port}"
        stop = threading.Event()
        nodes = [
            FleetNode(
                url,
                node_id=f"node-{i}",
                cache_dir=tmp_path / f"node-{i}",
                poll_interval=0.02,
            )
            for i in range(2)
        ]
        node_threads = [
            threading.Thread(
                target=node.run, kwargs={"stop": stop}, daemon=True
            )
            for node in nodes
        ]
        try:
            record = service.submit(running_example, paper_params)
            for node_thread in node_threads:
                node_thread.start()
            client = ServiceClient(url)
            final = client.wait(record.job_id, timeout=60.0)
            assert final["state"] == "done"
            expected = result_to_dict(
                mine_reg_clusters(
                    running_example,
                    min_genes=paper_params.min_genes,
                    min_conditions=paper_params.min_conditions,
                    gamma=paper_params.gamma,
                    epsilon=paper_params.epsilon,
                ),
                running_example,
            )
            assert client.result(record.job_id) == expected
            provenance = final["shard_provenance"]
            miners = {info["node"] for info in provenance.values()}
            assert miners <= {"node-0", "node-1"}
            assert "local" not in miners
            # Remote shard spans stitched under the job's root trace.
            from repro.obs.trace import load_spans

            spans = load_spans(
                tmp_path / "traces" / f"{record.job_id}.trace.jsonl"
            )
            assert len({span["trace_id"] for span in spans}) == 1
            shard_spans = [s for s in spans if s["name"] == "shard"]
            assert len(shard_spans) == running_example.n_conditions
            assert {
                s["attributes"].get("node") for s in shard_spans
            } <= {"node-0", "node-1"}
            metrics = client.metrics()
            assert "repro_fleet_leases_granted_total" in metrics
            assert "repro_fleet_nodes_active" in metrics
            # Each node fetched only the matrix and built the index in
            # its own cache; no node holds a kernel.
            key = index_cache_key(record.matrix_digest, paper_params.gamma)
            for node in nodes:
                if node.shards_mined:
                    assert node.cache.index_keys() == [key]
                assert not any(
                    k.startswith("kernel-") for k in node.cache.keys()
                )
        finally:
            stop.set()
            for node_thread in node_threads:
                node_thread.join(timeout=5.0)
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_fleet_endpoints_404_when_disabled(self, tmp_path):
        from repro.service.http import ServiceError

        service = MiningService(tmp_path / "store")
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[0], server.server_address[1]
        client = ServiceClient(
            f"http://{host}:{port}", connect_retries=0
        )
        try:
            with pytest.raises(ServiceError) as err:
                client.fleet_status()
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.fleet_lease("node-a")
            assert err.value.status == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_lease_and_heartbeat_take_a_list_of_index_keys(self, tmp_path):
        from repro.service.router import Request, ServiceRouter

        router = ServiceRouter(MiningService(tmp_path / "store", fleet=True))
        body = json.dumps({"node_id": "node-a", "indexes": "index-x"})
        for path in ("/fleet/lease", "/fleet/heartbeat"):
            response = router.handle(
                Request("POST", path, body=body.encode())
            )
            assert response.status == 400
            assert b"indexes must be a list" in response.body

    def test_complete_with_number_rows_for_clusters_is_400(self, tmp_path):
        # The body decoder hands a rectangular array of numbers over as an
        # ndarray; indexing one of its rows by a key is still a malformed
        # payload, not a 500.
        from repro.service.router import Request, ServiceRouter

        router = ServiceRouter(MiningService(tmp_path / "store", fleet=True))
        body = json.dumps({
            "job_id": "job-x", "lease_id": "lease-x", "node_id": "node-a",
            "shard": 0, "start": 0, "clusters": [[1, 2]], "stats": {},
        })
        response = router.handle(
            Request("POST", "/fleet/complete", body=body.encode())
        )
        assert response.status == 400
        assert b"malformed shard payload" in response.body

    def test_artifact_endpoints_serve_by_digest(
        self, tmp_path, running_example, paper_params
    ):
        service = MiningService(tmp_path / "store", fleet=True)
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[0], server.server_address[1]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            record = service.submit(running_example, paper_params)
            raw = client.fetch_matrix(record.matrix_digest)
            assert raw == service.matrix_artifact_bytes(
                record.matrix_digest
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
