"""End-to-end tests of the HTTP front end (server + client)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.miner import mine_reg_clusters
from repro.core.serialize import result_to_dict
from repro.matrix.io import format_expression_text
from repro.service.http import ServiceClient, ServiceError, serve
from repro.service.jobs import parameters_to_dict
from repro.service.service import MiningService

#: A revision route of a well-formed (never stored) matrix digest.
REVISIONS = "/matrices/" + "a" * 64 + "/revisions"


@pytest.fixture
def stack(tmp_path):
    """A running service + HTTP server + client on an ephemeral port."""
    service = MiningService(tmp_path / "store")
    server = serve(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    host, port = server.server_address[0], server.server_address[1]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    service.stop()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestJobFlow:
    def test_submit_wait_result(self, stack, running_example, paper_params):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        assert record["state"] in ("submitted", "running", "done")
        done = client.wait(record["job_id"], timeout=60)
        assert done["state"] == "done"
        reference = mine_reg_clusters(
            running_example,
            min_genes=paper_params.min_genes,
            min_conditions=paper_params.min_conditions,
            gamma=paper_params.gamma,
            epsilon=paper_params.epsilon,
        )
        assert client.result(record["job_id"]) == result_to_dict(
            reference, running_example
        )

    def test_submit_text_payload(self, stack, running_example, paper_params):
        _, client = stack
        text = format_expression_text(running_example)
        record = client.submit_text(text, parameters_to_dict(paper_params))
        done = client.wait(record["job_id"], timeout=60)
        assert done["state"] == "done"
        payload = client.result(record["job_id"])
        assert len(payload["clusters"]) == 1

    def test_list_jobs(self, stack, running_example, paper_params):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(record["job_id"], timeout=60)
        jobs = client.list_jobs()
        assert [j["job_id"] for j in jobs] == [record["job_id"]]

    def test_resubmission_is_idempotent(self, stack, running_example,
                                        paper_params):
        _, client = stack
        first = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(first["job_id"], timeout=60)
        again = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        assert again["job_id"] == first["job_id"]
        assert again["state"] == "done"

    def test_delete_terminal_job(self, stack, running_example, paper_params):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(record["job_id"], timeout=60)
        client.cancel(record["job_id"])  # DELETE on a done job removes it
        with pytest.raises(ServiceError) as info:
            client.status(record["job_id"])
        assert info.value.status == 404


class TestErrors:
    def test_unknown_job_is_404(self, stack):
        _, client = stack
        with pytest.raises(ServiceError) as info:
            client.status("job-" + "0" * 16)
        assert info.value.status == 404
        assert "unknown job" in info.value.message

    def test_invalid_parameters_are_400(self, stack, running_example):
        _, client = stack
        with pytest.raises(ServiceError) as info:
            client.submit_matrix(
                running_example,
                {"min_genes": 3, "min_conditions": 5, "gamma": 9.0,
                 "epsilon": 0.1},
            )
        assert info.value.status == 400
        assert "gamma" in info.value.message

    def test_unknown_parameter_key_is_400(self, stack, running_example):
        _, client = stack
        with pytest.raises(ServiceError) as info:
            client.submit_matrix(
                running_example,
                {"min_genes": 3, "min_conditions": 5, "gamma": 0.15,
                 "epsilon": 0.1, "bogus": 1},
            )
        assert info.value.status == 400
        assert "unknown mining parameter" in info.value.message

    def test_result_before_done_is_409(self, tmp_path, running_example,
                                       paper_params):
        # A service whose executor never starts: jobs stay submitted.
        service = MiningService(tmp_path / "store")
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[0], server.server_address[1]
            client = ServiceClient(f"http://{host}:{port}")
            record = client.submit_matrix(
                running_example, parameters_to_dict(paper_params)
            )
            with pytest.raises(ServiceError) as info:
                client.result(record["job_id"])
            assert info.value.status == 409
            assert "not done" in info.value.message
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_unknown_route_is_404(self, stack):
        _, client = stack
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/frobnicate")
        assert info.value.status == 404

    def test_malformed_body_is_400(self, stack):
        _, client = stack
        import json
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/jobs", method="POST",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        import urllib.error
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        payload = json.loads(info.value.read().decode("utf-8"))
        assert "not valid JSON" in payload["error"]

    def test_matrix_payload_must_pick_one_kind(self, stack):
        _, client = stack
        with pytest.raises(ServiceError) as info:
            client._request(
                "POST", "/jobs",
                {
                    "matrix": {"text": "x", "values": [[1.0]]},
                    "parameters": {"min_genes": 3, "min_conditions": 5,
                                   "gamma": 0.15, "epsilon": 0.1},
                },
            )
        assert info.value.status == 400
        assert "exactly one of 'values', 'text'" in info.value.message

    def test_a_server_side_path_is_never_opened(self, tmp_path, monkeypatch):
        # A client must not make the daemon read a file it names, nor
        # learn whether the file exists.
        from repro.matrix import io
        from repro.service import router as routing

        opened = []
        monkeypatch.setattr(io, "load_expression_matrix", opened.append)
        monkeypatch.setattr(
            routing, "load_expression_matrix", opened.append, raising=False
        )
        secret = tmp_path / "secret.tsv"
        secret.write_text("gene\tc1\ng1\tsecret-token-123\n")
        handler = routing.ServiceRouter(MiningService(tmp_path / "store"))
        for path in (secret, tmp_path / "missing.tsv"):
            body = {
                "matrix": {"path": str(path)},
                "parameters": {"min_genes": 3, "min_conditions": 5,
                               "gamma": 0.15, "epsilon": 0.1},
            }
            response = handler.handle(
                routing.Request(
                    "POST", "/jobs", body=json.dumps(body).encode()
                )
            )
            assert response.status == 400
            assert json.loads(response.body) == {
                "error": "matrix must supply exactly one of 'values', 'text'"
            }
        assert opened == []


    @pytest.mark.parametrize(
        "path, body",
        [
            ("/jobs", {"matrix": {"values": {"a": 1}}}),
            ("/jobs", {"matrix": {"text": 5}}),
            ("/jobs", {"matrix": {"values": [[1, 2]], "gene_names": 5}}),
            ("/jobs", {"matrix": {"values": [[1, 2]]}, "parameters": 5}),
            (
                "/jobs",
                {
                    "matrix": {"values": [[1, 2]]},
                    "parameters": {"min_genes": 3, "min_conditions": 5,
                                   "gamma": None, "epsilon": 0.1},
                },
            ),
            (
                REVISIONS,
                {"delta": {"kind": "append_conditions", "names": 5,
                           "values": [[1.0]]}},
            ),
            (
                REVISIONS,
                {"delta": {"kind": "append_genes", "names": ["x"],
                           "values": {"x": 1}}},
            ),
            (
                "/sweeps",
                {"matrix": {"values": [[1, 2]]}, "gammas": [None],
                 "epsilons": [0.1]},
            ),
            (
                "/sweeps",
                {"matrix": {"values": [[1, 2]]}, "gammas": [0.1],
                 "epsilons": [{"a": 1}]},
            ),
        ],
    )
    def test_wrongly_typed_members_are_400(self, tmp_path, path, body):
        # The router promises never to raise: a member of the wrong JSON
        # type is the client's error, not a 500 the client retries.
        from repro.service import router as routing

        body.setdefault(
            "parameters",
            {"min_genes": 3, "min_conditions": 5, "gamma": 0.15,
             "epsilon": 0.1},
        )
        handler = routing.ServiceRouter(MiningService(tmp_path / "store"))
        response = handler.handle(
            routing.Request("POST", path, body=json.dumps(body).encode())
        )
        assert response.status == 400
        assert json.loads(response.body)["error"]

    @pytest.mark.parametrize(
        "body",
        [b"[" * 100_000, b'{"a": ' * 5_000 + b"1" + b"}" * 5_000],
        ids=["arrays", "objects"],
    )
    def test_deeply_nested_body_is_400(self, tmp_path, body):
        # Past the recursion limit the decoder cannot go on; that is
        # the client's error, not a 500 the client retries.
        from repro.service import router as routing

        handler = routing.ServiceRouter(MiningService(tmp_path / "store"))
        response = handler.handle(routing.Request("POST", "/jobs", body=body))
        assert response.status == 400
        assert json.loads(response.body) == {
            "error": "request body is nested too deeply"
        }


class TestClientEncoding:
    def test_matrix_payload_bytes_match_the_per_row_encoding(self):
        # Full-precision values: the client must send the same JSON bytes
        # a per-row float() conversion does.
        from repro.datasets.synthetic import make_synthetic_dataset
        from repro.service.http import matrix_payload

        matrix = make_synthetic_dataset(
            n_genes=300, n_conditions=12, n_clusters=30, seed=9
        ).matrix
        per_row = {
            "values": [list(map(float, row)) for row in matrix.values],
            "gene_names": list(matrix.gene_names),
            "condition_names": list(matrix.condition_names),
        }
        assert json.dumps(matrix_payload(matrix)) == json.dumps(per_row)


class TestClientRetry:
    def test_retries_connection_refused_until_the_daemon_is_up(
        self, tmp_path
    ):
        import socket
        import time

        # Reserve an ephemeral port, then bring the server up on it only
        # after a delay: the client's first attempts are refused and
        # must be retried, not surfaced.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        service = MiningService(tmp_path / "store")
        box = {}

        def late_start():
            time.sleep(0.3)
            box["server"] = serve(service, "127.0.0.1", port)
            box["server"].serve_forever()

        starter = threading.Thread(target=late_start, daemon=True)
        starter.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                connect_retries=8,
                retry_backoff=0.1,
            )
            assert client.list_jobs() == []
        finally:
            if "server" in box:
                box["server"].shutdown()
                box["server"].server_close()
            starter.join(timeout=5)
            service.stop()

    def test_raises_after_exhausting_connection_retries(self):
        import socket
        import urllib.error

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here

        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            connect_retries=1,
            retry_backoff=0.01,
        )
        with pytest.raises(urllib.error.URLError):
            client.list_jobs()

    def test_4xx_is_never_retried(self, stack):
        _, client = stack
        retrying = ServiceClient(
            client.base_url, connect_retries=5, retry_backoff=0.01
        )
        with pytest.raises(ServiceError) as info:
            retrying.status("job-" + "0" * 16)
        assert info.value.status == 404

    @pytest.mark.parametrize(
        "kwargs",
        [{"connect_retries": -1}, {"retry_backoff": -0.5}],
    )
    def test_rejects_invalid_retry_settings(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", **kwargs)

    def test_retries_connection_reset_mid_request(self, stack, monkeypatch):
        # A reset on an *established* connection surfaces outside
        # urllib's URLError wrapping — as ConnectionResetError or its
        # subclass http.client.RemoteDisconnected (a keep-alive socket
        # the server dropped between requests).  The client must retry
        # it like any transient failure, not crash the caller.
        import http.client
        import urllib.request

        _, client = stack
        real_urlopen = urllib.request.urlopen
        calls = {"n": 0}

        def flaky(request, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            if calls["n"] == 2:
                raise ConnectionResetError(104, "Connection reset by peer")
            return real_urlopen(request, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        retrying = ServiceClient(
            client.base_url, connect_retries=3, retry_backoff=0.01
        )
        assert retrying.list_jobs() == []
        assert calls["n"] == 3

    def test_metrics_scrape_retries_connection_reset(
        self, stack, monkeypatch
    ):
        import http.client
        import urllib.request

        _, client = stack
        real_urlopen = urllib.request.urlopen
        calls = {"n": 0}

        def flaky(request, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            return real_urlopen(request, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        retrying = ServiceClient(
            client.base_url, connect_retries=2, retry_backoff=0.01
        )
        assert "repro_http_requests_total" in retrying.metrics()
        assert calls["n"] == 2

    def test_connection_reset_exhausts_to_the_caller(self, monkeypatch):
        import urllib.request

        def always_reset(request, **kwargs):
            raise ConnectionResetError(104, "Connection reset by peer")

        monkeypatch.setattr(urllib.request, "urlopen", always_reset)
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=1, retry_backoff=0.01
        )
        with pytest.raises(ConnectionResetError):
            client.list_jobs()


class TestDegradedOverHTTP:
    def test_degraded_result_is_served_not_409(self, tmp_path,
                                               running_example,
                                               paper_params):
        from repro.service.resilience import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
        )

        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=6, times=100)]
        )
        service = MiningService(
            tmp_path / "store",
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            fault_plan=plan,
        )
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        try:
            host, port = server.server_address[0], server.server_address[1]
            client = ServiceClient(f"http://{host}:{port}")
            record = client.submit_matrix(
                running_example, parameters_to_dict(paper_params)
            )
            done = client.wait(record["job_id"], timeout=60)
            assert done["state"] == "degraded"
            assert done["missing_shards"] == [6]
            payload = client.result(record["job_id"])  # 200, not 409
            assert "clusters" in payload
        finally:
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
