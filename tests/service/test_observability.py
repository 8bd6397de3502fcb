"""Observability of the mining service: traces, metrics, health, logs."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.obs.log import configure_logging, reset_logging
from repro.obs.trace import Tracer, load_spans, summarize_trace
from repro.service.executor import mine_sharded_outcome
from repro.service.http import ServiceClient, serve
from repro.service.jobs import JobState, parameters_to_dict
from repro.service.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.service.service import MiningService


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


class TestHealthz:
    def test_health_payload(self, stack, running_example, paper_params):
        service, client = stack
        health = client.health()
        assert health["status"] == "ok"
        assert health["executor_alive"] is True
        assert health["n_workers"] == service.n_workers
        assert health["uptime_seconds"] >= 0.0
        assert set(health["jobs"]) == {
            state.value for state in JobState
        }

    def test_job_counts_move(self, stack, running_example, paper_params):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(record["job_id"], timeout=60)
        assert client.health()["jobs"]["done"] == 1


class TestMetricsEndpoint:
    def test_families_and_format(self, stack, running_example, paper_params):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(record["job_id"], timeout=60)
        text = client.metrics()
        families = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(families) >= 10
        assert len(set(families)) == len(families)
        # Every sample line is `name{labels} value` with a float value.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part[0].isalpha() or name_part[0] == "_"
            float(value_part)  # +Inf-free sample values always parse

    def test_job_metrics_after_completion(
        self, stack, running_example, paper_params
    ):
        _, client = stack
        record = client.submit_matrix(
            running_example, parameters_to_dict(paper_params)
        )
        client.wait(record["job_id"], timeout=60)
        text = client.metrics()
        assert "repro_jobs_submitted_total 1" in text
        assert 'repro_jobs_total{state="done"} 1' in text
        assert 'repro_jobs_current{state="done"} 1' in text
        assert 'repro_jobs_current{state="running"} 0' in text
        assert "repro_job_seconds_count 1" in text
        assert "repro_mining_nodes_expanded_total 17" in text

    def test_http_requests_counted(self, stack):
        _, client = stack
        client.health()
        text = client.metrics()
        assert 'repro_http_requests_total{method="GET",status="200"}' in text
        assert "repro_http_request_seconds" in text

    def test_cache_collector_present(self, stack):
        _, client = stack
        text = client.metrics()
        assert "repro_cache_bytes" in text
        assert "repro_cache_evictions_total" in text


class TestAccessLogs:
    @pytest.fixture(autouse=True)
    def clean_logging(self):
        yield
        reset_logging()

    def _boot(self, tmp_path, quiet):
        service = MiningService(tmp_path / "store")
        server = serve(service, quiet=quiet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[0], server.server_address[1]
        client = ServiceClient(f"http://{host}:{port}")
        return service, server, thread, client

    def _shutdown(self, service, server, thread):
        service.stop()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_quiet_mode_suppresses_access_events(self, tmp_path):
        stream = io.StringIO()
        configure_logging(stream=stream, fmt="json")
        service, server, thread, client = self._boot(tmp_path, quiet=True)
        try:
            client.health()
        finally:
            self._shutdown(service, server, thread)
        events = [
            json.loads(line)["event"]
            for line in stream.getvalue().splitlines()
        ]
        assert "http.access" not in events

    def test_verbose_mode_logs_access_events(self, tmp_path):
        stream = io.StringIO()
        configure_logging(stream=stream, fmt="json")
        service, server, thread, client = self._boot(tmp_path, quiet=False)
        try:
            client.health()
        finally:
            self._shutdown(service, server, thread)
        access = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "http.access"
        ]
        assert access, "verbose server should emit http.access events"
        assert access[0]["method"] == "GET"
        assert access[0]["path"] == "/healthz"
        assert access[0]["status"] == 200
        assert access[0]["duration_ms"] >= 0


class TestTraceStitching:
    """The tentpole guarantee: many processes, one coherent trace."""

    def test_four_worker_job_stitches_under_one_root(
        self, tmp_path, running_example, paper_params
    ):
        path = tmp_path / "job.trace.jsonl"
        tracer = Tracer(path)
        root = tracer.span("job")
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            n_workers=4,
            tracer=tracer,
            trace_parent=root.context,
        )
        root.end()
        tracer.close()
        assert not outcome.missing_shards

        spans = load_spans(path)
        assert {s["trace_id"] for s in spans} == {tracer.trace_id}
        shard_spans = [s for s in spans if s["name"] == "shard"]
        assert len(shard_spans) == running_example.n_conditions
        assert {s["parent_id"] for s in shard_spans} == {root.span_id}
        assert sorted(
            s["attributes"]["shard"] for s in shard_spans
        ) == list(range(running_example.n_conditions))
        # Spans were written by several worker processes, yet stitched.
        assert len({s["pid"] for s in shard_spans}) >= 2

        # The shards' phase timers sum (within float tolerance) to the
        # job-level totals the merged result reports.
        for phase, total in outcome.result.statistics.timers.as_dict().items():
            summed = sum(
                s["attributes"].get(f"time_{phase}", 0.0)
                for s in shard_spans
            )
            assert summed == pytest.approx(total, rel=1e-6, abs=1e-9)

    def test_crash_and_retry_keeps_both_attempts(
        self, tmp_path, running_example, paper_params
    ):
        victim = 4
        path = tmp_path / "chaos.trace.jsonl"
        tracer = Tracer(path)
        root = tracer.span("job")
        outcome = mine_sharded_outcome(
            running_example,
            paper_params,
            n_workers=4,
            tracer=tracer,
            trace_parent=root.context,
            retry=RetryPolicy(max_retries=2, backoff_base=0.001),
            fault_plan=FaultPlan(
                [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=victim,
                           times=1)],
                seed=3,
            ),
        )
        root.end()
        tracer.close()
        assert not outcome.missing_shards

        spans = load_spans(path)
        attempts = {
            s["attributes"]["attempt"]: s["attributes"].get("outcome")
            for s in spans
            if s["name"] == "shard"
            and s["attributes"].get("shard") == victim
        }
        assert attempts == {0: "failed", 1: "ok"}
        rendered = summarize_trace(spans)
        assert f"{victim:>5}  {2:>8}  {'ok':<8}" in rendered


class TestServiceTraceDir:
    def test_job_trace_written_with_lifecycle_spans(
        self, tmp_path, running_example, paper_params
    ):
        trace_dir = tmp_path / "traces"
        service = MiningService(
            tmp_path / "store", n_workers=1, trace_dir=trace_dir
        )
        try:
            record = service.submit(running_example, paper_params)
            service.run_pending()
            assert service.status(record.job_id).state is JobState.DONE
        finally:
            service.stop()
        spans = load_spans(trace_dir / f"{record.job_id}.trace.jsonl")
        by_name = {s["name"] for s in spans}
        assert {"job", "matrix.load", "index", "mine",
                "result.persist"} <= by_name
        assert "kernel" not in by_name
        (job,) = [s for s in spans if s["name"] == "job"]
        assert job["parent_id"] is None
        assert job["attributes"]["job_id"] == record.job_id
        assert job["attributes"]["outcome"] == "done"

    def test_no_trace_dir_writes_nothing(
        self, tmp_path, running_example, paper_params
    ):
        service = MiningService(tmp_path / "store", n_workers=1)
        try:
            record = service.submit(running_example, paper_params)
            service.run_pending()
            assert service.status(record.job_id).state is JobState.DONE
        finally:
            service.stop()
        assert not list(tmp_path.glob("**/*.trace.jsonl"))


class TestDegradedObservability:
    def test_degraded_job_surfaces_everywhere(
        self, tmp_path, running_example, paper_params
    ):
        victim = 6
        trace_dir = tmp_path / "traces"
        service = MiningService(
            tmp_path / "store",
            n_workers=1,
            retry=RetryPolicy(max_retries=0),
            fault_plan=FaultPlan(
                [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=victim,
                           times=10 ** 6)],
                seed=1,
            ),
            trace_dir=trace_dir,
        )
        try:
            record = service.submit(running_example, paper_params)
            service.run_pending()
            done = service.status(record.job_id)
            assert done.state is JobState.DEGRADED
            text = service.metrics.render()
        finally:
            service.stop()
        assert 'repro_jobs_current{state="degraded"} 1' in text
        assert "repro_shards_lost_total 1" in text
        assert 'repro_faults_injected_total{kind="crash-shard"} 1' in text
        spans = load_spans(trace_dir / f"{record.job_id}.trace.jsonl")
        (job,) = [s for s in spans if s["name"] == "job"]
        assert job["attributes"]["outcome"] == "degraded"
        (mine,) = [s for s in spans if s["name"] == "mine"]
        assert mine["attributes"]["missing_shards"] == [victim]
