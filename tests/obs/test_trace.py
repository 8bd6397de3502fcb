"""Unit tests for repro.obs.trace: spans, sinks, propagation, summary."""

from __future__ import annotations

import io
import json
import pickle

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    TraceWorkerConfig,
    Tracer,
    load_spans,
    summarize_trace,
)


class TestSpanBasics:
    def test_span_records_one_json_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("work", attributes={"k": 1}) as span:
            span.set_attribute("m", 2)
        tracer.close()
        (payload,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert payload["name"] == "work"
        assert payload["attributes"] == {"k": 1, "m": 2}
        assert payload["trace_id"] == tracer.trace_id
        assert payload["parent_id"] is None
        assert payload["duration_s"] >= 0.0

    def test_nesting_links_parent_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("outer") as outer:
            with tracer.span("inner", parent=outer):
                pass
        tracer.close()
        spans = {s["name"]: s for s in load_spans(path)}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["trace_id"] == spans["outer"]["trace_id"]

    def test_parenting_on_a_context(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        root = tracer.span("root")
        child = tracer.span("child", parent=root.context)
        assert child.parent_id == root.span_id

    def test_exception_marks_outcome_failed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        tracer.close()
        (span,) = load_spans(path)
        assert span["attributes"]["outcome"] == "failed"
        assert "RuntimeError: boom" in span["attributes"]["error"]

    def test_end_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        span = tracer.span("once")
        span.end()
        first = span.duration_s
        span.end()
        tracer.close()
        assert span.duration_s == first
        assert len(load_spans(path)) == 1

    def test_stream_sink(self):
        stream = io.StringIO()
        tracer = Tracer(stream)
        tracer.span("s").end()
        payload = json.loads(stream.getvalue())
        assert payload["name"] == "s"
        # Stream sinks cannot cross processes.
        assert tracer.worker_config(SpanContext("a", "b")) is None

    def test_overwrite_truncates_previous_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = Tracer(path)
        first.span("old").end()
        first.close()
        second = Tracer(path, overwrite=True)
        second.span("new").end()
        second.close()
        assert [s["name"] for s in load_spans(path)] == ["new"]


class TestPropagation:
    def test_span_context_pickles(self):
        ctx = SpanContext(trace_id="ab" * 8, span_id="cd" * 8)
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_worker_config_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        parent_tracer = Tracer(path)
        root = parent_tracer.span("root")
        config = parent_tracer.worker_config(root)
        config = pickle.loads(pickle.dumps(config))
        assert isinstance(config, TraceWorkerConfig)
        worker_tracer = config.tracer()
        with worker_tracer.span("child", parent=config.parent):
            pass
        worker_tracer.close()
        root.end()
        parent_tracer.close()
        spans = {s["name"]: s for s in load_spans(path)}
        assert spans["child"]["trace_id"] == spans["root"]["trace_id"]
        assert spans["child"]["parent_id"] == spans["root"]["span_id"]


class TestNullTracer:
    def test_null_tracer_is_inert(self, tmp_path):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.path is None
        with NULL_TRACER.span("anything", attributes={"k": 1}) as span:
            span.set_attribute("m", 2)
            span.set_attributes({"n": 3})
        assert NULL_TRACER.worker_config(span.context) is None
        NULL_TRACER.close()

    def test_null_span_survives_exceptions_silently(self):
        tracer = NullTracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")

    def test_real_tracer_is_enabled(self, tmp_path):
        assert Tracer(tmp_path / "t.jsonl").enabled is True


class TestLoadSpans:
    def test_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"span_id": "x", "trace_id": "t", "name": "ok",
                           "parent_id": None, "duration_s": 0.1,
                           "attributes": {}})
        path.write_text(good + "\n{torn line\n\n42\n")
        spans = load_spans(path)
        assert [s["name"] for s in spans] == ["ok"]


class TestSummarize:
    def _span(self, **kw):
        base = {"trace_id": "t1", "span_id": "s", "parent_id": None,
                "name": "job", "duration_s": 1.0, "attributes": {}}
        base.update(kw)
        return base

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="no spans"):
            summarize_trace([])

    def test_renders_root_phases_and_shard_table(self):
        spans = [
            self._span(span_id="r", attributes={"job_id": "job-1"}),
            self._span(
                span_id="a", parent_id="r", name="shard", duration_s=0.5,
                attributes={"shard": 0, "attempt": 0, "outcome": "ok",
                            "nodes_expanded": 10, "clusters_emitted": 2,
                            "time_candidates": 0.1, "time_windows": 0.3,
                            "time_emit": 0.1},
            ),
            self._span(
                span_id="b", parent_id="r", name="shard", duration_s=0.2,
                attributes={"shard": 1, "attempt": 0, "outcome": "failed"},
            ),
        ]
        rendered = summarize_trace(spans)
        assert "trace t1: 3 span(s)" in rendered
        assert "root: job" in rendered
        assert "job job-1" in rendered
        assert "candidates 0.100s" in rendered
        lines = rendered.splitlines()
        shard0 = next(l for l in lines if l.strip().startswith("0 "))
        assert "ok" in shard0 and "10" in shard0
        shard1 = next(l for l in lines if l.strip().startswith("1 "))
        assert "lost" in shard1

    def test_resumed_shards_render_as_resumed(self):
        spans = [
            self._span(span_id="r"),
            self._span(
                span_id="a", parent_id="r", name="shard.resumed",
                duration_s=0.0,
                attributes={"shard": 3, "outcome": "resumed",
                            "nodes_expanded": 7, "clusters_emitted": 1},
            ),
        ]
        rendered = summarize_trace(spans)
        assert "resumed" in rendered

    def test_reused_shards_render_as_reused_rows(self):
        # A fully reused 8-shard revision: every shard is stitched from
        # the parent job, none is mined.
        spans = [self._span(span_id="r")] + [
            self._span(
                span_id=f"s{shard}", parent_id="r", name="shard.reused",
                duration_s=0.0,
                attributes={"shard": shard, "outcome": "reused",
                            "origin": "parent", "nodes_expanded": 0,
                            "clusters_emitted": shard % 2},
            )
            for shard in range(8)
        ]
        lines = summarize_trace(spans).splitlines()
        rows = [l.split() for l in lines if l.strip()[:1].isdigit()]
        assert [row[0] for row in rows] == [str(s) for s in range(8)]
        assert {row[2] for row in rows} == {"reused"}
        assert [row[5] for row in rows] == [str(s % 2) for s in range(8)]
        assert not any(l.startswith("span shard.reused") for l in lines)

    def test_orphan_spans_are_reported(self):
        spans = [
            self._span(span_id="a", parent_id="gone", name="shard",
                       attributes={"shard": 0, "attempt": 0}),
        ]
        assert "missing parents" in summarize_trace(spans)

    def test_multiple_traces_summarized_separately(self):
        spans = [
            self._span(trace_id="t1", span_id="a"),
            self._span(trace_id="t2", span_id="b"),
        ]
        rendered = summarize_trace(spans)
        assert "trace t1" in rendered and "trace t2" in rendered
