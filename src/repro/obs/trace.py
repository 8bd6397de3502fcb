"""Tracing: nested spans over a JSONL sink (stdlib only).

A :class:`Tracer` produces :class:`Span` objects — named intervals with
a wall-clock start (``time.time``), a monotonic duration
(``time.perf_counter``), random 64-bit span ids and arbitrary key-value
attributes.  Every finished span is written as one JSON line to the
tracer's sink, so a trace file can be tailed while a job runs and
parsed with nothing but :func:`json.loads`.

Cross-process propagation
-------------------------
The mining service shards one job across a
:class:`~concurrent.futures.ProcessPoolExecutor`; a span cannot cross
that boundary, but its *context* can.  :class:`SpanContext` is a tiny
frozen (picklable) dataclass carrying ``(trace_id, span_id)``;
:meth:`Tracer.worker_config` packages it with the sink path into a
:class:`TraceWorkerConfig` that ships in the run's worker context.
Each worker then builds its own :class:`Tracer` appending to the *same*
file — one ``write()`` of one ``O_APPEND`` line per span keeps
concurrent writers from interleaving — and parents its shard spans on
the inherited context, so the shards of a 4-worker job stitch under a
single job root span (see ``docs/observability.md``).

Disabled tracing is free: every instrumentation site holds either a
``None`` (guarded by one ``is not None`` test) or a :class:`NullTracer`
whose spans are inert singletons.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import (
    Any,
    Dict,
    IO,
    List,
    Mapping,
    Optional,
    Sequence,
    Type,
    Union,
)

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceWorkerConfig",
    "load_spans",
    "summarize_trace",
]


def _new_id() -> str:
    """A random 64-bit hex id (span and trace identifiers)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span: enough to parent children on.

    >>> import pickle
    >>> ctx = SpanContext(trace_id="aa" * 8, span_id="bb" * 8)
    >>> pickle.loads(pickle.dumps(ctx)) == ctx
    True
    """

    trace_id: str
    span_id: str


class Span:
    """One named, attributed interval of a trace.

    Spans are context managers; leaving the ``with`` block ends the
    span, and an exception on the way out is recorded as ``error`` /
    ``outcome=failed`` attributes before propagating.  :meth:`end` is
    idempotent — the span is written to the sink exactly once.
    """

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        *,
        parent_id: Optional[str] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = tracer.trace_id if tracer is not None else ""
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self.duration_s: Optional[float] = None
        self._tracer = tracer

    @property
    def context(self) -> SpanContext:
        """The propagatable identity of this span."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one key-value attribute."""
        self.attributes[key] = value

    def set_attributes(self, attributes: Mapping[str, Any]) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def end(self) -> None:
        """Close the span and write it to the sink (idempotent)."""
        if self.duration_s is not None:
            return
        self.duration_s = time.perf_counter() - self._start_perf
        if self._tracer is not None:
            self._tracer._record(self)

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL wire form of this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "pid": os.getpid(),
            "attributes": self.attributes,
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc is not None:
            self.set_attribute("outcome", "failed")
            self.set_attribute("error", f"{type(exc).__name__}: {exc}")
        self.end()

    def __repr__(self) -> str:
        state = "open" if self.duration_s is None else "ended"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan(Span):
    """An inert span: accepts the full API, records nothing."""

    def __init__(self) -> None:
        super().__init__(None, "null")

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, attributes: Mapping[str, Any]) -> None:
        pass

    def end(self) -> None:
        pass

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        pass


@dataclass(frozen=True)
class TraceWorkerConfig:
    """Everything a pool worker needs to join an existing trace.

    Picklable by construction (a path string plus a
    :class:`SpanContext`); shipped in a pool run's worker context by
    :mod:`repro.service.executor`.
    """

    path: str
    parent: SpanContext

    def tracer(self) -> "Tracer":
        """A worker-side tracer appending to the shared trace file."""
        return Tracer(self.path, trace_id=self.parent.trace_id)


class Tracer:
    """Writes finished spans as JSON lines to a file or stream sink.

    Parameters
    ----------
    sink:
        A path (opened lazily in append mode — the cross-process case)
        or an open text stream (tests).
    trace_id:
        Join an existing trace instead of starting a new one (worker
        processes inherit the parent's id).
    overwrite:
        With a path sink: truncate any previous trace file up front.
        The service uses this so re-running a job replaces its trace.
    """

    def __init__(
        self,
        sink: Union[str, Path, IO[str]],
        *,
        trace_id: Optional[str] = None,
        overwrite: bool = False,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self._lock = threading.Lock()
        self._path: Optional[Path] = None
        self._stream: Optional[IO[str]] = None
        self._owns_stream = False
        if isinstance(sink, (str, Path)):
            self._path = Path(sink)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            if overwrite and self._path.exists():
                self._path.unlink()
        else:
            self._stream = sink

    @property
    def enabled(self) -> bool:
        """Whether spans from this tracer are recorded at all."""
        return True

    @property
    def path(self) -> Optional[Path]:
        """The sink path (``None`` for stream-backed tracers)."""
        return self._path

    def span(
        self,
        name: str,
        *,
        parent: Optional[Union[Span, SpanContext]] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Span:
        """Open a span; parent it explicitly on a span or a context."""
        parent_id: Optional[str] = None
        if isinstance(parent, Span):
            parent_id = parent.span_id
        elif isinstance(parent, SpanContext):
            parent_id = parent.span_id
        return Span(self, name, parent_id=parent_id, attributes=attributes)

    def worker_config(
        self, parent: Union[Span, SpanContext]
    ) -> Optional[TraceWorkerConfig]:
        """The picklable hand-off for pool workers (``None`` when the
        sink is a stream, which cannot be shared across processes)."""
        if self._path is None:
            return None
        context = parent.context if isinstance(parent, Span) else parent
        return TraceWorkerConfig(path=str(self._path), parent=context)

    def emit(self, payload: Mapping[str, Any]) -> None:
        """Append one already-serialized span dict to the sink.

        The cross-*node* stitching seam: a fleet node ships the span
        dicts of its remotely mined shards back in the ``complete``
        payload, and the coordinator emits them into the job's trace
        file verbatim — same trace_id, same parent ids, so
        :func:`load_spans` sees one stitched trace.  The payload must
        already carry ``span_id`` (and normally ``trace_id`` /
        ``parent_id``); no validation beyond JSON-serializability is
        applied.
        """
        self._write_line(json.dumps(dict(payload), sort_keys=True))

    def _record(self, span: Span) -> None:
        self._write_line(json.dumps(span.to_dict(), sort_keys=True))

    def _write_line(self, line: str) -> None:
        with self._lock:
            if self._stream is None:
                assert self._path is not None
                # One append-mode write per span: O_APPEND makes each
                # line atomic w.r.t. the other worker processes.  The
                # lazy open must happen under the tracer lock (it is
                # the write it guards), so RL303 is suppressed here.
                self._stream = open(  # reglint: disable=RL303
                    self._path, "a", encoding="utf-8"
                )
                self._owns_stream = True
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Flush and close a stream the tracer opened itself."""
        with self._lock:
            if self._owns_stream and self._stream is not None:
                self._stream.close()
                self._stream = None
                self._owns_stream = False


class NullTracer(Tracer):
    """The disabled tracer: every span is an inert singleton.

    >>> tracer = NullTracer()
    >>> with tracer.span("anything", attributes={"k": 1}) as span:
    ...     span.set_attribute("more", 2)
    >>> tracer.worker_config(span.context) is None
    True
    """

    def __init__(self) -> None:
        self.trace_id = ""
        self._null_span = _NullSpan()

    @property
    def enabled(self) -> bool:
        return False

    @property
    def path(self) -> Optional[Path]:
        return None

    def span(
        self,
        name: str,
        *,
        parent: Optional[Union[Span, SpanContext]] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Span:
        return self._null_span

    def worker_config(
        self, parent: Union[Span, SpanContext]
    ) -> Optional[TraceWorkerConfig]:
        return None

    def emit(self, payload: Mapping[str, Any]) -> None:
        pass

    def _record(self, span: Span) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared inert tracer for call sites that want an object, not ``None``.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------

def load_spans(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file; malformed lines are skipped.

    A torn line can only be the file's last write (append-mode line
    writes), so skipping it is safe — the trace merely misses the span
    that was being written when the process died.
    """
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict) and "span_id" in payload:
                spans.append(payload)
    return spans


_PHASES = ("candidates", "windows", "emit")


def _format_seconds(value: float) -> str:
    return f"{value:.3f}s"


def _summarize_one(spans: Sequence[Mapping[str, Any]]) -> str:
    """Render one trace's per-phase / per-shard breakdown."""
    by_id = {str(span["span_id"]): span for span in spans}
    roots = [span for span in spans if span.get("parent_id") is None]
    lines: List[str] = []
    trace_id = str(spans[0].get("trace_id", "?"))
    lines.append(f"trace {trace_id}: {len(spans)} span(s)")
    for root in roots:
        duration = float(root.get("duration_s") or 0.0)
        attrs = root.get("attributes", {})
        suffix = ""
        if isinstance(attrs, dict) and attrs.get("job_id"):
            suffix = f"  job {attrs['job_id']}"
        lines.append(
            f"root: {root.get('name')}  wall {_format_seconds(duration)}"
            f"{suffix}"
        )

    shard_spans = [s for s in spans if s.get("name") == "shard"]
    # Shards answered from this job's checkpoints instead of mining.
    resumed = [s for s in spans if s.get("name") == "shard.resumed"]
    phase_totals = {phase: 0.0 for phase in _PHASES}
    for span in shard_spans + resumed:
        attrs = span.get("attributes", {})
        if not isinstance(attrs, dict):
            continue
        for phase in _PHASES:
            phase_totals[phase] += float(attrs.get(f"time_{phase}", 0.0))
    lines.append(
        "phases (summed over shards): "
        + " | ".join(
            f"{phase} {_format_seconds(phase_totals[phase])}"
            for phase in _PHASES
        )
    )

    # Per-shard table: every attempt contributes a row aggregate.
    per_shard: Dict[int, Dict[str, Any]] = {}
    for span in shard_spans:
        attrs = span.get("attributes", {})
        if not isinstance(attrs, dict) or "shard" not in attrs:
            continue
        shard = int(attrs["shard"])
        row = per_shard.setdefault(
            shard,
            {"attempts": 0, "ok": False, "wall": 0.0, "nodes": 0,
             "clusters": 0, "status": None},
        )
        row["attempts"] += 1
        row["wall"] += float(span.get("duration_s") or 0.0)
        if attrs.get("outcome") == "ok":
            row["ok"] = True
            row["nodes"] = int(attrs.get("nodes_expanded", 0))
            row["clusters"] = int(attrs.get("clusters_emitted", 0))
    for span in resumed:
        attrs = span.get("attributes", {})
        if not isinstance(attrs, dict) or "shard" not in attrs:
            continue
        shard = int(attrs["shard"])
        per_shard[shard] = {
            "attempts": 0,
            "ok": True,
            "wall": 0.0,
            "nodes": int(attrs.get("nodes_expanded", 0)),
            "clusters": int(attrs.get("clusters_emitted", 0)),
            "status": "resumed",
        }
    if per_shard:
        lines.append(
            f"{'shard':>5}  {'attempts':>8}  {'status':<8}  "
            f"{'wall':>9}  {'nodes':>8}  {'clusters':>8}"
        )
        for shard in sorted(per_shard):
            row = per_shard[shard]
            status = row["status"] or ("ok" if row["ok"] else "lost")
            lines.append(
                f"{shard:>5}  {row['attempts']:>8}  {status:<8}  "
                f"{_format_seconds(row['wall']):>9}  {row['nodes']:>8}  "
                f"{row['clusters']:>8}"
            )

    other = [
        s for s in spans
        if s.get("name") not in ("shard", "shard.resumed")
        and s.get("parent_id") is not None
    ]
    for span in other:
        lines.append(
            f"span {span.get('name')}  "
            f"wall {_format_seconds(float(span.get('duration_s') or 0.0))}"
        )
    # Orphan diagnostics: spans whose parent never made it to the file
    # (e.g. a worker hard-killed mid-job) still count, but say so.
    orphans = [
        s for s in spans
        if s.get("parent_id") is not None
        and str(s.get("parent_id")) not in by_id
    ]
    if orphans:
        lines.append(f"warning: {len(orphans)} span(s) with missing parents")
    return "\n".join(lines)


def summarize_trace(spans: Sequence[Mapping[str, Any]]) -> str:
    """Per-phase / per-shard wall-clock breakdown of a span list.

    Multiple traces in one file (e.g. a job re-run appended) are
    summarized separately in file order.
    """
    if not spans:
        raise ValueError("trace contains no spans")
    order: List[str] = []
    groups: Dict[str, List[Mapping[str, Any]]] = {}
    for span in spans:
        trace_id = str(span.get("trace_id", "?"))
        if trace_id not in groups:
            groups[trace_id] = []
            order.append(trace_id)
        groups[trace_id].append(span)
    return "\n\n".join(_summarize_one(groups[tid]) for tid in order)
