"""The traced run: per-layer numbers for one workload.

A traced run measures three things side by side, on the same generated
inputs as the untraced run:

1. the workload's loop against an *untraced* daemon (the base of
   ``trace.overhead_frac``);
2. the same loop against a daemon started with ``--trace-dir``.  Its job
   records, result statistics, ``/metrics`` counters and span files
   give the queue wait, the miner phases, the cache hit fractions and
   the shard-driver overhead, which the program already records;
3. an in-process replay that times each layer's public function from
   outside, on the first round's input, under the bench's own spans
   (kept in memory, summarised when the run ends).

Layer timings are reported per job: a layer the workload's jobs did not
run (per the daemon's own span attributes and cache counters) counts 0.
Nothing here adds tracing to the program itself.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from workloads import (
    Inputs,
    LoopResult,
    job_body,
    matrix_json,
    percentile,
    run_loop,
    setup,
    wait_and_read,
)

from repro.core.kernels import RegulationKernel
from repro.core.miner import RegClusterMiner
from repro.core.rwave import RWaveIndex
from repro.core.serialize import result_to_dict
from repro.incremental.delta import delta_from_dict
from repro.incremental.planner import DirtyShardPlanner
from repro.incremental.update import update_index, update_kernel
from repro.matrix.summary import matrix_digest
from repro.service.executor import merge_shard_results
from repro.service.jobs import parameters_from_dict
from repro.service.router import matrix_from_payload
from repro.service.service import MiningService

#: Calls per cheap operation; their median is reported.
REPEATS = 5


@dataclass
class SpanLog:
    """The bench's own spans, one per layer call: (name, start, end).

    Kept in memory and summarised when the run ends.  The replay calls
    each layer directly, so spans never nest and a span's duration is
    its layer's self time.
    """

    spans: List[Tuple[str, float, float]] = field(default_factory=list)

    def timed(self, name: str, fn: Callable[[], Any], repeat: int = 1) -> Any:
        result = None
        for __ in range(repeat):
            start = time.perf_counter()
            result = fn()
            self.spans.append((name, start, time.perf_counter()))
        return result

    def median(self, name: str) -> float:
        """Median duration of one span name (0 when never recorded)."""
        durations = [end - start for n, start, end in self.spans if n == name]
        return statistics.median(durations) if durations else 0.0


def _trace_spans(trace_dir: Path, job_id: str) -> List[Dict[str, Any]]:
    path = trace_dir / f"{job_id}.trace.jsonl"
    try:
        lines = path.read_text("utf-8").splitlines()
    except OSError:
        return []
    return [json.loads(line) for line in lines if line.strip()]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals (parallel shards overlap)."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _job_anatomy(trace_dir: Path, job_id: str) -> Dict[str, Any]:
    """What one traced daemon job did, from its own span file."""
    spans = _trace_spans(trace_dir, job_id)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(float(s["duration_s"]) for s in by_name.get(name, []))

    def attr(name: str, key: str) -> Any:
        found = by_name.get(name)
        return found[0].get("attributes", {}).get(key) if found else None

    shards = [
        (float(s["start_unix"]), float(s["start_unix"]) + float(s["duration_s"]))
        for s in by_name.get("shard", [])
    ]
    mine = total("mine")
    return {
        "mine_s": mine,
        "shards_s": sum(hi - lo for lo, hi in shards),
        "driver_overhead_s": mine - _covered(shards),
        "checkpoint_s": total("checkpoint"),
        "matrix_load_s": total("matrix.load"),
        "index_build": attr("index", "build"),
        "kernel_build": attr("kernel", "build"),
    }


def _cache_counts(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    out = {}
    for artifact in ("index", "kernel", "result"):
        for event in ("hit", "miss", "store"):
            key = (
                f'repro_cache_events_total{{artifact="{artifact}",'
                f'event="{event}"}}'
            )
            out[f"{artifact}_{event}"] = after.get(key, 0.0) - before.get(key, 0.0)
    return out


def _merge_loops(*loops: LoopResult) -> LoopResult:
    merged = LoopResult()
    for loop in loops:
        for name in ("jobs", "submits_s", "round_spans", "rss", "late_ms"):
            getattr(merged, name).extend(getattr(loop, name))
        merged.http_failures += loop.http_failures
    return merged


def traced_run(
    src: Path, work: Path, inputs: Inputs, seconds: float
) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, int], LoopResult]:
    spec = inputs.spec
    half = seconds / 2.0
    # 1. Untraced loop (base of the tracing overhead).
    daemon, __ = setup(src, work, inputs, "plain")
    try:
        plain = run_loop(daemon, inputs, half)
    finally:
        daemon.stop()
    # 2. The same rounds against a --trace-dir daemon.
    trace_dir = work / "traces"
    daemon, __ = setup(src, work, inputs, "traced", trace_dir=trace_dir)
    try:
        before = daemon.metrics()
        traced = run_loop(daemon, inputs, half)
        cache = _cache_counts(before, daemon.metrics())
    finally:
        daemon.stop()
    done = [job for job in traced.jobs if job.state == "done"]
    anatomy = [_job_anatomy(trace_dir, job.job_id) for job in done]
    n_jobs = max(1, len(done))
    # 3. Scratch base of a revision job: the same children as plain jobs.
    is_revision = spec.kind == "revisions"
    scratch_s: List[float] = []
    if is_revision:
        scratch_s = _scratch_children(src, work, inputs, len(plain.jobs))

    log = SpanLog()
    replay = _replay(work, inputs, log)

    def frac(key: str, value: str) -> float:
        return sum(a[key] == value for a in anatomy) / n_jobs

    def med(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    get_index_s = (
        cache["index_hit"] * log.median("cache.get_index.hit")
        + cache["index_miss"] * log.median("cache.get_index.miss")
    ) / n_jobs
    get_kernel_s = (
        cache["kernel_hit"] * log.median("cache.get_kernel.hit")
        + cache["kernel_miss"] * log.median("cache.get_kernel.miss")
    ) / n_jobs
    records = [job.record for job in done]
    phase = {
        name: med([r["phase_timers"][name] for r in records if r.get("phase_timers")])
        for name in ("candidates", "windows", "emit")
    }
    first = (plain.jobs or traced.jobs)[0]
    stats = first.statistics
    metrics: Dict[str, float] = {
        # ingest
        "router.submit_s": med(traced.submits_s),
        "matrix.parse_s": log.median("matrix.parse"),
        "matrix.digest_s": log.median("matrix.digest"),
        "service.submit_s": log.median("service.submit"),
        "matrix.load_s": med([a["matrix_load_s"] for a in anatomy]),
        # result reads
        "router.result_read_s": med([j.read_s for j in done]),
        "jobs.get_s": log.median("jobs.get"),
        "jobs.update_s": log.median("jobs.update"),
        "cache.get_result_s": log.median("cache.get_result"),
        "cache.put_result_s": log.median("cache.put_result"),
        # queueing
        "queue_wait_s": med([
            r["started_at"] - r["submitted_at"] for r in records
            if r.get("started_at") is not None
        ]),
        # index and kernel
        "rwave.build_s": frac("index_build", "cold") * log.median("rwave.build"),
        "rwave.index_bytes": replay["index_bytes"],
        "cache.put_index_s": (
            cache["index_store"] / n_jobs * log.median("cache.put_index")
        ),
        "cache.get_index_s": get_index_s,
        "cache.get_kernel_s": get_kernel_s,
        "cache.index_hit_frac": _hit_frac(cache, "index"),
        "cache.kernel_hit_frac": _hit_frac(cache, "kernel"),
        # A cold kernel is built inside the daemon's ``mine`` span (lazily
        # by the miner, or by each pool worker), so the attribution below
        # counts it there, not here.
        "kernels.build_s": (
            frac("kernel_build", "cold") * log.median("kernels.build")
        ),
        "kernels.packed_bytes": replay["packed_bytes"],
        "cache.put_kernel_s": (
            cache["kernel_store"] / n_jobs * log.median("cache.put_kernel")
        ),
        # miner
        "miner.candidates_s": phase["candidates"],
        "miner.windows_s": phase["windows"],
        "miner.emit_s": phase["emit"],
        "miner.nodes_expanded": float(stats.get("nodes_expanded", 0)),
        "miner.candidates_examined": float(stats.get("candidates_examined", 0)),
        "miner.coherence_reject_frac": (
            stats.get("coherence_rejections", 0)
            / max(1, stats.get("candidates_examined", 0))
        ),
        # shard driver
        "executor.mine_s": med([a["shards_s"] for a in anatomy]),
        "executor.checkpoint_s": med([a["checkpoint_s"] for a in anatomy]),
        "executor.merge_s": log.median("executor.merge"),
        "executor.driver_overhead_s": med(
            [a["driver_overhead_s"] for a in anatomy]
        ),
        # result output
        "serialize.result_s": log.median("serialize.result"),
        "serialize.payload_bytes": replay["payload_bytes"],
        # incremental
        "incremental.update_index_s": (
            frac("index_build", "delta")
            * log.median("incremental.update_index")
        ),
        "incremental.update_kernel_s": (
            frac("kernel_build", "delta")
            * log.median("incremental.update_kernel")
        ),
        "incremental.plan_s": log.median("incremental.plan"),
        "incremental.clean_shard_frac": (
            med([
                len(r.get("reused_shards") or []) / first.matrix.n_conditions
                for r in records
            ]) if is_revision else 0.0
        ),
        "incremental.revision_vs_scratch": (
            med([j.latency_s for j in plain.jobs]) / med(scratch_s)
            if scratch_s else 0.0
        ),
    }
    # Blocking steps of one job, client submit to last page, by layer.
    mine_span = med([a["mine_s"] for a in anatomy])
    attributed = (
        metrics["router.submit_s"] + metrics["queue_wait_s"]
        + metrics["matrix.load_s"]
        + metrics["cache.get_index_s"] + metrics["rwave.build_s"]
        + metrics["incremental.update_index_s"] + metrics["cache.put_index_s"]
        + metrics["cache.get_kernel_s"] + metrics["incremental.update_kernel_s"]
        + metrics["cache.put_kernel_s"] + metrics["incremental.plan_s"]
        + mine_span
        + metrics["serialize.result_s"] + metrics["cache.put_result_s"]
        + JOB_RECORD_WRITES * metrics["jobs.update_s"]
        + metrics["router.result_read_s"]
    )
    traced_job = med([j.latency_s for j in traced.jobs])
    plain_job = med([j.latency_s for j in plain.jobs])
    metrics.update({
        "trace.job_s": traced_job,
        "trace.attributed_frac": attributed / traced_job,
        "trace.unattributed_s": traced_job - attributed,
        "trace.overhead_frac": traced_job / plain_job - 1.0,
        "bench.generator_late_p99_ms": percentile(
            plain.late_ms + traced.late_ms, 99
        ),
    })
    units = {name: _unit(name) for name in metrics}
    samples = {name: len(done) for name in metrics}
    return metrics, units, samples, _merge_loops(plain, traced)


#: Record writes on a cold job's blocking path: running, the cache-hit
#: flags, done (each a JobStore replace).
JOB_RECORD_WRITES = 3


def _hit_frac(cache: Dict[str, float], artifact: str) -> float:
    looked = cache[f"{artifact}_hit"] + cache[f"{artifact}_miss"]
    return cache[f"{artifact}_hit"] / looked if looked else 0.0


def _unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in ("miner.nodes_expanded", "miner.candidates_examined"):
        return "count"
    return "1"


def _scratch_children(
    src: Path, work: Path, inputs: Inputs, n: int
) -> List[float]:
    """Job latency of the first ``n`` revision children mined from
    scratch, as plain jobs on a fresh daemon."""
    daemon, __ = setup(src, work, inputs, "scratch")
    out = []
    try:
        for rnd in inputs.rounds[:max(1, n)]:
            body = job_body(matrix_json(rnd.matrix), rnd.params)
            t0 = time.perf_counter()
            job = daemon.client.json("POST", "/jobs", body)["job"]
            out.append(wait_and_read(
                daemon.client, job, t0, rnd.matrix, rnd.params
            ).latency_s)
    finally:
        daemon.stop()
    return out


def _replay(work: Path, inputs: Inputs, log: SpanLog) -> Dict[str, int]:
    """Time each layer's public functions on the first round's input."""
    rnd = inputs.rounds[0]
    matrix, params = rnd.matrix, rnd.params
    gamma = params.gamma

    # -- ingest: body parse, digest, MiningService.submit ------------------
    def parse() -> Any:
        payload = json.loads(rnd.body)
        if "delta" in payload:
            delta_from_dict(payload["delta"])
            return parameters_from_dict(payload["parameters"])
        matrix_from_payload(payload["matrix"])
        return parameters_from_dict(payload["parameters"])

    log.timed("matrix.parse", parse, REPEATS)
    log.timed("matrix.digest", lambda: matrix_digest(matrix), REPEATS)
    service = MiningService(work / "replay")
    parent = inputs.parent
    if parent is not None:
        service.submit(parent, params)
        parent_digest = matrix_digest(parent)
        delta = delta_from_dict(json.loads(rnd.body)["delta"])
        record = log.timed(
            "service.submit",
            lambda: service.submit_revision(parent_digest, delta, params)[1],
        )
    else:
        record = log.timed("service.submit", lambda: service.submit(matrix, params))

    # -- jobs: record reads and writes ------------------------------------
    jobs = service.jobs
    log.timed("jobs.get", lambda: jobs.get(record.job_id), REPEATS)
    log.timed(
        "jobs.update",
        lambda: jobs.update(record.job_id, progress={"nodes_expanded": 1}),
        REPEATS,
    )

    # -- rwave + kernels + cache ------------------------------------------
    cache = service.cache
    index = log.timed("rwave.build", lambda: RWaveIndex(matrix, gamma))
    index_bytes = len(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
    digest = matrix_digest(matrix)
    log.timed("cache.get_index.miss", lambda: cache.get_index(digest, gamma))
    log.timed("cache.put_index", lambda: cache.put_index(digest, gamma, index))
    log.timed("cache.get_index.hit", lambda: cache.get_index(digest, gamma))
    kernel = log.timed(
        "kernels.build",
        lambda: RegulationKernel(matrix.values, index.thresholds),
    )
    index.attach_kernel(kernel)
    log.timed("cache.get_kernel.miss", lambda: cache.get_kernel(digest, gamma))
    log.timed("cache.put_kernel", lambda: cache.put_kernel(digest, gamma, kernel))
    log.timed("cache.get_kernel.hit", lambda: cache.get_kernel(digest, gamma))

    # -- incremental (revision-chain only) -------------------------------
    if parent is not None:
        parent_index = RWaveIndex(parent, gamma)
        parent_kernel = parent_index.kernel
        log.timed(
            "incremental.update_index",
            lambda: update_index(parent_index, matrix, delta),
        )
        log.timed(
            "incremental.update_kernel",
            lambda: update_kernel(
                parent_kernel, parent, matrix, delta, gamma=gamma
            ),
        )
        log.timed(
            "incremental.plan",
            lambda: DirtyShardPlanner().plan(parent, matrix, delta, gamma),
        )

    # -- miner -> executor merge -> serialize -> result cache -------------
    result = RegClusterMiner(matrix, params, index=index).mine()
    grouped: Dict[int, List[Any]] = {c: [] for c in range(matrix.n_conditions)}
    for cluster in result.clusters:
        grouped[cluster.chain[0]].append(cluster)
    shards = [(start, grouped[start], {}) for start in grouped]
    log.timed("executor.merge", lambda: merge_shard_results(shards, params), REPEATS)
    payload = log.timed(
        "serialize.result", lambda: result_to_dict(result, matrix), REPEATS
    )
    log.timed(
        "cache.put_result", lambda: cache.put_result(record.job_id, payload),
        REPEATS,
    )
    log.timed(
        "cache.get_result", lambda: cache.get_result(record.job_id), REPEATS
    )
    return {
        "index_bytes": index_bytes,
        "packed_bytes": int(kernel.packed.nbytes),
        "payload_bytes": len(json.dumps(payload, sort_keys=True)),
    }
