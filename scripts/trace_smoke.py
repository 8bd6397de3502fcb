"""Trace smoke test: one job, many processes, a single stitched trace.

The observability counterpart of ``scripts/serve_smoke.py``
(docs/observability.md).  Two phases:

1. **CLI tracing.**  Run ``reg-cluster mine --workers 3 --trace`` on a
   synthetic matrix through the real console entry point, then feed the
   trace file to ``reg-cluster trace summary`` and require the rendered
   per-shard breakdown.
2. **Daemon tracing under chaos.**  Run a :class:`MiningService` with a
   ``trace_dir`` and a fault plan that crashes one shard's first
   attempt.  The job's trace file must hold exactly one trace: a root
   ``job`` span, every shard span stitched under its trace id across
   the worker processes, and *both* attempts of the crashed shard (the
   failed one marked ``outcome=failed``).  A second job then runs on
   the same daemon, whose warm workers switch to its context: each
   trace file must hold exactly one root, one trace id and only its own
   job's shard spans.

Exit status 0 on success; prints a unified summary either way.
Used by ``make trace-smoke`` and the CI ``trace-smoke`` job.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.params import MiningParameters
from repro.datasets.running_example import load_running_example
from repro.datasets.synthetic import make_synthetic_dataset
from repro.obs.trace import load_spans, summarize_trace
from repro.service import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    MiningService,
    RetryPolicy,
)
from repro.service.jobs import JobState


def _phase_cli(tmp: Path) -> int:
    print("trace: phase 1 — reg-cluster mine --workers 3 --trace")
    matrix_path = tmp / "smoke.tsv"
    trace_path = tmp / "cli.trace.jsonl"
    base = [sys.executable, "-m", "repro.cli"]
    generate = subprocess.run(
        base + ["generate", "synthetic", "--out", str(matrix_path),
                "--genes", "120", "--conditions", "14", "--seed", "7"],
        capture_output=True, text=True,
    )
    if generate.returncode != 0:
        print(f"trace: FAIL — generate exited {generate.returncode}: "
              f"{generate.stderr}")
        return 1
    mine = subprocess.run(
        base + ["mine", str(matrix_path), "--min-genes", "3",
                "--min-conditions", "5", "--gamma", "0.15",
                "--epsilon", "0.1", "--workers", "3",
                "--trace", str(trace_path)],
        capture_output=True, text=True,
    )
    if mine.returncode != 0:
        print(f"trace: FAIL — mine exited {mine.returncode}: {mine.stderr}")
        return 1
    summary = subprocess.run(
        base + ["trace", "summary", str(trace_path)],
        capture_output=True, text=True,
    )
    if summary.returncode != 0:
        print(f"trace: FAIL — trace summary exited {summary.returncode}: "
              f"{summary.stderr}")
        return 1
    for needle in ("root: job", "phases (summed over shards)", "status"):
        if needle not in summary.stdout:
            print(f"trace: FAIL — summary missing {needle!r}:\n"
                  f"{summary.stdout}")
            return 1
    spans = load_spans(trace_path)
    if len({span["trace_id"] for span in spans}) != 1:
        print("trace: FAIL — CLI trace holds more than one trace id")
        return 1
    print(f"trace: CLI wrote {len(spans)} span(s) under one trace; "
          f"summary rendered")
    return 0


def _check_job_trace(path: Path, job_id: str, n_shards: int) -> str:
    """Why a daemon job's trace is wrong, or ``""``: one ``job`` root
    carrying the job id, one trace id, and a ``shard`` span for each of
    this job's shards from the worker pool, and no other job's."""
    spans = load_spans(path)
    if not spans:
        return f"no spans in {path}"
    trace_ids = {span["trace_id"] for span in spans}
    if len(trace_ids) != 1:
        return f"{len(trace_ids)} trace ids in one job trace"
    roots = [s for s in spans if s["parent_id"] is None]
    if len(roots) != 1 or roots[0]["name"] != "job":
        return f"expected one 'job' root, got {[r['name'] for r in roots]}"
    if roots[0]["attributes"].get("job_id") != job_id:
        return "root span does not carry the job id"
    shards = {
        s["attributes"].get("shard") for s in spans if s["name"] == "shard"
    }
    if shards != set(range(n_shards)):
        return f"shard spans name shards {sorted(shards)}, expected " \
            f"0..{n_shards - 1}"
    return ""


def _phase_daemon(tmp: Path) -> int:
    print("trace: phase 2 — daemon trace_dir, crash-shard retried once, "
          "then a second job on the warm pool")
    matrix = load_running_example()
    params = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )
    second = make_synthetic_dataset(
        n_genes=60, n_conditions=8, n_clusters=2, seed=8
    ).matrix
    second_params = MiningParameters(
        min_genes=3, min_conditions=4, gamma=0.2, epsilon=0.5
    )
    victim = 4
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=victim, times=1)],
        seed=5,
    )
    trace_dir = tmp / "traces"
    service = MiningService(
        tmp / "store",
        n_workers=2,
        retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        fault_plan=plan,
        trace_dir=trace_dir,
    )
    try:
        records = []
        for job_matrix, job_params in (
            (matrix, params), (second, second_params)
        ):
            record = service.submit(job_matrix, job_params)
            service.run_pending()
            done = service.status(record.job_id)
            if done.state is not JobState.DONE:
                print(f"trace: FAIL — job ended {done.state.value}: "
                      f"{done.error}")
                return 1
            records.append(record)
    finally:
        service.stop()

    for record, job_matrix in zip(records, (matrix, second)):
        problem = _check_job_trace(
            trace_dir / f"{record.job_id}.trace.jsonl",
            record.job_id,
            job_matrix.n_conditions,
        )
        if problem:
            print(f"trace: FAIL — job {record.job_id}: {problem}")
            return 1
    spans = load_spans(trace_dir / f"{records[0].job_id}.trace.jsonl")
    pids = {s["pid"] for s in spans if s["name"] == "shard"}
    if len(pids) < 2:
        print(f"trace: FAIL — shard spans came from {len(pids)} process(es);"
              f" expected the worker pool to contribute several")
        return 1
    attempts = sorted(
        span["attributes"]["attempt"]
        for span in spans
        if span["name"] == "shard"
        and span["attributes"].get("shard") == victim
    )
    if attempts != [0, 1]:
        print(f"trace: FAIL — crashed shard kept attempts {attempts}, "
              f"expected [0, 1]")
        return 1
    failed = [
        span for span in spans
        if span["name"] == "shard"
        and span["attributes"].get("shard") == victim
        and span["attributes"].get("outcome") == "failed"
    ]
    if len(failed) != 1:
        print("trace: FAIL — the crashed attempt is not marked failed")
        return 1
    rendered = summarize_trace(spans)
    if "resumed" in rendered.splitlines()[0]:
        print("trace: FAIL — fresh job rendered as resumed")
        return 1
    print(f"trace: {len(spans)} span(s) from {len(pids)} worker pid(s) "
          f"stitched under one root; crashed shard kept both attempts; "
          f"the second job's trace holds only its own spans")
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reg-cluster-trace-") as tmp:
        for phase in (_phase_cli, _phase_daemon):
            status = phase(Path(tmp))
            if status != 0:
                return status
    print("trace: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
