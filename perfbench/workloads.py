"""The three workloads: seeded inputs, set-up, and the timed loop.

Every input (matrices and deltas) is generated from the run's
``--seed`` and JSON-encoded *before* the timed region, so client-side
encoding never counts against a latency.  The daemon only ever sees the
generated bodies.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from daemon import Client, Daemon, HttpError

from repro.bench.runner import paper_mining_parameters
from repro.core.params import MiningParameters
from repro.datasets.synthetic import make_synthetic_dataset
from repro.incremental.delta import AppendConditions, apply_delta, delta_to_dict
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.summary import matrix_digest
from repro.service.jobs import parameters_to_dict

#: Clusters per ``GET /jobs/<id>/result`` page.
PAGE = 16
#: RSS samples per second.
SAMPLE_RATE = 20.0
#: Set-ups per run (``setup_s`` is their median): at least
#: ``MIN_SETUPS``, and more while less than ``SETUP_BUDGET_S`` seconds
#: went into set-up, so that a sub-second set-up is sampled often enough.
MIN_SETUPS = 3
MAX_SETUPS = 8
SETUP_BUDGET_S = 3.0


@dataclass(frozen=True)
class Spec:
    """One workload's shape and load (see README.md for the why)."""

    name: str
    n_genes: int
    n_conditions: int
    workers: int
    kind: str  # "jobs" or "revisions"
    #: most closed-loop rounds one run may need (bodies pre-encoded)
    max_rounds: int


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("fig7-cold", 8000, 40, 1, "jobs", 12),
        Spec("fig7-pool", 3000, 30, 2, "jobs", 36),
        Spec("revision-chain", 3000, 30, 1, "revisions", 30),
    )
}


def fig7_matrix(n_genes: int, n_conditions: int, seed: int) -> ExpressionMatrix:
    """A paper Fig. 7 generator matrix (#clus = 30)."""
    return make_synthetic_dataset(
        n_genes=n_genes, n_conditions=n_conditions, n_clusters=30, seed=seed
    ).matrix


def matrix_json(matrix: ExpressionMatrix) -> str:
    return json.dumps({"values": matrix.values.tolist()})


def job_body(matrix_text: str, params: MiningParameters) -> bytes:
    return (
        '{"matrix": ' + matrix_text + ', "parameters": '
        + json.dumps(parameters_to_dict(params)) + "}"
    ).encode("utf-8")


def in_range_delta(
    parent: ExpressionMatrix, rng: np.random.Generator, tag: str
) -> AppendConditions:
    """Two appended conditions strictly inside every gene's range, so
    every Eq. 4 threshold (and so every parent kernel plane) survives."""
    lo = parent.values.min(axis=1)
    hi = parent.values.max(axis=1)
    frac = rng.uniform(0.05, 0.95, size=(2, parent.n_genes))
    return AppendConditions(
        names=(f"{tag}a", f"{tag}b"),
        values=lo[None, :] + frac * (hi - lo)[None, :],
    )


@dataclass
class Round:
    """One closed-loop round: a job or a revision."""

    body: bytes
    path: str
    #: matrix the round's job mines (revision: the child)
    matrix: ExpressionMatrix
    params: MiningParameters


@dataclass
class Inputs:
    """Everything a run sends, generated from the seed up front."""

    spec: Spec
    #: set-up preload: a plain job mined before the timed loop
    preload: Round
    rounds: List[Round]
    #: revision-chain parent (None elsewhere)
    parent: Optional[ExpressionMatrix] = None


def make_inputs(spec: Spec, seed: int) -> Inputs:
    params = paper_mining_parameters(spec.n_genes)
    base = seed * 1000
    if spec.kind == "jobs":
        # A tiny job pays the daemon's first-job warm-up in set-up, so the
        # first timed job is not an outlier.
        warm = fig7_matrix(300, 12, base + 999)
        warm_params = paper_mining_parameters(300)
        preload = Round(
            job_body(matrix_json(warm), warm_params), "/jobs", warm,
            warm_params,
        )
        rounds = []
        for i in range(spec.max_rounds):
            matrix = fig7_matrix(spec.n_genes, spec.n_conditions, base + i)
            rounds.append(Round(
                job_body(matrix_json(matrix), params), "/jobs", matrix, params,
            ))
        return Inputs(spec, preload, rounds)
    matrix = fig7_matrix(spec.n_genes, spec.n_conditions, base)
    rng = np.random.default_rng(seed)
    # revisions: every round is a fresh delta against the same parent.
    preload = Round(
        job_body(matrix_json(matrix), params), "/jobs", matrix, params
    )
    path = f"/matrices/{matrix_digest(matrix)}/revisions"
    rounds = []
    for i in range(spec.max_rounds):
        delta = in_range_delta(matrix, rng, f"rev{i}")
        body = json.dumps({
            "delta": delta_to_dict(delta),
            "parameters": parameters_to_dict(params),
        }).encode("utf-8")
        rounds.append(Round(body, path, apply_delta(matrix, delta), params))
    return Inputs(spec, preload, rounds, parent=matrix)


# ----------------------------------------------------------------------
# Driving the daemon
# ----------------------------------------------------------------------


@dataclass
class JobOutcome:
    job_id: str
    state: str
    record: Dict[str, Any]
    #: every cluster of the result, in order (None unless done)
    clusters: Optional[List[Dict[str, Any]]]
    statistics: Dict[str, int]
    #: seconds from the round's start to the last result page read
    latency_s: float
    #: seconds spent paging the result
    read_s: float
    matrix: ExpressionMatrix
    params: MiningParameters


def wait_and_read(
    client: Client, job: Dict[str, Any], t0: float,
    matrix: ExpressionMatrix, params: MiningParameters,
) -> JobOutcome:
    """Long-poll one job to a terminal state, then page its result."""
    job_id = job["job_id"]
    state = job["state"]
    while state in ("submitted", "running"):
        job = client.json("GET", f"/jobs/{job_id}?wait=30&state={state}")["job"]
        state = job["state"]
    clusters: Optional[List[Dict[str, Any]]] = None
    stats: Dict[str, int] = {}
    read_from = time.perf_counter()
    if state == "done":
        clusters = []
        offset: Optional[int] = 0
        while offset is not None:
            page = client.json(
                "GET", f"/jobs/{job_id}/result?offset={offset}&limit={PAGE}"
            )
            clusters.extend(page["clusters"])
            stats = page["statistics"]
            offset = page["page"]["next_offset"]
    end = time.perf_counter()
    return JobOutcome(
        job_id, state, job, clusters, stats, end - t0, end - read_from,
        matrix, params,
    )


def setup(
    src: Path, work: Path, inputs: Inputs, tag: str,
    trace_dir: Optional[Path] = None,
) -> Tuple[Daemon, float]:
    """Spawn a daemon on a fresh store and mine the workload's preload;
    returns the daemon and the seconds this took."""
    t0 = time.perf_counter()
    daemon = Daemon(
        src, work / f"store-{tag}", workers=inputs.spec.workers,
        trace_dir=trace_dir,
    )
    try:
        rnd = inputs.preload
        job = daemon.client.json("POST", rnd.path, rnd.body)["job"]
        outcome = wait_and_read(daemon.client, job, t0, rnd.matrix, rnd.params)
        if outcome.state != "done":
            raise RuntimeError(f"set-up job {outcome.job_id} is {outcome.state}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0


@dataclass
class LoopResult:
    #: job latency, submit to last result page read, one per round
    jobs: List[JobOutcome] = field(default_factory=list)
    submits_s: List[float] = field(default_factory=list)
    #: (start, end) of every round, on the perf_counter clock
    round_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, daemon + workers RSS in KiB), sampled by the side thread
    rss: List[Tuple[float, int]] = field(default_factory=list)
    #: how late the side thread ran behind its schedule, per tick
    late_ms: List[float] = field(default_factory=list)
    http_failures: int = 0

    @property
    def attempted(self) -> int:
        return len(self.jobs) + self.http_failures

    @property
    def failed(self) -> int:
        """Jobs that did not end ``done`` plus requests that failed after
        client retries (429s included)."""
        return sum(j.state != "done" for j in self.jobs) + self.http_failures


class RssSampler(threading.Thread):
    """The bench's second thread: samples the daemon's RSS (workers
    included) every ``1/SAMPLE_RATE`` seconds on a fixed schedule."""

    def __init__(self, daemon: Daemon, start_at: float, stop_at: float):
        super().__init__(name="perfbench-rss", daemon=True)
        self.daemon_proc = daemon
        self.start_at = start_at
        self.stop_at = stop_at
        self.rss: List[Tuple[float, int]] = []
        self.late_ms: List[float] = []

    def run(self) -> None:
        tick = 0
        while True:
            due = self.start_at + tick / SAMPLE_RATE
            if due >= self.stop_at:
                return
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            self.late_ms.append((sent - due) * 1e3)
            self.rss.append((sent, self.daemon_proc.rss_kb()))
            tick += 1


def run_loop(
    daemon: Daemon, inputs: Inputs, seconds: float
) -> LoopResult:
    """The closed loop (one client, one connection) plus the sampler."""
    out = LoopResult()
    client = daemon.client
    t_start = time.perf_counter()
    sampler = RssSampler(daemon, t_start, t_start + seconds)
    sampler.start()
    try:
        for rnd in inputs.rounds:
            if time.perf_counter() - t_start >= seconds:
                break
            t0 = time.perf_counter()
            try:
                reply = client.json("POST", rnd.path, rnd.body)
            except HttpError:
                out.http_failures += 1
                continue
            out.submits_s.append(time.perf_counter() - t0)
            out.jobs.append(wait_and_read(
                client, reply["job"], t0, rnd.matrix, rnd.params
            ))
            out.round_spans.append((t0, time.perf_counter()))
    finally:
        sampler.stop_at = 0.0
        sampler.join()
    out.rss = sampler.rss
    out.late_ms = sampler.late_ms
    return out


def peak_rss_mb(loop: LoopResult) -> float:
    """Median over rounds of the highest RSS sampled while each ran."""
    peaks = []
    for start, end in loop.round_spans:
        inside = [kb for at, kb in loop.rss if start <= at <= end]
        if inside:
            peaks.append(max(inside))
    return float(np.median(peaks)) / 1024.0 if peaks else 0.0


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    return float(np.percentile(values, q))
