"""Incremental-mining smoke test: evolve a matrix, stay exact.

The revision and sweep counterpart of ``scripts/serve_smoke.py``
(docs/incremental.md).  Three phases, each on a fresh store:

1. **Revision jobs, end to end.**  Mine a base matrix, then run two
   revisions of it (``append_genes``, then ``append_conditions``).
   Each is an ordinary job on its child matrix, whose RWave^gamma
   index is not yet cached, so each must report a cold build
   (``index_build == "cold"``).
2. **Bit-identity.**  Each revision job must return *exactly* the
   clusters and search statistics of mining its child from scratch in
   a pristine service — a revision job is an ordinary job on the child
   matrix.
3. **Sweep batching.**  A 2x2 gamma/epsilon sweep over the base
   matrix must build exactly one cold index per gamma (the other
   points hit the artifact cache), with every point finishing done.

Exit status 0 on success; prints a unified summary either way.
Used by ``make incremental-smoke`` and the CI ``incremental-smoke``
job.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.params import MiningParameters
from repro.incremental import AppendConditions, AppendGenes, apply_delta
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.summary import matrix_digest
from repro.service.jobs import JobState
from repro.service.service import MiningService

PARAMS = MiningParameters(
    min_genes=2, min_conditions=2, gamma=0.6, epsilon=0.1
)
N_GENES = 12
N_CONDITIONS = 10
N_APPENDED = 3


def _base_matrix() -> ExpressionMatrix:
    """A two-level synthetic matrix with clear co-regulation structure."""
    rng = np.random.default_rng(2006)
    low = rng.uniform(0.0, 2.0, size=(N_GENES, 1))
    high = low + rng.uniform(3.0, 6.0, size=(N_GENES, 1))
    choice = rng.choice([0.0, 1.0], size=(N_GENES, N_CONDITIONS))
    values = low + choice * (high - low)
    return ExpressionMatrix(values)


def _deltas(matrix: ExpressionMatrix):
    """The two revisions."""
    rng = np.random.default_rng(7)
    lo = matrix.values.min(axis=1)
    hi = matrix.values.max(axis=1)
    genes = AppendGenes(
        names=tuple(f"new{i}" for i in range(N_APPENDED)),
        values=rng.uniform(0.0, 8.0, size=(N_APPENDED, N_CONDITIONS)),
    )
    conditions = AppendConditions(
        names=tuple(f"appended{i}" for i in range(N_APPENDED)),
        values=lo[None, :] + rng.uniform(
            0.0, 1.0, size=(N_APPENDED, matrix.n_genes)
        ) * (hi - lo)[None, :],
    )
    return (genes, conditions)


def _counter(metrics_text: str, needle: str) -> int:
    pattern = re.escape(needle) + r" (\d+)"
    match = re.search(pattern, metrics_text)
    return int(match.group(1)) if match else 0


def _run_done(service: MiningService, record):
    service.run_pending()
    done = service.status(record.job_id)
    if done.state is not JobState.DONE:
        raise RuntimeError(
            f"job {record.job_id} ended {done.state.value}: {done.error}"
        )
    return done


def _phase_revisions(tmp: Path):
    matrix = _base_matrix()
    print(
        f"incremental: phase 1 — append {N_APPENDED} genes, then "
        f"{N_APPENDED} conditions, to a {N_GENES}x{N_CONDITIONS} matrix"
    )
    service = MiningService(tmp / "store", n_workers=1)
    parent = service.submit(matrix, PARAMS)
    _run_done(service, parent)
    revised = []
    for delta in _deltas(matrix):
        __, record = service.submit_revision(
            matrix_digest(matrix), delta, PARAMS
        )
        done = _run_done(service, record)
        if done.index_build != "cold":
            print(
                f"incremental: FAIL — {delta.kind} revision: expected a "
                f"cold index build, got {done.index_build!r}"
            )
            return None
        print(f"incremental: {delta.kind} revision built its index cold")
        revised.append((delta.kind, record, apply_delta(matrix, delta)))
    return service, revised


def _phase_bit_identity(tmp: Path, service, revised) -> int:
    print("incremental: phase 2 — diff each revision job vs scratch")
    scratch_service = MiningService(tmp / "scratch", n_workers=1)
    for kind, record, child in revised:
        mined = service.result(record.job_id)
        scratch_record = scratch_service.submit(child, PARAMS)
        _run_done(scratch_service, scratch_record)
        scratch = scratch_service.result(scratch_record.job_id)
        for part in ("clusters", "statistics"):
            if mined[part] != scratch[part]:
                print(
                    f"incremental: FAIL — {kind} revision {part} differ "
                    "from mining the child from scratch"
                )
                return 1
        print(
            f"incremental: {kind} revision: {len(mined['clusters'])} "
            "clusters and statistics bit-identical to the from-scratch mine"
        )
    return 0


def _phase_sweep(tmp: Path) -> int:
    print("incremental: phase 3 — 2x2 sweep, one cold index per gamma")
    matrix = _base_matrix()
    service = MiningService(tmp / "sweep-store", n_workers=1)
    batch = service.submit_sweep(
        matrix, PARAMS, gammas=[0.5, 0.7], epsilons=[0.1, 0.2]
    )
    service.run_pending()
    status = service.sweep_status(batch.sweep_id)
    if not status["finished"] or status["counts"] != {"done": 4}:
        print(f"incremental: FAIL — sweep did not finish done: {status}")
        return 1
    metrics = service.metrics.render()
    cold = _counter(
        metrics, 'repro_incremental_index_builds_total{mode="cold"}'
    )
    cached = _counter(
        metrics, 'repro_incremental_index_builds_total{mode="cached"}'
    )
    if cold != 2 or cached != 2:
        print(
            "incremental: FAIL — expected 2 cold + 2 cached index "
            f"builds for 2 gammas x 2 epsilons, got {cold} cold / "
            f"{cached} cached"
        )
        return 1
    print("incremental: 4 points done with 2 cold index builds (one "
          "per gamma), 2 cache hits")
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        staged = _phase_revisions(tmp)
        if staged is None:
            return 1
        service, revised = staged
        if _phase_bit_identity(tmp, service, revised) != 0:
            return 1
        if _phase_sweep(tmp) != 0:
            return 1
    print("incremental: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
