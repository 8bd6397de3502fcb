"""Incremental-mining smoke test: evolve a matrix, reuse, stay exact.

The delta-aware counterpart of ``scripts/serve_smoke.py``
(docs/incremental.md).  Three phases, each on a fresh store:

1. **Revision reuse, end to end.**  Mine a base matrix, append three
   in-range conditions (every Eq. 4 threshold stays float-identical),
   and run the revision job.  The job must reuse at least as many
   shards as the :class:`~repro.incremental.DirtyShardPlanner`
   classifies clean (``JobRecord.reused_shards`` is the provenance),
   must obtain its RWave^gamma index through the parent's instead of a
   cold build (``index_build == "delta"``), and the counters in the
   rendered metrics must agree.
2. **Bit-identity.**  The stitched child result must have *exactly*
   the clusters of mining the child from scratch in a pristine
   service — reuse is an optimization, never an approximation.
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
from repro.incremental import AppendConditions, DirtyShardPlanner, apply_delta
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


def _in_range_delta(matrix: ExpressionMatrix) -> AppendConditions:
    """Three new conditions strictly inside every gene's [min, max].

    Keeping appended values in range keeps each gene's Eq. 4 threshold
    ``gamma * (max - min)`` float-identical, which is what makes clean
    shards possible at all.
    """
    rng = np.random.default_rng(7)
    lo = matrix.values.min(axis=1)
    hi = matrix.values.max(axis=1)
    # Near the midpoint every gap to an existing level is about half
    # the range — well under the gamma=0.6 threshold — so the appended
    # conditions gain no up-regulation edges and the old shards stay
    # clean for the planner.
    frac = rng.uniform(0.45, 0.55, size=(N_APPENDED, matrix.n_genes))
    return AppendConditions(
        names=tuple(f"appended{i}" for i in range(N_APPENDED)),
        values=lo[None, :] + frac * (hi - lo)[None, :],
    )


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


def _phase_revision_reuse(tmp: Path):
    matrix = _base_matrix()
    delta = _in_range_delta(matrix)
    child = apply_delta(matrix, delta)
    plan = DirtyShardPlanner().plan(matrix, child, delta, PARAMS.gamma)
    print(
        f"incremental: phase 1 — append {N_APPENDED} in-range conditions; "
        f"planner says {len(plan.clean_shards)}/{plan.n_shards} shards clean"
    )
    service = MiningService(tmp / "store", n_workers=1)
    parent = service.submit(matrix, PARAMS)
    _run_done(service, parent)
    revision, record = service.submit_revision(
        matrix_digest(matrix), delta, PARAMS
    )
    done = _run_done(service, record)
    reused = done.reused_shards or []
    if len(reused) < len(plan.clean_shards):
        print(
            f"incremental: FAIL — reused {len(reused)} shards but the "
            f"planner found {len(plan.clean_shards)} clean"
        )
        return None
    if done.index_build != "delta":
        print(
            "incremental: FAIL — expected a delta index build, got "
            f"{done.index_build!r}"
        )
        return None
    if done.revision_parent != parent.job_id:
        print(
            "incremental: FAIL — revision_parent is "
            f"{done.revision_parent!r}, expected {parent.job_id!r}"
        )
        return None
    metrics = service.metrics.render()
    reused_counted = _counter(
        metrics, 'repro_incremental_shards_total{source="reused"}'
    )
    delta_builds = _counter(
        metrics, 'repro_incremental_index_builds_total{mode="delta"}'
    )
    if reused_counted != len(reused) or delta_builds < 1:
        print(
            "incremental: FAIL — metrics disagree with the record "
            f"(reused {reused_counted} vs {len(reused)}, "
            f"delta builds {delta_builds})"
        )
        return None
    print(
        f"incremental: reused {len(reused)}/{plan.n_shards} shards, "
        f"index delta-updated (metrics agree)"
    )
    return service, record, child


def _phase_bit_identity(tmp: Path, service, record, child) -> int:
    print("incremental: phase 2 — diff the stitched child vs scratch")
    stitched = service.result(record.job_id)
    scratch_service = MiningService(tmp / "scratch", n_workers=1)
    scratch_record = scratch_service.submit(child, PARAMS)
    _run_done(scratch_service, scratch_record)
    scratch = scratch_service.result(scratch_record.job_id)
    if stitched["clusters"] != scratch["clusters"]:
        print(
            "incremental: FAIL — stitched clusters differ from mining "
            "the child from scratch"
        )
        return 1
    print(
        f"incremental: {len(stitched['clusters'])} clusters bit-identical "
        "to the from-scratch mine"
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
        staged = _phase_revision_reuse(tmp)
        if staged is None:
            return 1
        service, record, child = staged
        if _phase_bit_identity(tmp, service, record, child) != 0:
            return 1
        if _phase_sweep(tmp) != 0:
            return 1
    print("incremental: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
