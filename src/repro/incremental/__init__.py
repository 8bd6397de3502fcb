"""repro.incremental — evolving matrices and parameter sweeps.

Expression compendia grow: new arrays (conditions) and genes arrive
over time, and analysts sweep gamma/epsilon grids over one matrix.

* typed matrix deltas, :func:`apply_delta` and the
  :class:`MatrixRevision` edge a revision request reports
  (:mod:`repro.incremental.delta`): a revision derives a child matrix,
  which is mined as an ordinary job;
* batched gamma/epsilon parameter sweeps that build each (matrix,
  gamma) index once (:mod:`repro.incremental.sweep`).

:mod:`repro.incremental.update` (delta updates of the index and the
kernel) and :mod:`repro.incremental.planner` (the dirty-shard planner)
are on no job path; the benchmark's layer replay still times them.

See ``docs/incremental.md`` for what a revision job does and the sweep
API.
"""

from repro.incremental.delta import (
    AppendConditions,
    AppendGenes,
    DropGenes,
    MatrixDelta,
    MatrixRevision,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
)
# Kept for perfbench/layers.py (DirtyShardPlanner); no job path plans.
from repro.incremental.planner import DirtyShardPlanner, RevisionPlan
from repro.incremental.sweep import (
    MAX_SWEEP_POINTS,
    SweepBatch,
    SweepPoint,
    SweepStore,
    compute_sweep_id,
    expand_grid,
)
# Kept for perfbench/layers.py (update_index, update_kernel); no job
# path updates an index or a kernel.
from repro.incremental.update import (
    IndexUpdate,
    KernelUpdate,
    update_index,
    update_kernel,
)

__all__ = [
    "AppendConditions",
    "AppendGenes",
    "DirtyShardPlanner",
    "DropGenes",
    "IndexUpdate",
    "KernelUpdate",
    "MatrixDelta",
    "MatrixRevision",
    "MAX_SWEEP_POINTS",
    "RevisionPlan",
    "SweepBatch",
    "SweepPoint",
    "SweepStore",
    "apply_delta",
    "compute_sweep_id",
    "delta_from_dict",
    "delta_to_dict",
    "expand_grid",
    "update_index",
    "update_kernel",
]
