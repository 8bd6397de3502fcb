"""Output checks, run outside every timed region.

* one job per run (the loop's first) returns exactly the cluster list
  of an in-process ``RegClusterMiner(...).mine()`` of the same matrix,
  with the same search counters;
* every cluster any job returned passes Definition 3.2
  (``repro.core.validate``);
* on ``revision-chain`` every child's stitched result equals a scratch
  mine of that child;
* the workload's counts repeat exactly for a fixed seed, within the run
  (daemon vs in-process) and across runs of the same sources.

Jobs that do not end ``done`` are not output errors: they are counted
as failed operations.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.miner import RegClusterMiner
from repro.core.regulation import gene_thresholds
from repro.core.rwave import RWaveIndex
from repro.core.serialize import cluster_from_dict, cluster_to_dict, result_to_dict
from repro.core.validate import validation_errors


def _scratch(job: Any) -> Tuple[Any, Any]:
    index = RWaveIndex(job.matrix, job.params.gamma)
    return index, RegClusterMiner(job.matrix, job.params, index=index).mine()


def verify(inputs: Any, loop: Any) -> Tuple[List[str], Dict[str, int]]:
    """Every output check; returns (problems, the run's exact counts)."""
    problems: List[str] = []
    done = [job for job in loop.jobs if job.state == "done"]
    if not done:
        return ["no job finished done"], {}
    thresholds: Dict[Tuple[int, float], Any] = {}
    n_clusters = 0
    for job in done:
        key = (id(job.matrix), job.params.gamma)
        if key not in thresholds:
            thresholds[key] = gene_thresholds(job.matrix, job.params.gamma)
        for entry in job.clusters:
            cluster = cluster_from_dict(entry, matrix=job.matrix)
            errors = validation_errors(
                job.matrix, cluster, job.params, thresholds=thresholds[key]
            )
            if errors:
                problems.append(f"{job.job_id}: invalid cluster: {errors[0]}")
            n_clusters += 1
    if n_clusters == 0:
        problems.append("no job returned any cluster")

    first = done[0]
    index, result = _scratch(first)
    expected = [cluster_to_dict(c, first.matrix) for c in result.clusters]
    if first.clusters != expected:
        problems.append(
            f"{first.job_id}: daemon result differs from in-process mine "
            f"({len(first.clusters)} vs {len(expected)} clusters)"
        )
    in_process = result.statistics.as_dict()
    is_revision = inputs.spec.kind == "revisions"
    for name in ("nodes_expanded", "candidates_examined"):
        # Stitched revision shards carry no search counters.
        if not is_revision and first.statistics.get(name) != in_process[name]:
            problems.append(
                f"{first.job_id}: {name} {first.statistics.get(name)} "
                f"(daemon) != {in_process[name]} (in-process)"
            )
    if is_revision:
        for job in done[1:]:
            __, child = _scratch(job)
            if job.clusters != [
                cluster_to_dict(c, job.matrix) for c in child.clusters
            ]:
                problems.append(
                    f"{job.job_id}: revision result differs from a scratch "
                    f"mine of its child"
                )
    counts = {
        "rwave.index_bytes": len(
            pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        ),
        "kernels.packed_bytes": int(index.kernel.packed.nbytes),
        "serialize.payload_bytes": len(
            json.dumps(result_to_dict(result, first.matrix), sort_keys=True)
        ),
        "miner.nodes_expanded": int(first.statistics.get("nodes_expanded", 0)),
        "miner.candidates_examined": int(
            first.statistics.get("candidates_examined", 0)
        ),
    }
    return problems, counts


def _sources_digest(src: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def check_counts(
    path: Path, src: Path, workload: str, seed: int, counts: Dict[str, int]
) -> List[str]:
    """Compare with (or record) the counts of an earlier run of the same
    workload, seed and program sources; any difference is a failure."""
    key = f"{_sources_digest(src)}:{workload}:{seed}"
    try:
        seen = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        seen = {}
    before = seen.get(key)
    if before is None:
        seen[key] = counts
        path.write_text(json.dumps(seen, sort_keys=True, indent=1), "utf-8")
        return []
    return [
        f"count {name} is {counts.get(name)} but was {value} on an earlier "
        f"run of seed {seed}"
        for name, value in sorted(before.items())
        if counts.get(name) != value
    ]
