"""Benchmark-regression gate: pinned workloads, JSON snapshots, tolerance.

The miner's performance work (chain extensions enumerated from the
RWave^gamma index's sorted order and pointer bounds, walked and scored
by a native kernel once per search node) needs a gate that keeps it
from silently eroding.  This module provides one:

* a **pinned suite** of mining workloads — the paper's running example,
  fixed-seed Figure 7 generator points and cuts of the Figure 8 yeast
  surrogate mined with the section 5.2 parameters (a search of many
  small nodes) — every case fully determined by pinned seeds, so two
  runs on one machine measure the same search;
* a **snapshot** format, ``BENCH_<rev>.json``: per-case wall time,
  nodes/second, peak RSS and the miner's phase breakdown (candidate
  generation / window partition / emission), plus enough metadata to
  interpret the numbers later;
* a **compare** step that diffs a fresh snapshot against a committed
  baseline with a configurable tolerance and fails (exit code 1) on
  regression, or when the two snapshots timed different searches.

Run it via ``make bench-regression`` or directly::

    python -m repro.bench.regression run --out BENCH_kernels.json
    python -m repro.bench.regression run --legacy --out BENCH_baseline.json
    python -m repro.bench.regression compare BENCH_kernels.json \
        BENCH_baseline.json --tolerance 0.3

``--legacy`` times the legacy per-candidate search path
(``use_kernel=False``) — the committed ``BENCH_baseline.json`` /
``BENCH_kernels.json`` pair documents the speedup on the machine that
produced them.  Because absolute times are hardware-bound, CI does not
compare against committed numbers: its perf-smoke job runs *both* paths
fresh at ``--scale smoke`` and gates on their ratio.  See
``docs/performance.md``.
"""
# This module doubles as a console entry point (python -m
# repro.bench.regression); its report output legitimately owns stdout.
# reglint: disable-file=RL107

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import paper_mining_parameters
from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex
from repro.datasets.running_example import load_running_example
from repro.datasets.synthetic import SyntheticConfig, make_synthetic_dataset
from repro.datasets.yeast import make_yeast_surrogate
from repro.experiments.fig8 import PAPER_YEAST_PARAMETERS
from repro.matrix.expression import ExpressionMatrix

__all__ = [
    "BenchCase",
    "SMOKE_CASES",
    "FULL_CASES",
    "suite_cases",
    "run_case",
    "run_suite",
    "compare_snapshots",
    "main",
]

#: Snapshot schema identifier (bump on incompatible payload changes).
SNAPSHOT_SCHEMA = "bench-regression/v1"


@dataclass(frozen=True)
class BenchCase:
    """One pinned workload: a matrix builder plus mining parameters."""

    name: str
    build: Callable[[], Tuple[ExpressionMatrix, MiningParameters]]
    repeats: int = 3


def _running_example() -> Tuple[ExpressionMatrix, MiningParameters]:
    params = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )
    return load_running_example(), params


def _fig7(**overrides: int) -> Tuple[ExpressionMatrix, MiningParameters]:
    config = SyntheticConfig(**overrides)  # type: ignore[arg-type]
    data = make_synthetic_dataset(config)
    return data.matrix, paper_mining_parameters(config.n_genes)


def _fig8(n_genes: int) -> Tuple[ExpressionMatrix, MiningParameters]:
    surrogate = make_yeast_surrogate(shape=(n_genes, 17))
    return surrogate.matrix, PAPER_YEAST_PARAMETERS


#: Tiny cases for CI perf-smoke: seconds, not minutes, per run.
SMOKE_CASES: Tuple[BenchCase, ...] = (
    BenchCase("running-example", _running_example, repeats=5),
    BenchCase(
        "fig7-smoke",
        lambda: _fig7(n_genes=400, n_conditions=16, n_clusters=6),
        repeats=3,
    ),
    BenchCase("fig8-smoke", lambda: _fig8(600), repeats=3),
)

#: The committed-snapshot suite: the Figure 7 default generator point
#: (3000 genes x 30 conditions x 30 clusters, seed 0) is the case the
#: kernel speedup claim is made on; ``fig8-yeast`` is the section 5.2
#: workload cut to 1200 of its 2884 genes, so the legacy side stays
#: affordable.
FULL_CASES: Tuple[BenchCase, ...] = SMOKE_CASES + (
    BenchCase(
        "fig7-genes-1000",
        lambda: _fig7(n_genes=1000),
        repeats=3,
    ),
    BenchCase(
        "fig7-default",
        lambda: _fig7(),
        repeats=3,
    ),
    BenchCase("fig8-yeast", lambda: _fig8(1200), repeats=3),
)


def suite_cases(scale: str) -> Tuple[BenchCase, ...]:
    """The case tuple for a scale name (``smoke`` or ``full``)."""
    if scale == "smoke":
        return SMOKE_CASES
    if scale == "full":
        return FULL_CASES
    raise ValueError(f"scale must be 'smoke' or 'full', got {scale!r}")


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize to
    kilobytes so snapshots agree across platforms.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def run_case(case: BenchCase, *, use_kernel: bool = True) -> Dict[str, Any]:
    """Measure one case: best wall time over repeats, plus search stats.

    ``use_kernel`` asks for a path; the entry records the one that ran.

    The matrix is built once outside the timed region; each repeat
    constructs a fresh miner (which builds its RWave^gamma index, also
    untimed) and times the full search.  The *minimum* wall time over
    repeats is reported: for a deterministic workload the minimum is
    the least-noise estimator.

    ``index_build_seconds`` times one standalone RWave^gamma index
    build before the repeats; the miners build their own indexes, so
    no warm state from it reaches ``wall_seconds``.
    """
    matrix, params = case.build()
    start = time.perf_counter()
    RWaveIndex(matrix, params.gamma)
    index_build = time.perf_counter() - start
    timings: List[float] = []
    result = None
    ran_kernel = False
    for __ in range(max(case.repeats, 1)):
        miner = RegClusterMiner(matrix, params, use_kernel=use_kernel)
        ran_kernel = miner.uses_kernel
        start = time.perf_counter()
        result = miner.mine()
        timings.append(time.perf_counter() - start)
    assert result is not None
    wall = min(timings)
    stats = result.statistics
    return {
        "case": case.name,
        # The path that ran: without a C compiler the fast path falls
        # back to the legacy one (RegClusterMiner.uses_kernel).
        "use_kernel": ran_kernel,
        "repeats": len(timings),
        "wall_seconds": wall,
        "wall_seconds_mean": math.fsum(timings) / len(timings),
        "index_build_seconds": index_build,
        "nodes_expanded": int(stats.nodes_expanded),
        "nodes_per_second": (
            stats.nodes_expanded / wall if wall > 0 else 0.0
        ),
        "clusters": len(result),
        "peak_rss_kb": _peak_rss_kb(),
        "phase_seconds": stats.timers.as_dict(),
    }


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_suite(
    *,
    scale: str = "full",
    use_kernel: bool = True,
    cases: Optional[Sequence[BenchCase]] = None,
) -> Dict[str, Any]:
    """Run the pinned suite and return one snapshot payload."""
    selected = tuple(cases) if cases is not None else suite_cases(scale)
    measured = [
        run_case(case, use_kernel=use_kernel) for case in selected
    ]
    return {
        "schema": SNAPSHOT_SCHEMA,
        "revision": _git_revision(),
        "scale": scale,
        # The path asked for; each case records the one that ran.
        "use_kernel": bool(use_kernel),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cases": measured,
    }


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------

def compare_snapshots(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = 0.3,
) -> Tuple[List[str], List[str]]:
    """Diff two snapshots; returns ``(report_lines, regressions)``.

    A case regresses when its wall time exceeds the baseline's by more
    than ``tolerance`` (fractional: ``0.3`` allows up to 1.3x), or when
    the two snapshots timed different searches: a case's ``clusters``
    or ``nodes_expanded`` differ, so a path that skipped nodes cannot
    pass as a fast one.  A snapshot that asked for the fast path but
    whose case ran the legacy one (no C compiler) fails too: it would
    otherwise gate legacy against legacy.  Cases present in only one
    snapshot are reported but never fail the gate — suites are allowed
    to grow.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_by_name = {c["case"]: c for c in baseline.get("cases", [])}
    lines: List[str] = []
    regressions: List[str] = []
    header = (
        f"{'case':<20} {'base (s)':>10} {'current (s)':>12} "
        f"{'ratio':>7}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in current.get("cases", []):
        name = entry["case"]
        base = base_by_name.pop(name, None)
        if base is None:
            lines.append(f"{name:<20} {'--':>10} "
                         f"{entry['wall_seconds']:>12.4f} {'--':>7}  new")
            continue
        ratio = (
            entry["wall_seconds"] / base["wall_seconds"]
            if base["wall_seconds"] > 0
            else float("inf")
        )
        ok = ratio <= 1.0 + tolerance
        status = "ok" if ok else f"REGRESSION (> {1.0 + tolerance:.2f}x)"
        differing = [
            f"{key} {entry.get(key)} vs {base.get(key)}"
            for key in ("clusters", "nodes_expanded")
            if entry.get(key) != base.get(key)
        ]
        if differing:
            status = "DIFFERENT SEARCH"
        fell_back = bool(current.get("use_kernel")) and (
            entry.get("use_kernel") is False
        )
        if fell_back:
            status = "LEGACY PATH RAN"
        lines.append(
            f"{name:<20} {base['wall_seconds']:>10.4f} "
            f"{entry['wall_seconds']:>12.4f} {ratio:>6.2f}x  {status}"
        )
        if not ok:
            regressions.append(
                f"{name}: {entry['wall_seconds']:.4f}s vs baseline "
                f"{base['wall_seconds']:.4f}s ({ratio:.2f}x, tolerance "
                f"{1.0 + tolerance:.2f}x)"
            )
        if differing:
            regressions.append(
                f"{name}: timed a different search than the baseline "
                f"({', '.join(differing)})"
            )
        if fell_back:
            regressions.append(
                f"{name}: the fast path was asked for but the legacy "
                f"path ran (no native run kernel)"
            )
    for name in base_by_name:
        lines.append(f"{name:<20} (present only in baseline)")
    return lines, regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    snapshot = run_suite(scale=args.scale, use_kernel=not args.legacy)
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    for entry in snapshot["cases"]:
        print(
            f"{entry['case']:<20} {entry['wall_seconds']:.4f}s  "
            f"{entry['nodes_per_second']:>10.0f} nodes/s  "
            f"{entry['clusters']} clusters  "
            f"rss {entry['peak_rss_kb']} kB"
        )
    if not args.out:
        print(text, end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    lines, regressions = compare_snapshots(
        current, baseline, tolerance=args.tolerance
    )
    for line in lines:
        print(line)
    if regressions:
        print()
        for regression in regressions:
            print(f"regression: {regression}", file=sys.stderr)
        return 1
    print("\nno regressions within tolerance "
          f"{1.0 + args.tolerance:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Pinned-workload benchmark snapshots and the "
        "regression gate over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="measure the pinned suite")
    run_p.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default="full",
        help="smoke = tiny CI cases; full = committed-snapshot suite",
    )
    run_p.add_argument(
        "--legacy",
        action="store_true",
        help="time the legacy per-candidate search path",
    )
    run_p.add_argument(
        "--out", default=None, help="write the snapshot JSON here"
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="gate a snapshot against a baseline"
    )
    cmp_p.add_argument("current", help="freshly produced snapshot JSON")
    cmp_p.add_argument("baseline", help="baseline snapshot JSON")
    cmp_p.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="fractional allowed wall-time growth per case "
        "(0.3 allows 1.3x; default %(default)s)",
    )
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
