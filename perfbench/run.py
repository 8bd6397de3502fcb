"""Job-anatomy benchmark of the ``reg-cluster serve`` daemon.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 24 --trace 0

It starts real daemons as subprocesses, drives them over HTTP with one
of the workloads in ``workloads.py`` for ``--seconds`` seconds, checks
every output, prints each metric by name with its unit and sample count
on stderr, and prints one JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (``layers.py``).  The exit code is non-zero when any
output check fails.  See ``README.md`` for what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: Per-seed counts of earlier runs; a differing repeat fails the run.
COUNTS_FILE = ROOT / ".perfbench-counts.json"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        return _fail(f"no program sources under {SRC}; run from the repo root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import layers
    from workloads import SPECS, make_inputs

    if args.workload not in SPECS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(SPECS)}")
    spec = SPECS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        inputs = make_inputs(spec, args.seed)
        if args.trace:
            metrics, units, samples, loop = layers.traced_run(
                SRC, WORK, inputs, args.seconds
            )
        else:
            metrics, units, samples, loop = untraced_run(
                SRC, WORK, inputs, args.seconds
            )
        problems, counts = checks.verify(inputs, loop)
        problems += checks.check_counts(
            COUNTS_FILE, SRC, spec.name, args.seed, counts
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units[name]:<6} n={samples[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


def untraced_run(
    src: Path, work: Path, inputs: Any, seconds: float
) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, int], Any]:
    """Set up several times, then run the loop on the last daemon."""
    from workloads import (
        MAX_SETUPS, MIN_SETUPS, SETUP_BUDGET_S, peak_rss_mb, run_loop, setup,
    )

    setups: List[float] = []
    while True:
        daemon, took = setup(src, work, inputs, f"u{len(setups)}")
        setups.append(took)
        if len(setups) >= MAX_SETUPS or (
            len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_BUDGET_S
        ):
            break
        daemon.stop()
    try:
        loop = run_loop(daemon, inputs, seconds)
    finally:
        daemon.stop()
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(j.latency_s for j in loop.jobs),
        "ok_ops_frac": 1.0 - loop.failed / max(1, loop.attempted),
        "peak_rss_mb": peak_rss_mb(loop),
    }
    units = {
        "setup_s": "s", "job_p50_s": "s", "ok_ops_frac": "1",
        "peak_rss_mb": "MB",
    }
    samples = {
        "setup_s": len(setups), "job_p50_s": len(loop.jobs),
        "ok_ops_frac": loop.attempted, "peak_rss_mb": len(loop.round_spans),
    }
    return metrics, units, samples, loop


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
