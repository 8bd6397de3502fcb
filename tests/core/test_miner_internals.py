"""Targeted tests for the miner's batched-node internals.

Covers the degenerate-baseline accounting (the former silent-NaN path),
the depth-1 distinct-member count, the phase timers, and how the native
search hands control back to Python (raising hooks, Ctrl-C, a failed
allocation) — the pieces of the kernelized hot path whose behaviour is
not already pinned by the output-equivalence suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.miner import (
    PhaseTimers,
    RegClusterMiner,
    SearchStatistics,
)
from repro.core.params import MiningParameters
from repro.core.serialize import result_from_dict, result_to_dict
from repro.core.trace import SearchTrace
from repro.matrix.expression import ExpressionMatrix


def degenerate_matrix():
    """g0's first chain step is subnormal, so its Eq. 7 quotient at the
    later steps overflows to inf — the degenerate-baseline case."""
    rows = [
        [0.0, 1e-310, 1.0, 2.0],
        [0.0, 1.0, 2.0, 3.0],
        [0.0, 1.1, 2.1, 3.2],
        [0.0, 0.9, 1.9, 2.9],
    ]
    return ExpressionMatrix(np.array(rows))


DEGENERATE_PARAMS = MiningParameters(
    min_genes=2, min_conditions=3, gamma=0.0, epsilon=0.5
)


class TestDegenerateBaselines:
    @pytest.mark.parametrize("use_kernel", [False, True])
    def test_counted_and_no_warnings(self, use_kernel):
        miner = RegClusterMiner(
            degenerate_matrix(), DEGENERATE_PARAMS, use_kernel=use_kernel
        )
        with np.errstate(all="raise"):  # any leaked fp warning -> error
            result = miner.mine()
        assert result.statistics.degenerate_genes_dropped > 0
        # Chains through the subnormal step must never keep g0: its H
        # score there is non-finite, so no cluster on a (c0, c1, ...)
        # chain may contain it.
        for cluster in result:
            if cluster.chain[:2] == (0, 1):
                assert 0 not in cluster.p_members
                assert 0 not in cluster.n_members

    def test_paths_agree_on_the_count(self):
        runs = [
            RegClusterMiner(
                degenerate_matrix(), DEGENERATE_PARAMS, use_kernel=uk
            ).mine()
            for uk in (False, True)
        ]
        assert (
            runs[0].statistics.as_dict() == runs[1].statistics.as_dict()
        )

    def test_clean_data_counts_zero(self, running_example):
        params = MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        )
        result = RegClusterMiner(running_example, params).mine()
        assert result.statistics.degenerate_genes_dropped == 0

    def test_counter_serializes(self):
        matrix = degenerate_matrix()
        result = RegClusterMiner(matrix, DEGENERATE_PARAMS).mine()
        assert result.statistics.degenerate_genes_dropped > 0
        payload = result_to_dict(result, matrix)
        assert (
            payload["statistics"]["degenerate_genes_dropped"]
            == result.statistics.degenerate_genes_dropped
        )
        back = result_from_dict(payload, matrix)
        assert (
            back.statistics.as_dict() == result.statistics.as_dict()
        )


class TestDistinctMembers:
    """Depth-1 MinG pruning must count overlapping p/n genes once."""

    @pytest.fixture
    def miner(self, running_example):
        params = MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        )
        return RegClusterMiner(running_example, params)

    def test_overlap_counted_once(self, miner):
        p = np.array([0, 1, 2], dtype=np.intp)
        n = np.array([2, 1], dtype=np.intp)
        assert miner._distinct_members(p, n) == 3

    def test_disjoint(self, miner):
        p = np.array([0], dtype=np.intp)
        n = np.array([1, 2], dtype=np.intp)
        assert miner._distinct_members(p, n) == 3

    def test_empty_sides(self, miner):
        empty = np.empty(0, dtype=np.intp)
        assert miner._distinct_members(empty, empty) == 0
        assert (
            miner._distinct_members(np.array([1], dtype=np.intp), empty)
            == 1
        )

    def test_scratch_mask_left_clean(self, miner):
        p = np.array([0, 1], dtype=np.intp)
        n = np.array([1, 2], dtype=np.intp)
        miner._distinct_members(p, n)
        assert not miner._scratch.any()

    def test_depth1_total_gates_on_distinct_count(self):
        # Three genes, all of them both p- and n-reachable: the depth-1
        # node must see 3 distinct members, not 6, so MinG = 4 prunes it.
        base = np.array([0.0, 5.0, 10.0, 5.0, 0.0])
        matrix = ExpressionMatrix([base, base + 1.0, base * 2.0])
        params = MiningParameters(
            min_genes=4, min_conditions=3, gamma=0.1, epsilon=1.0
        )
        result = RegClusterMiner(matrix, params).mine()
        assert len(result) == 0
        assert result.statistics.pruned_min_genes > 0


class TestPhaseTimers:
    def test_populated_by_a_mine_run(self, running_example):
        params = MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        )
        result = RegClusterMiner(running_example, params).mine()
        timers = result.statistics.timers
        assert timers.candidates > 0.0
        assert timers.windows >= 0.0
        assert timers.emit >= 0.0

    def test_excluded_from_counter_dict(self):
        stats = SearchStatistics()
        assert "timers" not in stats.as_dict()
        assert all(
            isinstance(value, int) for value in stats.as_dict().values()
        )

    def test_prefixed_and_add(self):
        timers = PhaseTimers(candidates=1.0, windows=2.0, emit=3.0)
        assert timers.prefixed() == {
            "time_candidates": 1.0,
            "time_windows": 2.0,
            "time_emit": 3.0,
        }
        other = PhaseTimers(candidates=0.5)
        timers.add(other)
        assert timers.candidates == 1.5
        assert timers.as_dict() == {
            "candidates": 1.5,
            "windows": 2.0,
            "emit": 3.0,
        }


#: Mines the 1200x17 Fig. 8 surrogate without hooks until interrupted.
INTERRUPTED_SCRIPT = """
from repro.core import RegClusterMiner
from repro.experiments.fig8 import PAPER_YEAST_PARAMETERS, make_yeast_surrogate
matrix = make_yeast_surrogate(shape=(1200, 17)).matrix
miner = RegClusterMiner(matrix, PAPER_YEAST_PARAMETERS)
assert miner.uses_kernel
print("mining", flush=True)
while True:
    miner.mine()
"""


class TestNativeSearchHandsBackControl:
    PARAMS = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )

    @pytest.mark.parametrize("hook", ["progress", "stop", "tracer"])
    def test_a_raising_hook_raises_out_of_mine(self, running_example, hook):
        class Boom(Exception):
            pass

        def boom(*args):
            raise Boom(hook)

        tracer = SearchTrace()
        tracer.record = boom
        options = {
            "progress": {"progress_callback": boom},
            "stop": {"should_stop": boom},
            "tracer": {"tracer": tracer},
        }[hook]
        miner = RegClusterMiner(running_example, self.PARAMS, **options)
        assert miner.uses_kernel
        with pytest.raises(Boom, match=hook):
            miner.mine()
        # The pass is left usable: the next search runs to the end.
        miner.progress_callback = miner.should_stop = miner.tracer = None
        assert len(miner.mine()) == 1

    def test_a_failed_allocation_is_a_memory_error(self, running_example):
        miner = RegClusterMiner(running_example, self.PARAMS)
        runs = miner._runs
        runs._kernel = runs._kernel._replace(search=lambda *args: -1)
        with pytest.raises(MemoryError):
            miner.mine()

    def test_an_unhooked_search_answers_ctrl_c(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == "mining"
            child.send_signal(signal.SIGINT)
            __, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode != 0
        assert "KeyboardInterrupt" in err
        assert "Exception ignored" not in err
