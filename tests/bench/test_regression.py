"""Tests for the benchmark-regression gate (`repro.bench.regression`)."""

from __future__ import annotations

import json

import pytest

from repro.bench.regression import (
    BenchCase,
    FULL_CASES,
    SMOKE_CASES,
    SNAPSHOT_SCHEMA,
    compare_snapshots,
    main,
    run_case,
    run_suite,
    suite_cases,
)
from repro.bench.runner import paper_mining_parameters
from repro.core.params import MiningParameters
from repro.datasets.running_example import load_running_example

TINY = BenchCase(
    "tiny",
    lambda: (
        load_running_example(),
        MiningParameters(
            min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
        ),
    ),
    repeats=2,
)


class TestSuiteDefinition:
    def test_scales(self):
        assert suite_cases("smoke") == SMOKE_CASES
        assert suite_cases("full") == FULL_CASES
        with pytest.raises(ValueError, match="scale"):
            suite_cases("galactic")

    def test_smoke_is_a_prefix_of_full(self):
        assert FULL_CASES[: len(SMOKE_CASES)] == SMOKE_CASES

    def test_full_includes_the_fig7_default_point(self):
        names = [case.name for case in FULL_CASES]
        assert "fig7-default" in names

    def test_cases_are_pinned(self):
        # Building a case twice yields the same matrix (fixed seeds).
        for case in SMOKE_CASES:
            first, params_a = case.build()
            second, params_b = case.build()
            assert first == second
            assert params_a == params_b

    def test_fig7_params_follow_the_paper(self):
        matrix, params = dict(
            (c.name, c) for c in SMOKE_CASES
        )["fig7-smoke"].build()
        assert params == paper_mining_parameters(matrix.n_genes)


class TestRunCase:
    @pytest.mark.parametrize("use_kernel", [True, False])
    def test_measurement_fields(self, use_kernel):
        entry = run_case(TINY, use_kernel=use_kernel)
        assert entry["case"] == "tiny"
        assert entry["use_kernel"] is use_kernel
        assert entry["repeats"] == 2
        assert entry["wall_seconds"] > 0
        assert entry["wall_seconds_mean"] >= entry["wall_seconds"]
        assert entry["index_build_seconds"] > 0
        assert entry["nodes_expanded"] > 0
        assert entry["nodes_per_second"] > 0
        assert entry["clusters"] == 1
        assert entry["peak_rss_kb"] > 0
        assert set(entry["phase_seconds"]) == {
            "candidates", "windows", "emit"
        }

    def test_records_the_path_that_ran(self, monkeypatch):
        """Without the native kernel the fast path falls back to the
        legacy one, and the entry says so."""
        import repro.core.miner as miner_module

        monkeypatch.setattr(miner_module, "run_kernel", lambda dtype: None)
        assert run_case(TINY, use_kernel=True)["use_kernel"] is False

    def test_paths_agree_on_output_size(self):
        kernel = run_case(TINY, use_kernel=True)
        legacy = run_case(TINY, use_kernel=False)
        assert kernel["clusters"] == legacy["clusters"]
        assert kernel["nodes_expanded"] == legacy["nodes_expanded"]


class TestRunSuite:
    def test_snapshot_shape_and_json(self):
        snapshot = run_suite(scale="smoke", cases=[TINY])
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["use_kernel"] is True
        assert [c["case"] for c in snapshot["cases"]] == ["tiny"]
        # The whole payload must survive a JSON round trip untouched.
        assert json.loads(json.dumps(snapshot)) == snapshot


def snapshot_with(cases):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "cases": [
            {"case": name, "wall_seconds": wall} for name, wall in cases
        ],
    }


class TestCompare:
    def test_within_tolerance_passes(self):
        lines, regressions = compare_snapshots(
            snapshot_with([("a", 1.2)]),
            snapshot_with([("a", 1.0)]),
            tolerance=0.3,
        )
        assert regressions == []
        assert any("1.20x" in line for line in lines)

    def test_regression_detected(self):
        __, regressions = compare_snapshots(
            snapshot_with([("a", 1.5)]),
            snapshot_with([("a", 1.0)]),
            tolerance=0.3,
        )
        assert len(regressions) == 1
        assert "a" in regressions[0]

    def test_new_and_removed_cases_never_fail(self):
        lines, regressions = compare_snapshots(
            snapshot_with([("new", 9.9)]),
            snapshot_with([("old", 0.1)]),
            tolerance=0.0,
        )
        assert regressions == []
        assert any("new" in line for line in lines)
        assert any("only in baseline" in line for line in lines)

    @pytest.mark.parametrize("field", ["clusters", "nodes_expanded"])
    def test_a_different_search_fails_the_gate(self, field):
        """Equal times prove nothing when the two runs searched apart:
        a path that skipped nodes must not pass as a fast one."""
        current = snapshot_with([("a", 1.0)])
        baseline = snapshot_with([("a", 1.0)])
        for snapshot, value in ((current, 40), (baseline, 41)):
            snapshot["cases"][0].update(clusters=7, nodes_expanded=900)
            snapshot["cases"][0][field] = value
        lines, regressions = compare_snapshots(
            current, baseline, tolerance=0.3
        )
        assert len(regressions) == 1
        assert f"{field} 40 vs 41" in regressions[0]
        assert any("DIFFERENT SEARCH" in line for line in lines)

    def test_a_legacy_run_on_the_fast_side_fails_the_gate(self):
        """A runner without a compiler must not pass perf-smoke by
        gating the legacy path against itself."""
        current = snapshot_with([("a", 1.0)])
        baseline = snapshot_with([("a", 1.0)])
        current["use_kernel"] = True
        baseline["use_kernel"] = False
        for snapshot in (current, baseline):
            snapshot["cases"][0]["use_kernel"] = False
        lines, regressions = compare_snapshots(
            current, baseline, tolerance=0.3
        )
        assert len(regressions) == 1
        assert "legacy path ran" in regressions[0]
        assert any("LEGACY PATH RAN" in line for line in lines)
        current["cases"][0]["use_kernel"] = True
        assert compare_snapshots(current, baseline)[1] == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_snapshots(
                snapshot_with([]), snapshot_with([]), tolerance=-0.1
            )


class TestCli:
    def test_run_writes_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        # The smoke suite's fig7 case takes ~seconds on the legacy path;
        # the CLI is exercised on the kernel path only here.
        code = main(["run", "--scale", "smoke", "--out", str(out)])
        assert code == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert {c["case"] for c in snapshot["cases"]} == {
            c.name for c in SMOKE_CASES
        }
        assert "nodes/s" in capsys.readouterr().out

    def test_compare_gates(self, tmp_path, capsys):
        fast = tmp_path / "fast.json"
        slow = tmp_path / "slow.json"
        fast.write_text(json.dumps(snapshot_with([("a", 1.0)])))
        slow.write_text(json.dumps(snapshot_with([("a", 2.0)])))
        assert main(
            ["compare", str(fast), str(slow), "--tolerance", "0.3"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["compare", str(slow), str(fast), "--tolerance", "0.3"]
        ) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression:" in captured.err
