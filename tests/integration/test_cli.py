"""Integration tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.running_example import load_running_example
from repro.matrix.io import save_expression_matrix


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "running.tsv"
    save_expression_matrix(load_running_example(), path)
    return str(path)


class TestMine:
    def test_mine_running_example(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 reg-cluster(s)" in out
        assert "c7 <- c9 <- c5 <- c1 <- c3" in out
        assert "nodes_expanded" in out

    def test_mine_missing_file(self, capsys):
        code = main(
            [
                "mine", "/nonexistent.tsv",
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mine_bad_gamma(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "7",
                "--epsilon", "0.1",
            ]
        )
        assert code == 2


class TestUpfrontParameterValidation:
    """Bad bounds fail as usage errors *before* any matrix I/O."""

    def test_bad_gamma_rejected_before_matrix_load(self, capsys):
        code = main(
            [
                "mine", "/nonexistent.tsv",
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "7",
                "--epsilon", "0.1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        # The parameter error fires, not the missing-file error.
        assert "gamma" in err
        assert "usage:" in err
        assert "No such file" not in err

    def test_bad_epsilon_rejected(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "-1",
            ]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_bad_min_conditions_rejected(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "1",
                "--gamma", "0.15",
                "--epsilon", "0.1",
            ]
        )
        assert code == 2
        assert "min_conditions" in capsys.readouterr().err

    def test_bad_max_clusters_rejected(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--max-clusters", "0",
            ]
        )
        assert code == 2
        assert "max_clusters" in capsys.readouterr().err

    def test_submit_validates_before_contacting_server(self, capsys):
        code = main(
            [
                "submit", "/nonexistent.tsv",
                "--url", "http://127.0.0.1:1",
                "--min-genes", "0",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
            ]
        )
        assert code == 2
        assert "min_genes" in capsys.readouterr().err


class TestGenerate:
    def test_generate_synthetic(self, tmp_path, capsys):
        out_path = tmp_path / "syn.tsv"
        code = main(
            [
                "generate", "synthetic",
                "--out", str(out_path),
                "--genes", "50",
                "--conditions", "10",
                "--clusters", "1",
            ]
        )
        assert code == 0
        assert out_path.exists()
        assert "embedded clusters" in capsys.readouterr().out

    def test_generate_yeast_writes_full_shape(self, tmp_path, capsys):
        out_path = tmp_path / "yeast.tsv"
        code = main(["generate", "yeast", "--out", str(out_path)])
        assert code == 0
        header, first, *rest = out_path.read_text().splitlines()
        assert len(header.split("\t")) == 18  # corner + 17 conditions
        assert len(rest) + 1 == 2884


class TestRWave:
    def test_rwave_by_name(self, example_file, capsys):
        code = main(
            ["rwave", example_file, "--gene", "g1", "--gamma", "0.15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "threshold 4.5" in out
        assert "c7" in out

    def test_rwave_by_index(self, example_file, capsys):
        code = main(["rwave", example_file, "--gene", "2", "--gamma", "0.15"])
        assert code == 0
        assert "threshold 1.8" in capsys.readouterr().out

    def test_rwave_unknown_gene(self, example_file, capsys):
        code = main(
            ["rwave", example_file, "--gene", "gX", "--gamma", "0.15"]
        )
        assert code == 2


class TestSweep:
    def test_small_sweep(self, capsys):
        code = main(
            [
                "sweep", "n_genes", "40", "60",
                "--genes", "40",
                "--conditions", "8",
                "--clusters", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "runtime vs n_genes" in out
        assert "40" in out and "60" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestValidateAndProfile:
    @pytest.fixture
    def mined_files(self, example_file, tmp_path):
        result_path = tmp_path / "result.json"
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--output", str(result_path),
            ]
        )
        assert code == 0
        return example_file, str(result_path)

    def test_validate_clean_result(self, mined_files, capsys):
        matrix_path, result_path = mined_files
        code = main(["validate", matrix_path, result_path])
        assert code == 0
        assert "1/1 clusters valid" in capsys.readouterr().out

    def test_validate_detects_corruption(self, mined_files, tmp_path, capsys):
        import json

        matrix_path, result_path = mined_files
        with open(result_path) as handle:
            payload = json.load(handle)
        # swap a p-member for the n-member: the orientation breaks
        payload["clusters"][0]["p_members"] = ["g2"]
        payload["clusters"][0]["n_members"] = ["g1", "g3"]
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(json.dumps(payload))
        code = main(["validate", matrix_path, str(corrupt)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out

    def test_profile_renders(self, mined_files, capsys):
        matrix_path, result_path = mined_files
        code = main(["profile", matrix_path, result_path, "--index", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "*" in out and "o" in out
        assert "p-members (*/-): 2" in out

    def test_profile_index_out_of_range(self, mined_files, capsys):
        matrix_path, result_path = mined_files
        code = main(["profile", matrix_path, result_path, "--index", "9"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestThresholdStrategyOption:
    def test_alternative_strategy_runs(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--threshold-strategy", "normalized_std",
            ]
        )
        assert code == 0
        assert "reg-cluster(s)" in capsys.readouterr().out

    def test_unknown_strategy_fails_cleanly(self, example_file, capsys):
        code = main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--threshold-strategy", "bogus",
            ]
        )
        assert code == 2
        assert "unknown threshold" in capsys.readouterr().err


class TestExperimentSubcommand:
    def test_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "reg-cluster (shifting-and-scaling)" in out

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "g2=n" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "tendency" in capsys.readouterr().out

    def test_describe(self, example_file, capsys):
        assert main(["describe", example_file, "--gamma", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "3 x 10" in out
        assert "median regulation threshold" in out
        assert "sha256 digest" in out


class TestServiceSubcommands:
    @pytest.fixture
    def daemon(self, tmp_path):
        """An in-process daemon; yields its base URL."""
        import threading

        from repro.service import MiningService, serve

        service = MiningService(tmp_path / "store")
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[0], server.server_address[1]
        yield f"http://{host}:{port}"
        service.stop()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_submit_wait_and_status(self, daemon, example_file, tmp_path,
                                    capsys):
        result_path = tmp_path / "service-result.json"
        code = main(
            [
                "submit", example_file,
                "--url", daemon,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--wait",
                "--output", str(result_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out
        assert "1 reg-cluster(s)" in out
        assert result_path.exists()

        import json

        payload = json.loads(result_path.read_text(encoding="utf-8"))
        assert payload["format"] == "reg-cluster/v1"
        assert len(payload["clusters"]) == 1

        assert main(["status", "--url", daemon]) == 0
        listing = capsys.readouterr().out
        assert "job-" in listing and "done" in listing

        job_id = listing.split()[0]
        assert main(["status", job_id, "--url", daemon]) == 0
        detail = capsys.readouterr().out
        assert f"job_id: {job_id}" in detail
        assert "state: done" in detail
        assert "progress.nodes_expanded" in detail

    def test_status_stats_prints_statistics(self, daemon, example_file,
                                            capsys):
        assert main(
            [
                "submit", example_file,
                "--url", daemon,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--wait",
            ]
        ) == 0
        listing = capsys.readouterr().out
        job_id = next(
            token for token in listing.split() if token.startswith("job-")
        )
        assert main(["status", job_id, "--url", daemon, "--stats"]) == 0
        detail = capsys.readouterr().out
        assert "statistics.nodes_expanded: 17" in detail
        assert "statistics.clusters_emitted: 1" in detail
        assert "reuse.index_build: cold" in detail
        assert "kernel" not in detail

    def test_evolve_wait_prints_the_index_build(self, daemon, example_file,
                                                capsys):
        params = ["--min-genes", "3", "--min-conditions", "5",
                  "--gamma", "0.15", "--epsilon", "0.1"]
        assert main(["submit", example_file, "--url", daemon, "--wait",
                     *params]) == 0
        job_id = next(
            token for token in capsys.readouterr().out.split()
            if token.startswith("job-")
        )
        assert main(["status", job_id, "--url", daemon]) == 0
        digest = next(
            line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("matrix_digest: ")
        )
        assert main(["evolve", digest, "--drop-genes", "g2", "--url",
                     daemon, "--wait", *params]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "index build: cold"
        child_job = out.splitlines()[-2].split()[1]
        assert main(["status", child_job, "--url", daemon, "--stats"]) == 0
        detail = capsys.readouterr().out
        assert "reuse.index_build: cold" in detail
        assert "shards_reused" not in detail and "parent_job" not in detail

    def test_status_without_stats_omits_statistics(self, daemon,
                                                   example_file, capsys):
        assert main(
            [
                "submit", example_file,
                "--url", daemon,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                "--wait",
            ]
        ) == 0
        listing = capsys.readouterr().out
        job_id = next(
            token for token in listing.split() if token.startswith("job-")
        )
        assert main(["status", job_id, "--url", daemon]) == 0
        assert "statistics." not in capsys.readouterr().out

    def test_status_unknown_job(self, daemon, capsys):
        code = main(["status", "job-" + "0" * 16, "--url", daemon])
        assert code == 2
        assert "unknown job" in capsys.readouterr().err

    def test_submit_unreachable_daemon(self, example_file, capsys):
        code = main(
            [
                "submit", example_file,
                "--url", "http://127.0.0.1:1",
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
            ]
        )
        assert code == 2


class TestTracedMine:
    def _mine(self, example_file, extra):
        return main(
            [
                "mine", example_file,
                "--min-genes", "3",
                "--min-conditions", "5",
                "--gamma", "0.15",
                "--epsilon", "0.1",
                *extra,
            ]
        )

    def test_workers_matches_single_process(self, example_file, capsys):
        assert self._mine(example_file, []) == 0
        direct = capsys.readouterr().out
        assert self._mine(example_file, ["--workers", "4"]) == 0
        sharded = capsys.readouterr().out
        assert direct == sharded

    def test_trace_writes_spans_and_summary_renders(
        self, example_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "mine.trace.jsonl"
        assert self._mine(
            example_file, ["--workers", "2", "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 reg-cluster(s)" in out
        assert f"trace written to {trace_path}" in out

        assert main(["trace", "summary", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert "root: job" in summary
        assert "phases (summed over shards)" in summary
        # One row per start condition of the running example.
        assert "    9  " in summary

    def test_zero_workers_rejected(self, example_file, capsys):
        assert self._mine(example_file, ["--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestTraceSummaryCommand:
    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", "summary", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no spans" in err
