"""Command-line interface: ``reg-cluster`` (or ``python -m repro``).

Subcommands
-----------
``mine``
    Mine reg-clusters from a tab-delimited expression file.
``generate``
    Write a synthetic dataset or the yeast surrogate to disk.
``rwave``
    Print the RWave^gamma model of one gene (Figure 3 style).
``sweep``
    Run one Figure 7 efficiency sweep and print the series.
``validate``
    Re-check a saved result file against Definition 3.2.
``profile``
    Render one saved cluster's expression profiles as ASCII art.
``experiment``
    Regenerate one of the paper's tables/figures end to end.
``describe``
    Print headline statistics of an expression file.
``serve``
    Run the mining daemon (job store + HTTP API, see docs/service.md);
    with ``--fleet`` it coordinates a multi-node work queue
    (docs/distributed.md).
``node``
    Run a fleet worker node that leases shards from a ``--fleet``
    coordinator and mines them locally (docs/distributed.md).
``submit``
    Submit a matrix to a running daemon (optionally wait for the result).
``evolve``
    Evolve a stored matrix on a running daemon by one typed delta
    (append conditions/genes, drop genes) and mine the child as an
    ordinary job, its index cached or built cold (docs/incremental.md).
``status``
    Query a job on a running daemon.
``trace``
    Inspect span traces written by ``mine --trace`` or ``serve
    --trace-dir`` (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.report import ascii_series
from repro.bench.runner import run_sweep
from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.core.rwave import RWaveIndex, build_rwave
from repro.core.serialize import load_result, save_result
from repro.core.thresholds import resolve_strategy
from repro.core.validate import validation_errors
from repro.eval.profiles import render_cluster_profiles
from repro.datasets.synthetic import make_synthetic_dataset
from repro.datasets.yeast import make_yeast_surrogate
from repro.matrix.io import load_expression_matrix, save_expression_matrix
from repro.matrix.summary import summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``reg-cluster`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="reg-cluster",
        description="Mine shifting-and-scaling co-regulation patterns "
        "(reg-clusters) from gene expression profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine reg-clusters from a matrix file")
    mine.add_argument("path", help="tab-delimited expression file")
    mine.add_argument("--min-genes", type=int, required=True, metavar="MinG")
    mine.add_argument(
        "--min-conditions", type=int, required=True, metavar="MinC"
    )
    mine.add_argument("--gamma", type=float, required=True,
                      help="regulation threshold in [0, 1]")
    mine.add_argument("--epsilon", type=float, required=True,
                      help="coherence threshold >= 0")
    mine.add_argument("--max-clusters", type=int, default=None)
    mine.add_argument(
        "--stats", action="store_true", help="also print search statistics"
    )
    mine.add_argument(
        "--output", default=None, metavar="RESULT.json",
        help="also write the result as JSON",
    )
    mine.add_argument(
        "--threshold-strategy", default="range_fraction",
        help="per-gene threshold strategy (range_fraction, "
        "closest_pair_average, normalized_std, mean_fraction, constant)",
    )
    mine.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="mine shards on N worker processes (results are identical "
        "for every value; see docs/service.md)",
    )
    mine.add_argument(
        "--trace", default=None, metavar="TRACE.jsonl",
        help="write a span trace of the run (inspect with "
        "'reg-cluster trace summary'; see docs/observability.md)",
    )

    generate = sub.add_parser("generate", help="write a dataset to disk")
    generate.add_argument("kind", choices=["synthetic", "yeast"])
    generate.add_argument("--out", required=True, help="output path")
    generate.add_argument("--genes", type=int, default=3000)
    generate.add_argument("--conditions", type=int, default=30)
    generate.add_argument("--clusters", type=int, default=30)
    generate.add_argument("--seed", type=int, default=0)

    rwave = sub.add_parser("rwave", help="print one gene's RWave model")
    rwave.add_argument("path", help="tab-delimited expression file")
    rwave.add_argument("--gene", required=True, help="gene name or index")
    rwave.add_argument("--gamma", type=float, required=True)

    sweep = sub.add_parser("sweep", help="run one Figure 7 efficiency sweep")
    sweep.add_argument(
        "parameter", choices=["n_genes", "n_conditions", "n_clusters"]
    )
    sweep.add_argument(
        "values", type=int, nargs="+", help="parameter values to measure"
    )
    sweep.add_argument("--genes", type=int, default=3000)
    sweep.add_argument("--conditions", type=int, default=30)
    sweep.add_argument("--clusters", type=int, default=30)

    validate = sub.add_parser(
        "validate", help="re-check a saved result against Definition 3.2"
    )
    validate.add_argument("matrix", help="tab-delimited expression file")
    validate.add_argument("result", help="JSON result file (from mine --output)")

    profile = sub.add_parser(
        "profile", help="render one cluster's profiles as ASCII art"
    )
    profile.add_argument("matrix", help="tab-delimited expression file")
    profile.add_argument("result", help="JSON result file")
    profile.add_argument("--index", type=int, default=0,
                         help="cluster index within the result (default 0)")
    profile.add_argument("--height", type=int, default=16)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument(
        "which",
        choices=["fig1", "fig2", "fig4", "fig7", "fig8", "table2"],
    )
    experiment.add_argument(
        "--scale", choices=["paper", "quick"], default="paper",
        help="workload size (quick shrinks the datasets)",
    )

    describe = sub.add_parser(
        "describe", help="print headline statistics of a matrix file"
    )
    describe.add_argument("path", help="tab-delimited expression file")
    describe.add_argument(
        "--gamma", type=float, default=None,
        help="also print the median regulation threshold at this gamma",
    )

    serve = sub.add_parser(
        "serve", help="run the mining daemon (HTTP API, docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--store", default=".reg-cluster-service",
        help="service state directory (jobs, cache, matrices)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sharded mining (1 = in-process)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=None, metavar="N",
        help="artifact cache size bound in bytes",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (default: no timeout); a "
        "timed-out job keeps its shard checkpoints and resumes on "
        "resubmission",
    )
    serve.add_argument(
        "--shard-retries", type=int, default=None, metavar="N",
        help="retry budget per shard before the job degrades "
        "(default: 2; see docs/robustness.md)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="JSON",
        help="fault-injection plan as JSON (chaos testing; overrides "
        "the REPRO_FAULTS environment variable)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a span trace per executed job to DIR "
        "(docs/observability.md)",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON-lines logs on stderr",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request (text logs unless --log-json)",
    )
    serve.add_argument(
        "--fleet", action="store_true",
        help="act as a fleet coordinator: worker nodes (reg-cluster "
        "node) can lease shards over /fleet/... (docs/distributed.md)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="with --fleet: shard-lease TTL; un-heartbeated leases "
        "past it are reclaimed and re-queued (default: 30)",
    )
    serve.add_argument(
        "--fleet-no-local", action="store_true",
        help="with --fleet: never mine shards on the coordinator "
        "itself, leave all mining to the nodes",
    )
    serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="concurrent HTTP connections before accept-time shedding "
        "with 429 (default: 512; docs/service.md)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="parsed requests waiting for an HTTP worker before "
        "shedding with 429 + Retry-After (default: 256)",
    )
    serve.add_argument(
        "--http-workers", type=int, default=None, metavar="N",
        help="HTTP worker threads behind the event loop (default: 8)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="R",
        help="per-tenant token-bucket refill rate in requests/second "
        "keyed on X-Repro-Tenant (default: no rate limiting)",
    )
    serve.add_argument(
        "--tenant-burst", type=float, default=None, metavar="B",
        help="with --tenant-rate: bucket capacity (default: 2x rate)",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="max in-flight requests per tenant; excess sheds with "
        "429 (default: no quota)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="close connections idle for S seconds with no request in "
        "flight (default: 60; 0 disables the sweep)",
    )

    node = sub.add_parser(
        "node",
        help="run a fleet worker node against a --fleet coordinator "
        "(docs/distributed.md)",
    )
    node.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="base URL of the coordinator daemon (reg-cluster serve "
        "--fleet)",
    )
    node.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for mining one lease (1 = in-process)",
    )
    node.add_argument(
        "--node-id", default=None, metavar="ID",
        help="stable node identity (default: <hostname>-<pid>)",
    )
    node.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="node-local artifact cache directory (default: "
        ".reg-cluster-node-<pid>)",
    )
    node.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="sleep between empty lease polls",
    )
    node.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="shards requested per lease (capped by the coordinator)",
    )
    node.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON-lines logs on stderr",
    )
    node.add_argument(
        "--verbose", action="store_true",
        help="log lease/heartbeat traffic (text logs unless --log-json)",
    )

    submit = sub.add_parser(
        "submit", help="submit a matrix to a running daemon"
    )
    submit.add_argument("path", help="tab-delimited expression file")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765", help="daemon base URL"
    )
    submit.add_argument("--min-genes", type=int, required=True,
                        metavar="MinG")
    submit.add_argument("--min-conditions", type=int, required=True,
                        metavar="MinC")
    submit.add_argument("--gamma", type=float, required=True,
                        help="regulation threshold in [0, 1]")
    submit.add_argument("--epsilon", type=float, required=True,
                        help="coherence threshold >= 0")
    submit.add_argument("--max-clusters", type=int, default=None)
    submit.add_argument(
        "--priority", choices=["high", "normal", "low"], default=None,
        help="executor priority class (weighted-fair dequeue; "
        "default: normal)",
    )
    submit.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="tenant tag sent as X-Repro-Tenant for the daemon's "
        "admission accounting",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="long-poll until the job finishes and print the outcome",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait polling deadline in seconds",
    )
    submit.add_argument(
        "--output", default=None, metavar="RESULT.json",
        help="with --wait: also write the finished result as JSON",
    )

    evolve = sub.add_parser(
        "evolve",
        help="evolve a stored matrix by one delta and mine the child "
        "as an ordinary job (docs/incremental.md)",
    )
    evolve.add_argument(
        "parent_digest",
        help="content digest of the stored parent matrix (64 hex chars; "
        "shown as matrix_digest by 'reg-cluster status')",
    )
    delta_group = evolve.add_mutually_exclusive_group(required=True)
    delta_group.add_argument(
        "--append-conditions", default=None, metavar="FILE",
        help="tab-delimited file of the NEW conditions only: rows are "
        "the parent's genes (same order), columns the new conditions",
    )
    delta_group.add_argument(
        "--append-genes", default=None, metavar="FILE",
        help="tab-delimited file of the NEW genes only: rows are the "
        "new genes, columns the parent's conditions (same order)",
    )
    delta_group.add_argument(
        "--drop-genes", nargs="+", default=None, metavar="GENE",
        help="gene names to retire from the parent matrix",
    )
    evolve.add_argument(
        "--url", default="http://127.0.0.1:8765", help="daemon base URL"
    )
    evolve.add_argument("--min-genes", type=int, required=True,
                        metavar="MinG")
    evolve.add_argument("--min-conditions", type=int, required=True,
                        metavar="MinC")
    evolve.add_argument("--gamma", type=float, required=True,
                        help="regulation threshold in [0, 1]")
    evolve.add_argument("--epsilon", type=float, required=True,
                        help="coherence threshold >= 0")
    evolve.add_argument("--max-clusters", type=int, default=None)
    evolve.add_argument(
        "--priority", choices=["high", "normal", "low"], default=None,
        help="executor priority class (default: normal)",
    )
    evolve.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="tenant tag sent as X-Repro-Tenant",
    )
    evolve.add_argument(
        "--wait", action="store_true",
        help="long-poll until the revision job finishes",
    )
    evolve.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait polling deadline in seconds",
    )

    status = sub.add_parser(
        "status", help="query a job (or list all jobs) on a daemon"
    )
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id; omit to list every job",
    )
    status.add_argument(
        "--url", default="http://127.0.0.1:8765", help="daemon base URL"
    )
    status.add_argument(
        "--stats", action="store_true",
        help="also print the search statistics of a finished job "
        "(including degraded jobs, whose record lists missing_shards)",
    )

    trace = sub.add_parser(
        "trace", help="inspect span traces (docs/observability.md)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-phase / per-shard wall-clock breakdown of a trace file",
    )
    trace_summary.add_argument(
        "path", help="trace JSONL file (from mine --trace or serve "
        "--trace-dir)",
    )

    return parser


def _validated_parameters(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> MiningParameters:
    """Check MinG/MinC/gamma/epsilon bounds before any matrix I/O.

    Bad values become a standard argparse usage error (exit status 2)
    instead of a mid-run exception after the matrix has been loaded.
    """
    try:
        return MiningParameters(
            min_genes=args.min_genes,
            min_conditions=args.min_conditions,
            gamma=args.gamma,
            epsilon=args.epsilon,
            max_clusters=args.max_clusters,
        )
    except ValueError as error:
        parser.error(str(error))
        raise AssertionError("parser.error always exits")  # pragma: no cover


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    matrix = load_expression_matrix(args.path)
    thresholds = None
    if args.threshold_strategy != "range_fraction":
        strategy = resolve_strategy(args.threshold_strategy)
        thresholds = strategy(matrix, args.gamma)
    # Shard workers build their miners from this miner's index, on the
    # same machine, so they take the path it takes.
    miner = RegClusterMiner(matrix, args.parameters, thresholds=thresholds)
    if args.workers > 1 or args.trace:
        result = _mine_sharded_cli(args, matrix, miner.index)
        if result is None:
            return 1
    else:
        result = miner.mine()
    print(f"{len(result)} reg-cluster(s)")
    for index, cluster in enumerate(result, start=1):
        print(f"[{index}]")
        print(cluster.describe(matrix))
    if args.stats:
        print(f"  path: {'native' if miner.uses_kernel else 'legacy'}")
        for key, value in result.statistics.as_dict().items():
            print(f"  {key}: {value}")
        for key, seconds in result.statistics.timers.as_dict().items():
            print(f"  phase.{key}: {seconds:.3f}s")
    if args.output:
        save_result(result, args.output, matrix=matrix)
        print(f"result written to {args.output}")
    return 0


def _mine_sharded_cli(
    args: argparse.Namespace,
    matrix: "ExpressionMatrix",
    index: RWaveIndex,
) -> "Optional[MiningResult]":
    """The ``mine --workers/--trace`` path: sharded, optionally traced.

    Returns ``None`` (after reporting) when shards were lost — the
    degraded payload is not printed as if it were complete.
    """
    from repro.obs.trace import NULL_TRACER, Tracer
    from repro.service.executor import mine_sharded_outcome

    params: MiningParameters = args.parameters
    tracer = (
        Tracer(args.trace, overwrite=True) if args.trace else NULL_TRACER
    )
    root = tracer.span(
        "job",
        attributes={
            "source": args.path,
            "n_workers": args.workers,
            "n_genes": matrix.n_genes,
            "n_conditions": matrix.n_conditions,
        },
    )
    try:
        outcome = mine_sharded_outcome(
            matrix,
            params,
            n_workers=args.workers,
            index=index,
            tracer=tracer,
            trace_parent=root.context,
        )
        root.set_attributes(outcome.result.statistics.timers.prefixed())
        root.set_attribute(
            "outcome", "degraded" if outcome.degraded else "ok"
        )
    finally:
        root.end()
        tracer.close()
    if args.trace:
        print(f"trace written to {args.trace}")
    if outcome.missing_shards:
        print(
            f"error: shards {outcome.missing_shards} were lost; "
            f"partial result withheld",
            file=sys.stderr,
        )
        return None
    return outcome.result


def _cmd_validate(args: argparse.Namespace) -> int:
    matrix = load_expression_matrix(args.matrix)
    result = load_result(args.result, matrix=matrix)
    bad = 0
    for index, cluster in enumerate(result.clusters, start=1):
        errors = validation_errors(matrix, cluster, result.parameters)
        if errors:
            bad += 1
            print(f"[{index}] INVALID:")
            for error in errors:
                print(f"    {error}")
    print(
        f"{len(result.clusters) - bad}/{len(result.clusters)} clusters "
        f"valid under Definition 3.2"
    )
    return 0 if bad == 0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    matrix = load_expression_matrix(args.matrix)
    result = load_result(args.result, matrix=matrix)
    if not 0 <= args.index < len(result.clusters):
        raise ValueError(
            f"cluster index {args.index} out of range "
            f"(result has {len(result.clusters)} clusters)"
        )
    cluster = result.clusters[args.index]
    print(cluster.describe(matrix))
    print()
    print(render_cluster_profiles(cluster, matrix, height=args.height))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        data = make_synthetic_dataset(
            n_genes=args.genes,
            n_conditions=args.conditions,
            n_clusters=args.clusters,
            seed=args.seed,
        )
        matrix = data.matrix
        print(
            f"synthetic {matrix.n_genes}x{matrix.n_conditions} with "
            f"{data.n_embedded} embedded clusters -> {args.out}"
        )
    else:
        surrogate = make_yeast_surrogate(seed=args.seed)
        matrix = surrogate.matrix
        print(
            f"yeast surrogate {matrix.n_genes}x{matrix.n_conditions} with "
            f"{len(surrogate.modules)} modules -> {args.out}"
        )
    save_expression_matrix(matrix, args.out)
    return 0


def _cmd_rwave(args: argparse.Namespace) -> int:
    matrix = load_expression_matrix(args.path)
    gene: "int | str" = args.gene
    if isinstance(gene, str) and gene.lstrip("-").isdigit():
        gene = int(gene)
    model = build_rwave(matrix, gene, args.gamma)
    print(
        f"RWave^{args.gamma} of {args.gene} "
        f"(threshold {model.threshold:.4g})"
    )
    print(model.render(matrix.condition_names))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import SyntheticConfig

    base = SyntheticConfig(
        n_genes=args.genes,
        n_conditions=args.conditions,
        n_clusters=args.clusters,
    )
    result = run_sweep(args.parameter, args.values, base_config=base)
    print(
        ascii_series(
            f"runtime vs {args.parameter}",
            result.values(),
            result.seconds(),
            unit="s",
        )
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    matrix = load_expression_matrix(args.path)
    summary = summarize(matrix)
    print(summary.render())
    if args.gamma is not None:
        threshold = summary.suggested_gamma_threshold(args.gamma)
        print(
            f"median regulation threshold at gamma={args.gamma}: "
            f"{threshold:.4g}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        run_figure1,
        run_figure2,
        run_figure4,
        run_figure7,
        run_figure8,
        run_table2,
    )

    quick = args.scale == "quick"
    if args.which == "fig1":
        print(run_figure1().render())
    elif args.which == "fig2":
        print(run_figure2().render())
    elif args.which == "fig4":
        print(run_figure4().render())
    elif args.which == "fig7":
        print(run_figure7(scale=args.scale).render())
    elif args.which == "fig8":
        shape = (600, 17) if quick else (2884, 17)
        print(run_figure8(shape=shape).render())
    else:  # table2
        shape = (600, 17) if quick else (2884, 17)
        print(run_table2(shape=shape).render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        DEFAULT_MAX_BYTES,
        FaultPlan,
        MiningService,
        RetryPolicy,
        serve,
    )

    from repro.obs.log import configure_logging

    fault_plan = (
        FaultPlan.from_json(args.faults) if args.faults is not None else None
    )
    retry = (
        RetryPolicy(max_retries=args.shard_retries)
        if args.shard_retries is not None
        else None
    )
    # --log-json always configures structured logs; plain --verbose gets
    # the human-readable text format instead.  Neither flag leaves the
    # default NullHandler in place (daemon events stay silent).
    if args.log_json:
        configure_logging(fmt="json")
    elif args.verbose:
        configure_logging(fmt="text")
    fleet_kwargs = {}
    if args.fleet:
        fleet_kwargs["fleet"] = True
        fleet_kwargs["fleet_local"] = not args.fleet_no_local
        if args.lease_ttl is not None:
            fleet_kwargs["lease_ttl"] = args.lease_ttl
    elif args.lease_ttl is not None or args.fleet_no_local:
        raise ValueError(
            "--lease-ttl/--fleet-no-local require --fleet"
        )
    service = MiningService(
        args.store,
        n_workers=args.workers,
        max_cache_bytes=(
            DEFAULT_MAX_BYTES if args.cache_bytes is None else args.cache_bytes
        ),
        job_timeout=args.job_timeout,
        retry=retry,
        fault_plan=fault_plan,
        trace_dir=args.trace_dir,
        **fleet_kwargs,
    )
    server = serve(
        service, args.host, args.port, quiet=not args.verbose,
        max_connections=args.max_connections,
        queue_depth=args.queue_depth,
        http_workers=args.http_workers,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_quota=args.tenant_quota,
        idle_timeout=args.idle_timeout,
    )
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"serving on http://{host}:{port} "
        f"(store: {args.store}, workers: {args.workers}"
        f"{', fleet coordinator' if args.fleet else ''})"
    )
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.obs.log import configure_logging
    from repro.service.fleet import DEFAULT_LEASE_SHARDS, FleetNode

    if args.log_json:
        configure_logging(fmt="json")
    elif args.verbose:
        configure_logging(fmt="text")
    node = FleetNode(
        args.coordinator,
        node_id=args.node_id,
        workers=args.workers,
        cache_dir=args.cache_dir,
        poll_interval=args.poll_interval,
        max_lease_shards=(
            DEFAULT_LEASE_SHARDS
            if args.max_shards is None
            else args.max_shards
        ),
    )
    print(
        f"node {node.node_id} polling {args.coordinator} "
        f"(workers: {args.workers}, cache: {node.cache_dir})"
    )
    try:
        node.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json
    from repro.service import ServiceClient, ServiceError
    from repro.service.jobs import parameters_to_dict

    matrix = load_expression_matrix(args.path)
    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        record = client.submit_matrix(
            matrix,
            parameters_to_dict(args.parameters),
            priority=args.priority,
        )
        print(f"job {record['job_id']} {record['state']}")
        if not args.wait:
            return 0
        record = client.wait(record["job_id"], timeout=args.timeout)
        print(f"job {record['job_id']} {record['state']}")
        if record["state"] not in ("done", "degraded"):
            if record.get("error"):
                print(f"error: {record['error']}", file=sys.stderr)
            return 1
        if record["state"] == "degraded":
            print(
                f"warning: shards {record.get('missing_shards')} lost "
                f"(result is partial; resubmit to re-mine them)",
                file=sys.stderr,
            )
        payload = client.result(record["job_id"])
    except ServiceError as error:
        print(f"error: {error.message}", file=sys.stderr)
        return 2
    print(f"{len(payload['clusters'])} reg-cluster(s)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result written to {args.output}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError
    from repro.service.jobs import parameters_to_dict

    if args.append_conditions is not None:
        # The file holds only the NEW columns, rows = parent genes; the
        # wire form is one row per new condition (docs/incremental.md).
        block = load_expression_matrix(args.append_conditions)
        delta = {
            "kind": "append_conditions",
            "names": list(block.condition_names),
            "values": [
                [float(v) for v in row] for row in block.values.T
            ],
        }
    elif args.append_genes is not None:
        block = load_expression_matrix(args.append_genes)
        delta = {
            "kind": "append_genes",
            "names": list(block.gene_names),
            "values": [
                [float(v) for v in row] for row in block.values
            ],
        }
    else:
        delta = {"kind": "drop_genes", "genes": list(args.drop_genes)}
    client = ServiceClient(args.url, tenant=args.tenant)
    try:
        envelope = client.submit_revision(
            args.parent_digest,
            delta,
            parameters_to_dict(args.parameters),
            priority=args.priority,
        )
        revision = envelope["revision"]
        record = envelope["job"]
        print(
            f"revision {revision['parent_digest'][:12]}... "
            f"--{delta['kind']}--> {revision['child_digest'][:12]}..."
        )
        print(f"job {record['job_id']} {record['state']}")
        if not args.wait:
            return 0
        record = client.wait(record["job_id"], timeout=args.timeout)
        print(f"job {record['job_id']} {record['state']}")
        if record["state"] not in ("done", "degraded"):
            if record.get("error"):
                print(f"error: {record['error']}", file=sys.stderr)
            return 1
        print(f"index build: {record.get('index_build')}")
    except ServiceError as error:
        print(f"error: {error.message}", file=sys.stderr)
        return 2
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            records = client.list_jobs()
            if not records:
                print("no jobs")
            for record in records:
                print(f"{record['job_id']}  {record['state']}")
            return 0
        record = client.status(args.job_id)
    except ServiceError as error:
        print(f"error: {error.message}", file=sys.stderr)
        return 2
    for key in ("job_id", "state", "priority", "tenant", "matrix_digest",
                "submitted_at", "started_at", "finished_at", "error",
                "index_cache_hit", "result_cache_hit",
                "missing_shards", "resumed_shards", "shard_failures",
                "index_build", "sweep_id"):
        value = record.get(key)
        if value is not None:
            print(f"{key}: {value}")
    for key, value in sorted(record.get("progress", {}).items()):
        print(f"progress.{key}: {value}")
    for key, seconds in sorted((record.get("phase_timers") or {}).items()):
        print(f"phase.{key}: {seconds:.3f}s")
    print(f"parameters: {record.get('parameters')}")
    if args.stats:
        # Whether the index came from the artifact cache or a cold build.
        if record.get("index_build") is not None:
            print(f"reuse.index_build: {record['index_build']}")
        # Per-shard provenance: which node (or "local"/"checkpoint")
        # mined each shard, and in how many attempts — populated for
        # fleet and non-fleet jobs alike (docs/distributed.md).
        provenance = record.get("shard_provenance") or {}
        for shard, info in sorted(
            provenance.items(), key=lambda item: int(item[0])
        ):
            print(
                f"shard.{shard}: node={info.get('node')} "
                f"attempts={info.get('attempts')}"
            )
    if args.stats and record["state"] in ("done", "degraded"):
        # Degraded jobs have a (partial) payload too — its statistics
        # plus the missing_shards line above tell the whole story.
        try:
            payload = client.result(args.job_id)
        except ServiceError as error:
            print(f"error: {error.message}", file=sys.stderr)
            return 2
        for key, value in sorted(payload.get("statistics", {}).items()):
            print(f"statistics.{key}: {value}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import load_spans, summarize_trace

    # Unknown subcommands cannot reach here (argparse enforces the
    # choices), so this dispatch has exactly one arm for now.
    assert args.trace_command == "summary"
    print(summarize_trace(load_spans(args.path)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command in ("mine", "submit", "evolve"):
        # Satellite fix: reject out-of-range MinG/MinC/gamma/epsilon with
        # a usage error *before* touching the matrix file.
        try:
            args.parameters = _validated_parameters(parser, args)
        except SystemExit as exit_:
            return exit_.code if isinstance(exit_.code, int) else 2
    handlers = {
        "mine": _cmd_mine,
        "generate": _cmd_generate,
        "rwave": _cmd_rwave,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "profile": _cmd_profile,
        "experiment": _cmd_experiment,
        "describe": _cmd_describe,
        "serve": _cmd_serve,
        "node": _cmd_node,
        "submit": _cmd_submit,
        "evolve": _cmd_evolve,
        "status": _cmd_status,
        "trace": _cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
