"""Service smoke test: boot the daemon, mine over HTTP, diff vs direct.

Exercises the full `reg-cluster serve` stack end to end:

1. start a :class:`repro.service.MiningService` plus HTTP front end on
   an ephemeral port (worker pool enabled);
2. poll ``GET /healthz`` until the daemon reports itself ready
   (``executor_alive``) — the readiness handshake every deployment of
   the service should use (docs/observability.md);
3. submit the paper's running example through the HTTP client, poll
   until the job completes, and require ``GET /metrics`` to expose the
   finished job in valid Prometheus text (>= 10 metric families);
4. fetch the result document and require it to be *identical* to a
   direct in-process :func:`repro.core.miner.mine_reg_clusters` run —
   the end-to-end form of the shard-merge equivalence guarantee
   (docs/service.md);
5. resubmit and require an idempotent answer served from cache;
6. then submit a Fig. 7 generator matrix, whose values are full-precision
   reprs (up to 17 digits, so the daemon's native JSON reader takes its
   ``strtod`` branch), and require the record's ``matrix_digest`` to be
   the client's and the result to equal a direct run: a decode that
   changed one bit would change both;
7. on a fresh single-worker store, submit the same matrix/gamma twice
   (different epsilon, so the result cache cannot answer) and require
   the RWave^gamma index artifact to be built once and reused — the
   second job must record an index cache hit.

Exit status 0 on success; prints a unified summary either way.
Used by ``make serve-smoke`` and the CI ``service-smoke`` job.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time

from repro.bench.runner import paper_mining_parameters
from repro.core.miner import mine_reg_clusters
from repro.core.serialize import result_to_dict
from repro.datasets.running_example import load_running_example
from repro.datasets.synthetic import make_synthetic_dataset
from repro.matrix.summary import matrix_digest
from repro.service import MiningService, ServiceClient, serve
from repro.service.jobs import JobState, parameters_to_dict
from repro.core.params import MiningParameters


def wait_healthy(client: ServiceClient, timeout: float = 30.0) -> dict:
    """Poll ``GET /healthz`` until the daemon reports itself ready."""
    deadline = time.monotonic() + timeout
    while True:
        health = client.health()
        if health.get("status") == "ok" and health.get("executor_alive"):
            return health
        if time.monotonic() >= deadline:
            raise TimeoutError(f"daemon never became healthy: {health}")
        time.sleep(0.05)


def direct_result(matrix, params: MiningParameters) -> dict:
    """The result document of an in-process mine."""
    return result_to_dict(
        mine_reg_clusters(
            matrix,
            min_genes=params.min_genes,
            min_conditions=params.min_conditions,
            gamma=params.gamma,
            epsilon=params.epsilon,
        ),
        matrix,
    )


def main() -> int:
    matrix = load_running_example()
    params = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )

    with tempfile.TemporaryDirectory(prefix="reg-cluster-smoke-") as store:
        service = MiningService(store, n_workers=2)
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[0], server.server_address[1]
        print(f"smoke: daemon on http://{host}:{port} (store {store})")
        try:
            client = ServiceClient(f"http://{host}:{port}")
            health = wait_healthy(client)
            if health["n_workers"] != 2:
                print(f"smoke: FAIL — healthz reports n_workers="
                      f"{health['n_workers']}, expected 2")
                return 1
            print(f"smoke: daemon healthy (uptime "
                  f"{health['uptime_seconds']:.1f}s)")
            record = client.submit_matrix(matrix, parameters_to_dict(params))
            print(f"smoke: submitted {record['job_id']} ({record['state']})")
            done = client.wait(record["job_id"], timeout=120)
            print(f"smoke: job finished as {done['state']}")
            if done["state"] != "done":
                print(f"smoke: FAIL — job ended {done['state']}: "
                      f"{done.get('error')}")
                return 1
            via_http = client.result(record["job_id"])

            direct = direct_result(matrix, params)
            if via_http != direct:
                print("smoke: FAIL — service result differs from direct run")
                print("--- service ---")
                print(json.dumps(via_http, indent=2, sort_keys=True))
                print("--- direct ---")
                print(json.dumps(direct, indent=2, sort_keys=True))
                return 1
            print(
                f"smoke: result identical to direct mining "
                f"({len(direct['clusters'])} cluster(s), "
                f"{direct['statistics']['nodes_expanded']} nodes)"
            )

            again = client.submit_matrix(matrix, parameters_to_dict(params))
            if again["job_id"] != record["job_id"] or again["state"] != "done":
                print("smoke: FAIL — resubmission was not idempotent")
                return 1
            print("smoke: resubmission answered idempotently from cache")

            metrics = client.metrics()
            families = [
                line for line in metrics.splitlines()
                if line.startswith("# TYPE ")
            ]
            if len(families) < 10:
                print(f"smoke: FAIL — /metrics exposes only "
                      f"{len(families)} families (< 10)")
                return 1
            if 'repro_jobs_total{state="done"} 1' not in metrics:
                print("smoke: FAIL — /metrics does not show the finished "
                      "job")
                return 1
            print(f"smoke: /metrics exposes {len(families)} Prometheus "
                  f"families; finished job counted")

            fig7 = make_synthetic_dataset(
                n_genes=300, n_conditions=12, n_clusters=30, seed=9
            ).matrix
            fig7_params = paper_mining_parameters(fig7.n_genes)
            fig7_record = client.submit_matrix(
                fig7, parameters_to_dict(fig7_params)
            )
            if fig7_record["matrix_digest"] != matrix_digest(fig7):
                print("smoke: FAIL — the daemon decoded a full-precision "
                      "matrix to another digest")
                return 1
            fig7_done = client.wait(fig7_record["job_id"], timeout=120)
            if fig7_done["state"] != "done" or client.result(
                fig7_record["job_id"]
            ) != direct_result(fig7, fig7_params):
                print(f"smoke: FAIL — the full-precision job ended "
                      f"{fig7_done['state']} or differs from direct mining")
                return 1
            print("smoke: full-precision 300x12 matrix decoded to the "
                  "client's digest; result identical to direct mining")
        finally:
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    # Index artifact reuse, checked on an in-process (single-worker)
    # service.  Every job resolves its index in the daemon and stores
    # it, whatever its worker count; pool workers inherit it.
    with tempfile.TemporaryDirectory(prefix="reg-cluster-smoke-") as store:
        service = MiningService(store, n_workers=1)
        try:
            first = service.submit(matrix, params)
            service.run_pending()
            first_done = service.status(first.job_id)
            if first_done.index_cache_hit is not False:
                print("smoke: FAIL — first job should have built the "
                      f"index, recorded {first_done.index_cache_hit!r}")
                return 1
            if service.cache.stats.index_stores != 1:
                print("smoke: FAIL — index artifact was not stored")
                return 1

            # Same matrix and gamma, different epsilon: new job id, so
            # the result cache cannot short-circuit the index lookup.
            second = service.submit(
                matrix, params.with_overrides(epsilon=0.3)
            )
            service.run_pending()
            second_done = service.status(second.job_id)
            if second_done.state is not JobState.DONE:
                print(f"smoke: FAIL — second job ended "
                      f"{second_done.state.value}: {second_done.error}")
                return 1
            if second_done.index_cache_hit is not True:
                print("smoke: FAIL — second job rebuilt the index")
                return 1
            if service.cache.stats.index_hits != 1 or (
                service.cache.stats.index_stores != 1
            ):
                print("smoke: FAIL — index cache counters off: "
                      f"{service.cache.stats.as_dict()}")
                return 1
            print("smoke: index artifact built once, second submission "
                  "served from cache (index_cache_hit recorded)")
        finally:
            service.stop()

    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
