"""Chaos smoke test: kill a worker mid-job, require a perfect recovery.

The fault-injection counterpart of ``scripts/serve_smoke.py``
(docs/robustness.md).  Three phases, each on a fresh store:

1. **Crash recovery, end to end.**  Boot the daemon (two-process worker
   pool) under a :class:`~repro.service.resilience.FaultPlan` that
   SIGKILLs the worker mining one deterministically chosen shard.
   Submit the paper's running example over HTTP and require the job to
   finish ``done`` with a result *identical* to a direct in-process
   :func:`repro.core.miner.mine_reg_clusters` run — the retry must heal
   the crash without a trace in the output — and the retry to show up
   in ``GET /metrics`` (``repro_shard_retries_total``).  Then submit a
   second matrix to the same daemon: the victim's first attempt dies in
   every job, so it must end ``done`` and exact again, with the shard
   failure recorded — the replacement pool serves later jobs and can
   itself be broken and replaced.
2. **Graceful degradation.**  Re-mine with the retry budget set to
   zero and a shard that always crashes: the job must finish
   ``degraded`` (not ``failed``), listing exactly the killed shard in
   ``missing_shards``, its payload must equal the direct run minus
   that shard's clusters, and the degraded gauge / lost-shard and
   fault counters must all move.
3. **HTTP 5xx + client retry.**  Serve under an ``http-5xx`` fault and
   require the stock :class:`~repro.service.ServiceClient` to absorb
   the injected 503s transparently — while ``/healthz`` and
   ``/metrics``, which answer *before* fault injection, stay usable
   throughout the chaos.

Exit status 0 on success; prints a unified summary either way.
Used by ``make chaos-smoke`` and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time

from repro.core.miner import mine_reg_clusters
from repro.core.params import MiningParameters
from repro.core.serialize import result_to_dict
from repro.datasets.running_example import load_running_example
from repro.datasets.synthetic import make_synthetic_dataset
from repro.service import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    MiningService,
    RetryPolicy,
    ServiceClient,
    serve,
)
from repro.service.jobs import JobState, parameters_to_dict


def _wait_healthy(client: ServiceClient, timeout: float = 30.0) -> dict:
    """Poll ``GET /healthz`` until the daemon reports itself ready."""
    deadline = time.monotonic() + timeout
    while True:
        health = client.health()
        if health.get("status") == "ok" and health.get("executor_alive"):
            return health
        if time.monotonic() >= deadline:
            raise TimeoutError(f"daemon never became healthy: {health}")
        time.sleep(0.05)


def _direct_payload(matrix, params):
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


def _phase_crash_recovery(matrix, params, direct) -> int:
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.KILL_WORKER, shard=None, times=1)],
        seed=7,
    )
    victim = plan.choose_shard(matrix.n_conditions)
    # Pin the kill to the chosen shard so exactly one attempt dies.
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.KILL_WORKER, shard=victim, times=1)],
        seed=7,
    )
    print(f"chaos: phase 1 — SIGKILL the worker mining shard {victim}")
    with tempfile.TemporaryDirectory(prefix="reg-cluster-chaos-") as store:
        service = MiningService(
            store,
            n_workers=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
            fault_plan=plan,
        )
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[0], server.server_address[1]
        try:
            client = ServiceClient(f"http://{host}:{port}")
            _wait_healthy(client)
            record = client.submit_matrix(matrix, parameters_to_dict(params))
            done = client.wait(record["job_id"], timeout=180)
            if done["state"] != "done":
                print(f"chaos: FAIL — job ended {done['state']}: "
                      f"{done.get('error')}")
                return 1
            if not done.get("shard_failures"):
                print("chaos: FAIL — no shard failure was recorded, so the "
                      "fault never fired")
                return 1
            via_http = client.result(record["job_id"])
            if via_http != direct:
                print("chaos: FAIL — recovered result differs from direct "
                      "mining")
                return 1
            # A SIGKILLed worker fails every shard it had in flight, so
            # one kill can surface as several retried attempts.
            metrics = client.metrics()
            retries = next(
                (
                    float(line.rsplit(" ", 1)[1])
                    for line in metrics.splitlines()
                    if line.startswith("repro_shard_retries_total ")
                ),
                0.0,
            )
            if retries < 1:
                print("chaos: FAIL — /metrics did not count the shard retry")
                return 1
            if 'repro_jobs_current{state="done"} 1' not in metrics:
                print("chaos: FAIL — done gauge did not move after recovery")
                return 1
            print(
                f"chaos: worker killed and retried "
                f"(failures: {done['shard_failures']}); result identical "
                f"to direct mining ({len(direct['clusters'])} cluster(s)); "
                f"retry visible in /metrics"
            )
            status = _second_job_on_the_replaced_pool(client, victim)
            if status != 0:
                return status
        finally:
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    return 0


def _second_job_on_the_replaced_pool(client: ServiceClient, victim: int) -> int:
    matrix = make_synthetic_dataset(
        n_genes=60, n_conditions=12, n_clusters=2, seed=5
    ).matrix
    params = MiningParameters(
        min_genes=3, min_conditions=4, gamma=0.2, epsilon=0.5
    )
    direct = _direct_payload(matrix, params)
    record = client.submit_matrix(matrix, parameters_to_dict(params))
    done = client.wait(record["job_id"], timeout=180)
    if done["state"] != "done":
        print(f"chaos: FAIL — second job ended {done['state']}: "
              f"{done.get('error')}")
        return 1
    if str(victim) not in (done.get("shard_failures") or {}):
        print("chaos: FAIL — the second job recorded no failure of shard "
              f"{victim}, so the replacement pool was never broken")
        return 1
    if client.result(record["job_id"]) != direct:
        print("chaos: FAIL — second job's result differs from direct mining")
        return 1
    print(f"chaos: second job on the same daemon killed its worker too "
          f"(failures: {done['shard_failures']}) and matched direct mining "
          f"({len(direct['clusters'])} cluster(s))")
    return 0


def _phase_degraded(matrix, params, direct) -> int:
    # Kill the shard that actually carries the running example's
    # cluster, so the loss is visible in the degraded payload.
    # (Serialized chains carry condition *names*; shards are indices.)
    victim = list(matrix.condition_names).index(
        direct["clusters"][0]["chain"][0]
    )
    victim_name = matrix.condition_names[victim]
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.CRASH_SHARD, shard=victim, times=10**6)],
        seed=11,
    )
    print(f"chaos: phase 2 — shard {victim} always crashes, retry budget 0")
    with tempfile.TemporaryDirectory(prefix="reg-cluster-chaos-") as store:
        service = MiningService(
            store,
            n_workers=1,
            retry=RetryPolicy(max_retries=0),
            fault_plan=plan,
        )
        try:
            record = service.submit(matrix, params)
            service.run_pending()
            done = service.status(record.job_id)
            if done.state is not JobState.DEGRADED:
                print(f"chaos: FAIL — expected degraded, got "
                      f"{done.state.value}: {done.error}")
                return 1
            if done.missing_shards != [victim]:
                print(f"chaos: FAIL — missing_shards {done.missing_shards}, "
                      f"expected [{victim}]")
                return 1
            payload = service.result(record.job_id)
            if any(
                c["chain"][0] == victim_name for c in payload["clusters"]
            ):
                print("chaos: FAIL — degraded payload contains clusters "
                      "from the lost shard")
                return 1
            surviving = [
                c for c in direct["clusters"] if c["chain"][0] != victim_name
            ]
            missing = [c for c in surviving if c not in payload["clusters"]]
            if missing:
                print("chaos: FAIL — degraded payload dropped clusters of "
                      "surviving shards")
                return 1
            metrics = service.metrics.render()
            for needle in (
                'repro_jobs_current{state="degraded"} 1',
                "repro_shards_lost_total 1",
                'repro_faults_injected_total{kind="crash-shard"} 1',
            ):
                if needle not in metrics:
                    print(f"chaos: FAIL — metrics missing {needle!r}")
                    return 1
            print(
                f"chaos: job degraded cleanly — missing_shards=[{victim}], "
                f"{len(payload['clusters'])}/{len(direct['clusters'])} "
                f"cluster(s) survived; degraded gauge, lost-shard and "
                f"fault counters all moved"
            )
        finally:
            service.stop()
    return 0


def _phase_http_5xx(matrix, params, direct) -> int:
    plan = FaultPlan([FaultSpec(kind=FaultKind.HTTP_5XX, times=2)], seed=3)
    print("chaos: phase 3 — first two HTTP requests answer 503")
    with tempfile.TemporaryDirectory(prefix="reg-cluster-chaos-") as store:
        service = MiningService(store, n_workers=1)
        server = serve(service, fault_plan=plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[0], server.server_address[1]
        try:
            client = ServiceClient(
                f"http://{host}:{port}",
                connect_retries=4,
                retry_backoff=0.05,
            )
            # The probes answer before fault injection: chaos must never
            # blind /healthz or /metrics (docs/observability.md).
            _wait_healthy(client)
            if plan.fired(FaultKind.HTTP_5XX) != 0:
                print("chaos: FAIL — healthz consumed an injected 503; "
                      "probes must answer before fault injection")
                return 1
            record = client.submit_matrix(matrix, parameters_to_dict(params))
            done = client.wait(record["job_id"], timeout=180)
            if done["state"] != "done":
                print(f"chaos: FAIL — job ended {done['state']}: "
                      f"{done.get('error')}")
                return 1
            if client.result(record["job_id"]) != direct:
                print("chaos: FAIL — result differs from direct mining")
                return 1
            if plan.fired(FaultKind.HTTP_5XX) != 2:
                print("chaos: FAIL — injected 503s never fired "
                      f"({plan.fired(FaultKind.HTTP_5XX)} of 2)")
                return 1
            if (
                'repro_faults_injected_total{kind="http-5xx"} 2'
                not in client.metrics()
            ):
                print("chaos: FAIL — /metrics did not count the 503 faults")
                return 1
            print("chaos: client absorbed both injected 503s (counted in "
                  "/metrics); probes answered through the chaos")
        finally:
            service.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    return 0


def main() -> int:
    matrix = load_running_example()
    params = MiningParameters(
        min_genes=3, min_conditions=5, gamma=0.15, epsilon=0.1
    )
    direct = _direct_payload(matrix, params)
    for phase in (_phase_crash_recovery, _phase_degraded, _phase_http_5xx):
        status = phase(matrix, params, direct)
        if status != 0:
            return status
    print("chaos: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
