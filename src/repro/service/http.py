"""JSON-over-HTTP front end for the mining service (stdlib only).

Endpoints
---------
``POST /jobs``
    Submit a job.  Body: ``{"matrix": <matrix>, "parameters":
    {"min_genes": ..., "min_conditions": ..., "gamma": ...,
    "epsilon": ..., "max_clusters": ...}}`` where ``<matrix>`` is one of

    * ``{"values": [[...], ...], "gene_names": [...],
      "condition_names": [...]}`` (names optional) — inline data;
    * ``{"text": "..."}`` — a tab-delimited expression table.

    The body may also carry ``"priority"`` (``high`` / ``normal`` /
    ``low`` — weighted-fair executor share, ``docs/service.md``), and
    an ``X-Repro-Tenant`` header tags the job's tenant for admission
    accounting.  Responds ``202`` with ``{"job": {...}}`` (``200``
    when the job already exists — submission is idempotent on
    content + parameters).
``GET /jobs``
    ``{"jobs": [{...}, ...]}`` — every job record, oldest first.
``GET /jobs/<id>``
    One job record, including live progress counters.  With
    ``?wait=<s>`` the request long-polls: it answers as soon as the
    job's state changes (from ``&state=<seen>``, or from its current
    state), or after ``wait`` seconds (capped server-side), whichever
    comes first — replacing tight status polling.
``GET /jobs/<id>/result``
    The completed result as a ``reg-cluster/v1`` document
    (``409`` while the job is neither ``done`` nor ``degraded``; a
    degraded job serves its surviving shards' merged clusters, and its
    record lists the ``missing_shards``).  ``?offset=<n>&limit=<n>``
    pages the ``clusters`` list and adds a ``page`` descriptor with
    ``next_offset`` for cursoring large clusterings.
``DELETE /jobs/<id>``
    Cancel an active job (cooperative, via the miner's ``should_stop``
    hook); delete a terminal job's record and cached result.
``GET /healthz``
    Liveness: ``{"status": "ok", ...}`` with uptime, per-priority
    queue depths and per-state job counts (``docs/observability.md``).
``GET /metrics``
    The service's :class:`~repro.obs.metrics.MetricsRegistry` in
    Prometheus text exposition format.

Incremental endpoints (``docs/incremental.md``):

``POST /matrices/<digest>/revisions``
    Apply a typed delta (``append_conditions`` / ``append_genes`` /
    ``drop_genes``) to a stored matrix and submit the child matrix as
    an ordinary job.  Body: ``{"delta": {...}, "parameters": {...}}``;
    responds ``{"revision": {...}, "job": {...}}``.
``POST /sweeps``
    Submit a gamma/epsilon grid over one matrix as a batch.  Body:
    ``{"matrix": <matrix>, "parameters": {...}, "gammas": [...],
    "epsilons": [...]}``; responds ``202`` with ``{"sweep": {...}}``.
``GET /sweeps`` / ``GET /sweeps/<id>`` / ``GET /sweeps/<id>/results``
    List batches, one batch's per-point states, or per-point results
    (``null`` for unfinished points).

Fleet endpoints (``404`` unless the daemon runs with ``--fleet``; see
``docs/distributed.md`` for the full protocol):

``POST /fleet/lease``
    Body ``{"node_id": ..., "indexes": [...], "max_shards": ...}``;
    responds ``{"lease": {...}}`` with a shard lease, or
    ``{"lease": null}`` when the queue is idle.
``POST /fleet/complete``
    One shard result (or failure report) under a lease; responds
    ``{"accepted": bool, ...}`` — late/duplicate completions are
    rejected idempotently, never erred.
``POST /fleet/heartbeat``
    Node liveness beacon; extends the node's leases.
``GET /fleet/status``
    The coordinator's queue/node snapshot.
``GET /artifacts/matrix/<digest>``
    Content-addressed matrix fetch: the stored ``.npz`` bytes of the
    matrix whose :func:`~repro.matrix.summary.matrix_digest` is
    ``<digest>``.

``/healthz`` and ``/metrics`` are answered inline by the event loop,
before fault injection and outside admission control — observability
must stay up while chaos or overload is running.

Errors are JSON: ``{"error": "..."}`` with a 4xx status.  Requests
shed by admission control get ``429`` with a ``Retry-After`` header
(``docs/service.md``).

The server is the selector-based
:class:`~repro.service.frontdoor.FrontDoorServer` — a non-blocking
accept/parse event loop feeding a bounded worker pool, with
connection/queue caps and optional per-tenant token-bucket rate
limits and in-flight quotas.  Job execution itself stays on the
service's single background thread, so the HTTP workers only ever do
cheap store/cache reads (and long-poll parks).  Every request is
counted and timed into the service registry, and — unless ``quiet`` —
emitted as a structured ``http.access`` log event.

:class:`ServiceClient` is the matching urllib-based client used by the
``reg-cluster submit`` / ``status`` CLI subcommands and the smoke
tests.  The client retries connection failures and 5xx responses with
exponential backoff (``connect_retries`` attempts), so callers racing
a daemon that is still binding its socket — or one running under an
``http-5xx`` chaos fault (``docs/robustness.md``) — see one clean
answer, not a stack trace.  A ``429`` shed is retried honoring the
server's ``Retry-After`` hint; when retries run out it surfaces as
:class:`ServiceBusy` (a :class:`ServiceError` subclass carrying
``retry_after``), so callers can tell "you are the problem" (4xx)
from "come back later" apart.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.matrix.expression import ExpressionMatrix
from repro.service.frontdoor import FrontDoorServer
from repro.service.resilience import FaultPlan
from repro.service.router import (  # noqa: F401 — re-exported surface
    MAX_BODY_BYTES,
    RequestError as _RequestError,
    matrix_from_payload,
)
from repro.service.service import MiningService

__all__ = [
    "ServiceHTTPServer",
    "ServiceClient",
    "ServiceError",
    "ServiceBusy",
    "matrix_from_payload",
    "matrix_payload",
    "serve",
]


def matrix_payload(matrix: ExpressionMatrix) -> Dict[str, Any]:
    """The inline ``matrix`` member of a POST body (the inverse of
    :func:`matrix_from_payload`)."""
    return {
        "values": matrix.values.tolist(),
        "gene_names": list(matrix.gene_names),
        "condition_names": list(matrix.condition_names),
    }


#: The selector-based front door, under the name the rest of the code
#: base (and downstream users) imported the threading server as.
ServiceHTTPServer = FrontDoorServer


def serve(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    max_connections: Optional[int] = None,
    queue_depth: Optional[int] = None,
    http_workers: Optional[int] = None,
    tenant_rate: Optional[float] = None,
    tenant_burst: Optional[float] = None,
    tenant_quota: Optional[int] = None,
    idle_timeout: Optional[float] = None,
) -> FrontDoorServer:
    """Bind (but do not run) the HTTP front end; port 0 = ephemeral.

    The caller runs ``server.serve_forever()`` (typically on the main
    thread) and is responsible for ``service.start()``.  ``fault_plan``
    overrides the service's plan for the HTTP layer only (chaos tests).
    Admission knobs default to the front door's generous limits;
    tenant rate/quota accounting stays off unless configured
    (``docs/service.md``).
    """
    options: Dict[str, Any] = {}
    if max_connections is not None:
        options["max_connections"] = max_connections
    if queue_depth is not None:
        options["queue_depth"] = queue_depth
    if http_workers is not None:
        options["http_workers"] = http_workers
    if tenant_rate is not None:
        options["tenant_rate"] = tenant_rate
    if tenant_burst is not None:
        options["tenant_burst"] = tenant_burst
    if tenant_quota is not None:
        options["tenant_quota"] = tenant_quota
    if idle_timeout is not None:
        # 0 (or negative) from the CLI means "disable the sweep".
        options["idle_timeout"] = (
            idle_timeout if idle_timeout > 0 else None
        )
    return FrontDoorServer(
        (host, port), service, quiet=quiet, fault_plan=fault_plan,
        **options,
    )


class ServiceError(RuntimeError):
    """An HTTP error reported by the service, with its status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class ServiceBusy(ServiceError):
    """A 429 shed by admission control that survived client retries.

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds (the last one seen), so callers can back off precisely
    instead of guessing.
    """

    def __init__(
        self, message: str, *, retry_after: float = 1.0
    ) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServiceClient:
    """Minimal urllib client for the endpoints above.

    Transient failures are retried with exponential backoff: connection
    errors (daemon not yet listening — ``URLError``), mid-request
    socket resets (``ConnectionResetError``, which covers
    ``http.client.RemoteDisconnected`` — typical when a server drops a
    keep-alive connection under load or restart) and 5xx responses get
    up to ``connect_retries`` extra attempts, sleeping
    ``retry_backoff * 2**attempt`` seconds between them.  A ``429``
    shed retries too, but honors the server's ``Retry-After`` hint
    when it is longer than the backoff, and exhausting retries raises
    :class:`ServiceBusy`.  Other 4xx responses raise
    :class:`ServiceError` immediately — they are the caller's fault,
    and submission is idempotent so retrying them cannot help.

    ``tenant`` stamps every request with an ``X-Repro-Tenant`` header
    for the server's per-tenant admission accounting.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        connect_retries: int = 5,
        retry_backoff: float = 0.2,
        tenant: Optional[str] = None,
    ) -> None:
        if connect_retries < 0:
            raise ValueError(
                f"connect_retries must be >= 0, got {connect_retries}"
            )
        if retry_backoff < 0.0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff
        self.tenant = tenant

    def _build(self, method: str, path: str) -> urllib.request.Request:
        request = urllib.request.Request(
            self.base_url + path, method=method
        )
        if self.tenant:
            request.add_header("X-Repro-Tenant", self.tenant)
        return request

    @staticmethod
    def _http_error_details(
        error: urllib.error.HTTPError,
    ) -> Tuple[str, float]:
        """(message, retry_after_seconds) from an error response."""
        try:
            message = json.loads(error.read().decode("utf-8")).get(
                "error", error.reason
            )
        except (json.JSONDecodeError, UnicodeDecodeError):
            message = str(error.reason)
        try:
            retry_after = float(error.headers.get("Retry-After") or 1.0)
        except (TypeError, ValueError):
            retry_after = 1.0
        return str(message), max(0.0, retry_after)

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        data = None
        for attempt in range(self.connect_retries + 1):
            request = self._build(method, path)
            if payload is not None:
                data = json.dumps(payload).encode("utf-8")
                request.add_header("Content-Type", "application/json")
            try:
                with urllib.request.urlopen(
                    request,
                    data=data,
                    timeout=self.timeout if timeout is None else timeout,
                ) as response:
                    return dict(json.loads(response.read().decode("utf-8")))
            except urllib.error.HTTPError as error:
                # Before URLError: HTTPError is a URLError subclass.
                message, retry_after = self._http_error_details(error)
                if error.code == 429:
                    # Shed by admission control: honor the server's
                    # Retry-After hint (but never sleep less than the
                    # regular backoff would).
                    if attempt < self.connect_retries:
                        time.sleep(
                            max(
                                retry_after,
                                self.retry_backoff * (2.0 ** attempt),
                            )
                        )
                        continue
                    raise ServiceBusy(
                        message, retry_after=retry_after
                    ) from None
                if error.code >= 500 and attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise ServiceError(error.code, message) from None
            except urllib.error.URLError:
                # Connection refused/reset — typical while the daemon is
                # still binding its socket after a (re)start.
                if attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise
            except ConnectionResetError:
                # Raised *outside* urllib's URLError wrapping when an
                # established connection dies mid-request (includes
                # http.client.RemoteDisconnected, its subclass) — e.g.
                # the server dropped a keep-alive socket between our
                # send and its response.  Just as transient as a
                # refused connect, so it gets the same backoff.
                if attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise
        raise AssertionError("unreachable: the retry loop returns or raises")

    def _request_bytes(self, path: str) -> bytes:
        """GET a binary artifact with the same retry policy as JSON."""
        for attempt in range(self.connect_retries + 1):
            try:
                with urllib.request.urlopen(
                    self._build("GET", path), timeout=self.timeout
                ) as response:
                    return bytes(response.read())
            except urllib.error.HTTPError as error:
                message, retry_after = self._http_error_details(error)
                if error.code == 429:
                    if attempt < self.connect_retries:
                        time.sleep(
                            max(
                                retry_after,
                                self.retry_backoff * (2.0 ** attempt),
                            )
                        )
                        continue
                    raise ServiceBusy(
                        message, retry_after=retry_after
                    ) from None
                if error.code >= 500 and attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise ServiceError(error.code, message) from None
            except (urllib.error.URLError, ConnectionResetError):
                if attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise
        raise AssertionError("unreachable: the retry loop returns or raises")

    # -- endpoints -----------------------------------------------------

    def submit_matrix(
        self,
        matrix: ExpressionMatrix,
        parameters: Dict[str, Any],
        *,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit inline matrix data; returns the job record dict."""
        body: Dict[str, Any] = {
            "matrix": matrix_payload(matrix),
            "parameters": parameters,
        }
        if priority is not None:
            body["priority"] = priority
        return dict(self._request("POST", "/jobs", body)["job"])

    def submit_text(
        self,
        text: str,
        parameters: Dict[str, Any],
        *,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a tab-delimited expression table as text."""
        body: Dict[str, Any] = {
            "matrix": {"text": text},
            "parameters": parameters,
        }
        if priority is not None:
            body["priority"] = priority
        return dict(self._request("POST", "/jobs", body)["job"])

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` liveness payload (retries like any
        request, so it doubles as a readiness poll after a daemon
        start)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw ``GET /metrics`` Prometheus text exposition."""
        for attempt in range(self.connect_retries + 1):
            try:
                with urllib.request.urlopen(
                    self._build("GET", "/metrics"), timeout=self.timeout
                ) as response:
                    return str(response.read().decode("utf-8"))
            except (urllib.error.URLError, ConnectionResetError):
                # ConnectionResetError covers RemoteDisconnected: a
                # dropped keep-alive socket mid-scrape retries too.
                if attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2.0 ** attempt))
                    continue
                raise
        raise AssertionError("unreachable: the retry loop returns or raises")

    def status(self, job_id: str) -> Dict[str, Any]:
        return dict(self._request("GET", f"/jobs/{job_id}")["job"])

    def wait_for_change(
        self,
        job_id: str,
        *,
        wait: float,
        seen_state: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Long-poll one record: ``GET /jobs/<id>?wait=<s>``.

        Answers as soon as the state differs from ``seen_state`` (or
        from its state at request time), or after ``wait`` seconds
        (server-capped), whichever is first.
        """
        query = f"/jobs/{job_id}?wait={wait:g}"
        if seen_state is not None:
            query += f"&state={seen_state}"
        # The HTTP timeout must outlast the requested park time.
        return dict(
            self._request(
                "GET", query, timeout=self.timeout + wait
            )["job"]
        )

    def list_jobs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/jobs")["jobs"])

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def result_page(
        self,
        job_id: str,
        *,
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One page of the result's ``clusters`` plus a ``page``
        descriptor (``next_offset`` is ``None`` on the last page)."""
        query = f"/jobs/{job_id}/result?offset={int(offset)}"
        if limit is not None:
            query += f"&limit={int(limit)}"
        return self._request("GET", query)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_interval: float = 0.1,
    ) -> Dict[str, Any]:
        """Wait until the job leaves the active states; returns its
        record.

        Uses server-side long-polling (``?wait=``), so state changes
        answer immediately instead of on the next poll tick;
        ``poll_interval`` survives as the pause between long-poll
        rounds for very long waits.  Raises :class:`TimeoutError` if
        the job stays active past ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        record = self.status(job_id)
        while True:
            if record["state"] not in ("submitted", "running"):
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout:g}s"
                )
            record = self.wait_for_change(
                job_id,
                wait=min(remaining, 30.0),
                seen_state=str(record["state"]),
            )
            if (
                record["state"] in ("submitted", "running")
                and poll_interval > 0.0
            ):
                time.sleep(min(poll_interval, 0.05))

    # -- incremental endpoints (docs/incremental.md) -------------------

    def submit_revision(
        self,
        parent_digest: str,
        delta: Dict[str, Any],
        parameters: Dict[str, Any],
        *,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Evolve a stored matrix by one typed delta and mine the child.

        ``delta`` is the JSON delta form (``{"kind":
        "append_conditions" | "append_genes" | "drop_genes", ...}``,
        see ``docs/incremental.md``).  Returns ``{"revision": {...},
        "job": {...}}``.
        """
        body: Dict[str, Any] = {
            "delta": dict(delta),
            "parameters": parameters,
        }
        if priority is not None:
            body["priority"] = priority
        return self._request(
            "POST", f"/matrices/{parent_digest}/revisions", body
        )

    def submit_sweep(
        self,
        matrix: ExpressionMatrix,
        parameters: Dict[str, Any],
        *,
        gammas: List[float],
        epsilons: List[float],
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a gamma/epsilon grid batch; returns the sweep dict."""
        body: Dict[str, Any] = {
            "matrix": matrix_payload(matrix),
            "parameters": parameters,
            "gammas": [float(g) for g in gammas],
            "epsilons": [float(e) for e in epsilons],
        }
        if priority is not None:
            body["priority"] = priority
        return dict(self._request("POST", "/sweeps", body)["sweep"])

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        """The per-point state envelope of one sweep batch."""
        return self._request("GET", f"/sweeps/{sweep_id}")

    def sweep_results(self, sweep_id: str) -> Dict[str, Any]:
        """Per-point results (``None`` for unfinished points)."""
        return self._request("GET", f"/sweeps/{sweep_id}/results")

    def list_sweeps(self) -> List[Dict[str, Any]]:
        """Every recorded sweep batch, oldest first."""
        return list(self._request("GET", "/sweeps")["sweeps"])

    # -- fleet endpoints (docs/distributed.md) -------------------------

    def fleet_lease(
        self,
        node_id: str,
        *,
        indexes: Optional[List[str]] = None,
        max_shards: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """Request a shard lease; ``None`` when the queue is idle.

        ``indexes`` advertises the node's cached index artifacts for
        affinity routing.
        """
        body: Dict[str, Any] = {
            "node_id": node_id,
            "indexes": list(indexes or []),
        }
        if max_shards is not None:
            body["max_shards"] = int(max_shards)
        lease = self._request("POST", "/fleet/lease", body).get("lease")
        return None if lease is None else dict(lease)

    def fleet_complete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Report one shard completion (or failure) under a lease."""
        return self._request("POST", "/fleet/complete", dict(payload))

    def fleet_heartbeat(
        self, node_id: str, *, indexes: Optional[List[str]] = None
    ) -> Dict[str, Any]:
        """Beacon node liveness; extends the node's active leases."""
        return self._request(
            "POST",
            "/fleet/heartbeat",
            {"node_id": node_id, "indexes": list(indexes or [])},
        )

    def fleet_status(self) -> Dict[str, Any]:
        """The coordinator's queue/node snapshot."""
        return self._request("GET", "/fleet/status")

    def fetch_matrix(self, digest: str) -> bytes:
        """The stored ``.npz`` bytes of the matrix with this digest."""
        return self._request_bytes(f"/artifacts/matrix/{digest}")
