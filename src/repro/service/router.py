"""Transport-independent request routing for the mining service.

The HTTP surface of the daemon lives here as plain functions over
:class:`Request` / :class:`Response` values, with no socket, thread or
``http.server`` machinery attached — the selector-based front door
(:mod:`repro.service.frontdoor`) parses bytes into a :class:`Request`,
and :meth:`ServiceRouter.handle` turns it into a :class:`Response` to
serialize back.  Keeping routing transport-free is what lets the front
door change (threads yesterday, selectors today) without touching the
wire protocol the clients and smokes pin down.

Routes (see ``docs/service.md`` for payloads):

* ``POST /jobs`` — submit (idempotent); the body may carry a
  ``priority`` (``high`` / ``normal`` / ``low``) and the
  ``X-Repro-Tenant`` header tags the job's tenant.
* ``GET /jobs`` — list all records.
* ``GET /jobs/<id>[?wait=<s>[&state=<seen>]]`` — one record; with
  ``wait`` the request long-polls until the state leaves ``state``
  (default: its current state), the wait times out, or the daemon
  stops.
* ``GET /jobs/<id>/result[?offset=<n>&limit=<n>]`` — the completed
  ``reg-cluster/v1`` document, optionally one ``clusters`` page with a
  ``page`` descriptor.
* ``DELETE /jobs/<id>`` — cancel active / delete terminal.
* ``GET /healthz``, ``GET /metrics`` — observability; answered before
  fault injection so chaos cannot blind the probes.
* ``POST /fleet/lease|complete|heartbeat``, ``GET /fleet/status``,
  ``GET /artifacts/...`` — the distributed work queue
  (``docs/distributed.md``; 404 unless the daemon runs ``--fleet``).
* ``POST /matrices/<digest>/revisions`` — record a typed delta against
  a stored matrix and submit the delta-aware child job
  (``docs/incremental.md``).
* ``POST /sweeps``, ``GET /sweeps[/<id>[/results]]`` — batched
  gamma/epsilon parameter sweeps over one matrix.
"""

from __future__ import annotations

import json
import json.scanner
import re
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core._runs import JsonMatrixReader, json_matrix_reader
from repro.incremental.delta import delta_from_dict
from repro.matrix.expression import ExpressionMatrix
from repro.matrix.io import parse_expression_text
from repro.obs.log import get_logger
from repro.service.jobs import ACTIVE_STATES, JobState, parameters_from_dict
from repro.service.resilience import FaultKind, FaultPlan
from repro.service.service import MAX_LONGPOLL_SECONDS, MiningService

_LOG = get_logger("repro.service.http")

__all__ = [
    "MAX_BODY_BYTES",
    "Request",
    "RequestError",
    "Response",
    "ServiceRouter",
    "decode_body",
    "matrix_from_payload",
]

_JOB_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9_-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9_-]+)/result$")
_MATRIX_ARTIFACT_PATH = re.compile(
    r"^/artifacts/matrix/(?P<digest>[0-9a-f]{64})$"
)
_REVISION_PATH = re.compile(
    r"^/matrices/(?P<digest>[0-9a-f]{64})/revisions$"
)
_SWEEP_PATH = re.compile(r"^/sweeps/(?P<sweep_id>sweep-[0-9a-f]{16})$")
_SWEEP_RESULTS_PATH = re.compile(
    r"^/sweeps/(?P<sweep_id>sweep-[0-9a-f]{16})/results$"
)

#: Refuse request bodies beyond this size (64 MiB covers the paper's
#: yeast matrix inline with two orders of magnitude to spare).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The tenant a request without an ``X-Repro-Tenant`` header bills to.
DEFAULT_TENANT = "default"


class RequestError(ValueError):
    """A client error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One fully-parsed HTTP request (transport already stripped)."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> Dict[str, str]:
        if "?" not in self.target:
            return {}
        raw = self.target.split("?", 1)[1]
        return {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(
                raw, keep_blank_values=True
            ).items()
        }

    @property
    def tenant(self) -> str:
        """The tenant this request bills to (header or the default)."""
        value = self.headers.get("x-repro-tenant", "").strip()
        return value or DEFAULT_TENANT


@dataclass
class Response:
    """One response, ready for the transport to serialize."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: seconds this request *intentionally* parked (long-poll wait) —
    #: subtracted from the latency histogram so p99 measures service
    #: time, not requested sleeps
    waited: float = 0.0

    @classmethod
    def json(
        cls, status: int, payload: Dict[str, Any], **headers: str
    ) -> "Response":
        return cls(
            status,
            json.dumps(payload).encode("utf-8"),
            headers=dict(headers),
        )


#: The stdlib's scanner (its C one where built): what parses an array
#: the native reader declines, from the array's ``[``.
_scan_stdlib = json.JSONDecoder().scan_once


class _BodyDecoder(json.JSONDecoder):
    """Decodes one ASCII body: objects with the stdlib's ``JSONObject``,
    arrays with the native matrix reader first, else the stdlib scanner
    (ASCII, so the str offsets the scanner passes are byte offsets)."""

    def __init__(self, body: bytes, read: JsonMatrixReader) -> None:
        super().__init__()

        def parse_array(state: Tuple[str, int], scan_once: Any) -> Any:
            text, end = state  # ``end`` is just past the ``[``
            return read(body, end - 1) or _scan_stdlib(text, end - 1)

        self.parse_array = parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def decode_body(body: bytes) -> Any:
    """The JSON value of a request body, as :func:`json.loads` gives it,
    except that a rectangular array of numbers (a matrix's ``values``)
    arrives as a float64 ndarray bit-identical to ``np.asarray(...,
    dtype=np.float64)`` of the list.

    Such arrays are read from the bytes by the compiled library
    (:func:`repro.core._runs.json_matrix_reader`).  Without it, or for a
    non-ASCII body, the whole body goes to :func:`json.loads`.  Raises
    what :func:`json.loads` raises for a malformed body.
    """
    read = json_matrix_reader()
    if read is None or not body.isascii():
        return json.loads(body.decode("utf-8"))
    return _BodyDecoder(body, read).decode(body.decode("ascii"))


def matrix_from_payload(payload: Any) -> ExpressionMatrix:
    """Build a matrix from the ``matrix`` member of a POST body.

    A member of the wrong JSON type is a :class:`RequestError`, so a
    malformed body gets a 400 rather than escaping the router.
    """
    if not isinstance(payload, dict):
        raise RequestError(400, "matrix must be a JSON object")
    if ("values" in payload) == ("text" in payload):
        raise RequestError(
            400, "matrix must supply exactly one of 'values', 'text'"
        )
    if "text" in payload:
        if not isinstance(payload["text"], str):
            raise RequestError(400, "matrix 'text' must be a string")
        return parse_expression_text(payload["text"])
    names = [payload.get(key) for key in ("gene_names", "condition_names")]
    if not isinstance(payload["values"], (list, np.ndarray)) or not all(
        name is None or isinstance(name, list) for name in names
    ):
        raise RequestError(
            400,
            "matrix 'values' must be a list of rows, and 'gene_names' "
            "and 'condition_names' lists",
        )
    try:
        values = np.asarray(payload["values"], dtype=np.float64)
    except (TypeError, ValueError):
        raise RequestError(
            400, "matrix 'values' must be rows of numbers"
        ) from None
    return ExpressionMatrix(values, *names)


class ServiceRouter:
    """Routes :class:`Request` values onto one :class:`MiningService`."""

    def __init__(
        self,
        service: MiningService,
        *,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.service = service
        # One plan drives the whole stack: unless overridden, the HTTP
        # layer shares the service's plan, so ``http-5xx`` specs in a
        # ``REPRO_FAULTS`` plan reach the front end too.
        self.fault_plan = (
            fault_plan if fault_plan is not None else service.fault_plan
        )

    # -- plumbing ------------------------------------------------------

    def _read_body(self, request: Request) -> Dict[str, Any]:
        if not request.body:
            raise RequestError(400, "request body required")
        try:
            payload = decode_body(request.body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise RequestError(400, "request body is not valid JSON")
        except RecursionError:
            raise RequestError(400, "request body is nested too deeply")
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    def handle(self, request: Request) -> Response:
        """Dispatch one request; never raises (errors become JSON)."""
        service = self.service
        method = request.method
        path = request.path
        # Observability endpoints answer before fault injection: chaos
        # must not blind the probes watching it.
        if method == "GET" and path == "/healthz":
            return Response.json(200, service.health())
        if method == "GET" and path == "/metrics":
            return Response(
                200,
                service.metrics.render().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        plan = self.fault_plan
        if plan is not None and plan.fire(FaultKind.HTTP_5XX):
            service.metrics.counter(
                "repro_faults_injected_total",
                "Chaos faults that actually fired, by kind.",
                labelnames=("kind",),
            ).labels(kind=FaultKind.HTTP_5XX.value).inc()
            _LOG.warning(
                "fault.injected", kind=FaultKind.HTTP_5XX.value, path=path
            )
            return Response.json(
                503,
                {"error": f"injected {FaultKind.HTTP_5XX.value} fault"},
            )
        try:
            return self._route(request, service)
        except RequestError as error:
            return Response.json(error.status, {"error": str(error)})
        except KeyError as error:
            message = error.args[0] if error.args else str(error)
            return Response.json(404, {"error": str(message)})
        except ValueError as error:
            return Response.json(400, {"error": str(error)})

    def _route(self, request: Request, service: MiningService) -> Response:
        method, path = request.method, request.path
        if method == "POST" and path == "/fleet/lease":
            return self._fleet_lease(request, service)
        if method == "POST" and path == "/fleet/complete":
            fleet = self._fleet(service)
            return Response.json(
                200, fleet.complete(self._read_body(request))
            )
        if method == "POST" and path == "/fleet/heartbeat":
            return self._fleet_heartbeat(request, service)
        if method == "GET" and path == "/fleet/status":
            return Response.json(200, self._fleet(service).snapshot())
        match = _MATRIX_ARTIFACT_PATH.match(path)
        if method == "GET" and match:
            return self._get_matrix_artifact(service, match.group("digest"))
        match = _REVISION_PATH.match(path)
        if method == "POST" and match:
            return self._post_revision(request, service, match.group("digest"))
        if method == "POST" and path == "/sweeps":
            return self._post_sweep(request, service)
        if method == "GET" and path == "/sweeps":
            return Response.json(
                200,
                {
                    "sweeps": [
                        batch.to_dict()
                        for batch in service.sweeps.list_sweeps()
                    ]
                },
            )
        match = _SWEEP_RESULTS_PATH.match(path)
        if method == "GET" and match:
            return Response.json(
                200, service.sweep_results(match.group("sweep_id"))
            )
        match = _SWEEP_PATH.match(path)
        if method == "GET" and match:
            return Response.json(
                200, service.sweep_status(match.group("sweep_id"))
            )
        if method == "POST" and path == "/jobs":
            return self._post_job(request, service)
        if method == "GET" and path == "/jobs":
            return Response.json(
                200,
                {"jobs": [r.to_dict() for r in service.list_jobs()]},
            )
        match = _RESULT_PATH.match(path)
        if method == "GET" and match:
            return self._get_result(request, service, match.group("job_id"))
        match = _JOB_PATH.match(path)
        if method in ("GET", "DELETE") and match:
            job_id = match.group("job_id")
            if method == "GET":
                return self._get_job(request, service, job_id)
            return self._delete_job(service, job_id)
        raise RequestError(404, f"no route {method} {path}")

    # -- fleet handlers ------------------------------------------------

    def _fleet(self, service: MiningService) -> Any:
        fleet = service.fleet
        if fleet is None:
            raise RequestError(
                404, "fleet mode is disabled on this daemon (use --fleet)"
            )
        return fleet

    def _fleet_lease(
        self, request: Request, service: MiningService
    ) -> Response:
        fleet = self._fleet(service)
        body = self._read_body(request)
        node_id = str(body.get("node_id") or "")
        if not node_id:
            raise RequestError(400, "lease request must name a node_id")
        indexes = body.get("indexes") or []
        if not isinstance(indexes, list):
            raise RequestError(400, "indexes must be a list of cache keys")
        max_shards = body.get("max_shards")
        lease = fleet.lease(
            node_id,
            indexes=[str(key) for key in indexes],
            max_shards=None if max_shards is None else int(max_shards),
        )
        return Response.json(200, {"lease": lease})

    def _fleet_heartbeat(
        self, request: Request, service: MiningService
    ) -> Response:
        fleet = self._fleet(service)
        body = self._read_body(request)
        node_id = str(body.get("node_id") or "")
        if not node_id:
            raise RequestError(400, "heartbeat must name a node_id")
        indexes = body.get("indexes") or []
        if not isinstance(indexes, list):
            raise RequestError(400, "indexes must be a list of cache keys")
        return Response.json(
            200,
            fleet.heartbeat(node_id, indexes=[str(k) for k in indexes]),
        )

    def _get_matrix_artifact(
        self, service: MiningService, digest: str
    ) -> Response:
        data = service.matrix_artifact_bytes(digest)
        if data is None:
            raise RequestError(404, f"no stored matrix with digest {digest}")
        return Response(200, data, content_type="application/octet-stream")

    # -- job handlers --------------------------------------------------

    def _post_job(self, request: Request, service: MiningService) -> Response:
        body = self._read_body(request)
        if "parameters" not in body or "matrix" not in body:
            raise RequestError(
                400, "body must contain 'matrix' and 'parameters'"
            )
        params = parameters_from_dict(body["parameters"])
        matrix = matrix_from_payload(body["matrix"])
        priority = body.get("priority")
        if priority is not None and not isinstance(priority, str):
            raise RequestError(400, "priority must be a string")
        tenant = request.headers.get("x-repro-tenant", "").strip() or None
        record = service.submit(
            matrix, params, priority=priority, tenant=tenant
        )
        status = 200 if record.started_at is not None else 202
        return Response.json(status, {"job": record.to_dict()})

    # -- incremental handlers (docs/incremental.md) --------------------

    def _post_revision(
        self, request: Request, service: MiningService, digest: str
    ) -> Response:
        body = self._read_body(request)
        if "delta" not in body or "parameters" not in body:
            raise RequestError(
                400, "body must contain 'delta' and 'parameters'"
            )
        params = parameters_from_dict(body["parameters"])
        try:
            delta = delta_from_dict(body["delta"])
        except ValueError as error:
            raise RequestError(400, str(error)) from None
        priority = body.get("priority")
        if priority is not None and not isinstance(priority, str):
            raise RequestError(400, "priority must be a string")
        tenant = request.headers.get("x-repro-tenant", "").strip() or None
        revision, record = service.submit_revision(
            digest, delta, params, priority=priority, tenant=tenant
        )
        status = 200 if record.started_at is not None else 202
        return Response.json(
            status,
            {"revision": revision.to_dict(), "job": record.to_dict()},
        )

    def _post_sweep(
        self, request: Request, service: MiningService
    ) -> Response:
        body = self._read_body(request)
        for key in ("matrix", "parameters", "gammas", "epsilons"):
            if key not in body:
                raise RequestError(
                    400,
                    "body must contain 'matrix', 'parameters', "
                    "'gammas' and 'epsilons'",
                )
        params = parameters_from_dict(body["parameters"])
        matrix = matrix_from_payload(body["matrix"])
        gammas = body["gammas"]
        epsilons = body["epsilons"]
        if not (
            isinstance(gammas, list) and isinstance(epsilons, list)
            and all(
                isinstance(value, (int, float, str))
                for value in gammas + epsilons
            )
        ):
            raise RequestError(
                400, "gammas and epsilons must be lists of numbers"
            )
        priority = body.get("priority")
        if priority is not None and not isinstance(priority, str):
            raise RequestError(400, "priority must be a string")
        tenant = request.headers.get("x-repro-tenant", "").strip() or None
        batch = service.submit_sweep(
            matrix,
            params,
            gammas=gammas,
            epsilons=epsilons,
            priority=priority,
            tenant=tenant,
        )
        return Response.json(202, {"sweep": batch.to_dict()})

    def _get_job(
        self, request: Request, service: MiningService, job_id: str
    ) -> Response:
        query = request.query
        if "wait" not in query:
            return Response.json(
                200, {"job": service.status(job_id).to_dict()}
            )
        try:
            wait_s = float(query["wait"])
        except ValueError:
            raise RequestError(
                400, f"bad wait value {query['wait']!r}"
            ) from None
        if wait_s < 0.0:
            raise RequestError(400, "wait must be >= 0")
        seen: Optional[JobState] = None
        if "state" in query:
            try:
                seen = JobState(query["state"])
            except ValueError:
                raise RequestError(
                    400, f"unknown state {query['state']!r}"
                ) from None
        started = time.monotonic()
        record = service.wait_for_change(
            job_id, seen_state=seen, timeout=wait_s
        )
        response = Response.json(200, {"job": record.to_dict()})
        response.waited = time.monotonic() - started
        # Tell the client how much of its wait the server honored (the
        # server caps at MAX_LONGPOLL_SECONDS; clients just poll again).
        response.headers["X-Repro-Waited"] = f"{response.waited:.3f}"
        response.headers["X-Repro-Wait-Cap"] = f"{MAX_LONGPOLL_SECONDS:g}"
        return response

    def _get_result(
        self, request: Request, service: MiningService, job_id: str
    ) -> Response:
        query = request.query
        try:
            if "offset" in query or "limit" in query:
                try:
                    offset = int(query.get("offset", "0"))
                    limit = (
                        int(query["limit"]) if "limit" in query else None
                    )
                except ValueError:
                    raise RequestError(
                        400, "offset/limit must be integers"
                    ) from None
                payload = service.result_page(
                    job_id, offset=offset, limit=limit
                )
            else:
                payload = service.result(job_id)
        except ValueError as error:
            raise RequestError(
                400 if "must be" in str(error) else 409, str(error)
            ) from None
        return Response.json(200, payload)

    def _delete_job(self, service: MiningService, job_id: str) -> Response:
        record = service.status(job_id)
        if record.state in ACTIVE_STATES:
            updated = service.cancel(job_id)
            return Response.json(200, {"job": updated.to_dict()})
        service.delete(job_id)
        return Response.json(200, {"deleted": job_id})
