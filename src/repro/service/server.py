"""``EvalServer``: the asyncio HTTP front end over the microbatcher.

Stdlib only — the wire protocol is hand-framed HTTP/1.1 over
``asyncio.start_server`` streams (request line + headers +
``Content-Length`` body, keep-alive by default), JSON bodies both ways:

* ``POST /v1/workload`` — one :class:`~repro.service.api.WorkloadRequest`
  in, one :class:`~repro.service.api.WorkloadResult` out (HTTP 200), or
  ``{"error": <ErrorInfo>}`` with the :class:`ServiceError` subclass's
  status (400 bad request, 429 overloaded, 503 shutting down, 500
  workload failure);
* ``GET /v1/stats`` — live server statistics: request/latency
  aggregates (p50/p99), coalescing factor, and the merged server-level
  telemetry collector;
* ``GET /v1/healthz`` — liveness.

Layering per request: the connection task parses and validates (so
protocol errors answer immediately, without queueing), consults the
``.repro-cache`` content-hash dedupe (same key machinery the experiment
runner uses, under a ``svc-<kind>`` namespace — byte-identical repeat
requests skip the kernels entirely), then awaits
:meth:`Microbatcher.submit`.  Each request runs inside its own
telemetry ``collect`` scope; the per-request child collectors and the
scheduler's per-batch children all merge into one server-level
:class:`~repro.telemetry.Collector` that ``/v1/stats`` reports.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Optional

from .. import faults as _faults
from .. import telemetry as _tele
from ..engine.plan import ExecPlan
from ..telemetry import Collector
from .api import (
    API_VERSION,
    ProtocolError,
    ServiceError,
    WorkloadRequest,
    WorkloadResult,
)
from .scheduler import Microbatcher
from .workloads import handler_for

#: Service-level cache entries are namespaced away from the experiment
#: runner's (same directory, distinct ``experiment_id`` prefix).
_CACHE_NAMESPACE = "svc"


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class EvalServer:
    """The arithmetic-as-a-service endpoint.

    ``window_s``/``max_batch``/``max_queue`` parameterize the
    :class:`Microbatcher` (``max_batch=1`` is the no-coalescing
    baseline the load harness measures against); ``plan`` is the
    execution plan every kernel call runs under; ``cache`` is the
    *server-side* dedupe switch (``"auto"`` honors each request plan's
    cache policy, ``"off"`` disables dedupe entirely).

    Usage::

        async with EvalServer(port=0) as server:
            ...  # server.port is bound; fire ServiceClient requests
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 window_s: float = 0.002, max_batch: int = 64,
                 max_queue: int = 1024,
                 plan: Optional[ExecPlan] = None, cache: str = "auto",
                 cache_dir: Optional[str] = None,
                 max_body: int = 32 * 1024 * 1024,
                 deadline_s: Optional[float] = None):
        if cache not in ("auto", "off"):
            raise ValueError(f"server cache must be 'auto' or 'off', "
                             f"got {cache!r}")
        self.host = host
        self.port = port
        self.plan = plan if plan is not None else ExecPlan()
        self.cache = cache
        self.cache_dir = cache_dir
        self.max_body = max_body
        self.collector = Collector()
        self.batcher = Microbatcher(window_s=window_s, max_batch=max_batch,
                                    max_queue=max_queue, plan=self.plan,
                                    collector=self.collector,
                                    deadline_s=deadline_s)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.perf_counter()
        self._latencies_s: deque = deque(maxlen=10000)
        self._requests = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EvalServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.perf_counter()
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()

    async def __aenter__(self) -> "EvalServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # The workload path
    # ------------------------------------------------------------------
    async def handle_request(self, request: WorkloadRequest) -> WorkloadResult:
        """Validate -> dedupe -> microbatch one request (the transport-
        independent core; the HTTP route and in-process callers share
        it)."""
        handler = handler_for(request.kind)
        handler.validate(request)
        policy = self._cache_policy(request)
        params = request.cache_identity() if policy != "off" else None
        if policy == "auto":
            hit = self._cache_load(request, params)
            if hit is not None:
                return hit
        values, stats = await self.batcher.submit(handler, request)
        if policy in ("auto", "refresh"):
            self._cache_store(request, params, values, stats)
        return WorkloadResult(kind=request.kind, values=values,
                              request_id=request.request_id, stats=stats)

    def _cache_policy(self, request: WorkloadRequest) -> str:
        # The experiment runner does its own caching under its own keys.
        if self.cache == "off" or request.kind == "experiment":
            return "off"
        return request.plan.cache if request.plan is not None else "auto"

    def _cache_load(self, request, params) -> Optional[WorkloadResult]:
        from ..experiments import cache as _cache
        entry = _cache.load(f"{_CACHE_NAMESPACE}-{request.kind}", params,
                            cache_dir=self.cache_dir)
        if entry is None:
            return None
        try:
            payload = json.loads(entry["text"])
            values, stats = payload["values"], payload["stats"]
        except (KeyError, TypeError, ValueError):
            return None
        stats = dict(stats, cached=True)
        return WorkloadResult(kind=request.kind, values=values,
                              request_id=request.request_id, stats=stats)

    def _cache_store(self, request, params, values, stats) -> None:
        from ..experiments import cache as _cache
        _cache.store(f"{_CACHE_NAMESPACE}-{request.kind}", params,
                     json.dumps({"values": values, "stats": stats}),
                     cache_dir=self.cache_dir)

    # ------------------------------------------------------------------
    # HTTP framing
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await self._read_head(reader)
                if head is None:
                    break
                method, path, headers = head
                framing_ok = True
                try:
                    body = await self._read_body(reader, headers)
                    status, payload = await self._route(method, path, body)
                except ServiceError as exc:
                    # A framing failure leaves unread body bytes on the
                    # stream; answer, then drop the connection.
                    framing_ok = False
                    status = exc.http_status
                    payload = {"error": exc.to_error_info().to_json()}
                # The ``service.connection`` fault site: drop the
                # connection *after* the work, before the answer — the
                # worst-timed failure a client can see.  Retried
                # requests dedupe/coalesce rather than recompute.
                try:
                    _faults.fire("service.connection")
                except _faults.InjectedFault:
                    self.collector.count("service.dropped_connections")
                    break
                keep_alive = framing_ok and \
                    headers.get("connection", "").lower() != "close"
                data = json.dumps(payload).encode()
                writer.write(
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: "
                    f"{'keep-alive' if keep_alive else 'close'}\r\n"
                    f"\r\n".encode() + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader):
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return None
        if not line or not line.strip():
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _read_body(self, reader, headers) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ProtocolError("Content-Length must be an integer") \
                from None
        if length <= 0:
            return b""
        if length > self.max_body:
            raise ProtocolError(f"request body of {length} bytes exceeds "
                                f"the {self.max_body}-byte limit")
        return await reader.readexactly(length)

    async def _route(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if method == "POST" and path == "/v1/workload":
            return await self._route_workload(body)
        if method == "GET" and path == "/v1/stats":
            return 200, self.stats()
        if method == "GET" and path == "/v1/healthz":
            return 200, {"ok": True, "api_version": API_VERSION}
        info = ProtocolError(f"no route for {method} {path}; this server "
                             f"speaks POST /v1/workload, GET /v1/stats, "
                             f"GET /v1/healthz").to_error_info()
        return 404, {"error": info.to_json()}

    async def _route_workload(self, body: bytes):
        t0 = time.perf_counter()
        child = Collector()
        self._requests += 1
        try:
            with _tele.collect(collector=child):
                _tele.count("service.http.requests")
                _tele.count("service.http.request_bytes", len(body))
                try:
                    data = json.loads(body.decode())
                except (UnicodeDecodeError, ValueError) as exc:
                    raise ProtocolError(f"request body is not valid "
                                        f"JSON: {exc}") from exc
                request = WorkloadRequest.from_json(data)
                result = await self.handle_request(request)
            status, payload = 200, result.to_json()
        except ServiceError as exc:
            self._errors += 1
            child.count(f"service.errors.{exc.code}")
            status, payload = exc.http_status, {"error":
                                                exc.to_error_info().to_json()}
        self._latencies_s.append(time.perf_counter() - t0)
        self.collector.merge(child)
        return status, payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Live server statistics (the ``/v1/stats`` payload)."""
        latencies = sorted(self._latencies_s)
        counters = self.collector.counters
        batches = counters.get("service.batches", 0)
        batched = counters.get("service.batched_requests", 0)
        return {
            "api_version": API_VERSION,
            "uptime_s": time.perf_counter() - self._started,
            "requests": self._requests,
            "errors": self._errors,
            "in_flight": self.batcher._in_flight,
            "latency_ms": {
                "p50": _percentile(latencies, 0.50) * 1e3,
                "p99": _percentile(latencies, 0.99) * 1e3,
                "window": len(latencies),
            },
            "coalescing": {
                "batches": batches,
                "batched_requests": batched,
                "factor": (batched / batches) if batches else 0.0,
            },
            "config": {
                "window_s": self.batcher.window_s,
                "max_batch": self.batcher.max_batch,
                "max_queue": self.batcher.max_queue,
                "deadline_s": self.batcher.deadline_s,
                "cache": self.cache,
                "plan": self.plan.to_json(),
            },
            "telemetry": self.collector.to_json(),
        }


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


__all__ = ["EvalServer"]
