"""The production daemon behind ``repro serve``.

On top of the warm-process contract -- shared kernel cache, shared
:class:`~repro.api.store.ArtifactStore`, byte-identical envelopes --
the daemon adds three production capabilities:

**Streaming.**  ``POST /v1/stream`` emits the typed event protocol live
as NDJSON lines while the request executes, terminated by the exact
byte-identical envelope a one-shot run would return (see
:mod:`repro.serve.streaming`).  ``POST /v1/execute`` always answers
one-shot.

**Admission control.**  Every request passes the
:class:`~repro.serve.admission.AdmissionController`: ``max_active``
slots, one bounded FIFO queue, 429 + ``Retry-After`` on overflow.
Per-request deadlines (``deadline_s`` request field, capped by the
server's ``deadline_cap``) and client disconnects propagate into the
engines through a
:class:`~repro.serve.cancel.CancelToken`, so abandoned ATPG searches
stop burning cores mid-fault-loop.  ``POST /v1/cancel`` cancels by
request id (server-assigned ``r-<n>``, echoed in ``X-Request-Id``, or
client-chosen via the ``request_id`` field).

**Observability.**  A :class:`~repro.serve.metrics.Metrics` registry
records per-kind latency, queue wait/depth, rejections and
cancellations; ``GET /v1/metrics`` exports it as JSON (default) or
Prometheus text (``?format=prometheus`` / ``Accept: text/plain``),
alongside point-in-time cache-tier stats (kernel cache, artifact
store).  ``requests_total{kind,outcome}`` is the one request
ledger: ``/v1/health`` derives its served/failed counts from it.
"""

from __future__ import annotations

import os
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..api.errors import (
    HTTP_STATUS_BY_CODE,
    OverloadFailure,
    ReproError,
    RequestError,
)
from ..api.executor import execute
from ..api.framing import MAX_BODY_BYTES, JSONRequestHandler, error_reply
from ..api.requests import REQUEST_KINDS, SCHEMA_VERSION
from ..api.store import ArtifactStore
from ..sim.compiled import compile_cache_stats
from .admission import AdmissionController
from .cancel import REASON_CLIENT_DISCONNECT, REASON_EXPLICIT, CancelToken
from .metrics import DEPTH_BUCKETS, Metrics
from .streaming import NDJSON_CONTENT_TYPE, EventStreamWriter

__all__ = ["ReproServer", "make_server", "serve",
           "MAX_BODY_BYTES", "FILE_PATH_FIELDS"]

#: Request fields naming server-side filesystem paths.  Rejected by the
#: daemon unless it was started with ``allow_file_requests=True``: a
#: network client must not get arbitrary file read/write as the daemon
#: user just by naming a path in a request document.
FILE_PATH_FIELDS = ("save", "out", "learned")


def _default_max_active() -> int:
    return max(2, min(8, os.cpu_count() or 2))


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the warm shared state."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 store: Optional[ArtifactStore] = None,
                 allow_file_requests: bool = False,
                 queue_depth: int = 16,
                 max_active: Optional[int] = None,
                 deadline_cap: Optional[float] = None):
        super().__init__(address, _Handler)
        self.store = store if store is not None else ArtifactStore()
        self.allow_file_requests = allow_file_requests
        #: Server-wide ceiling on any request's deadline (seconds);
        #: also the deadline applied to requests that name none.
        self.deadline_cap = deadline_cap
        #: Per-write socket timeout on streams: a reader stalled longer
        #: than this cancels the request instead of wedging the worker.
        self.stream_write_timeout = 10.0
        self.metrics = Metrics()
        self.admission = AdmissionController(
            max_active=(max_active if max_active is not None
                        else _default_max_active()),
            queue_depth=queue_depth)
        self._request_counter = 0
        self._tokens: Dict[str, CancelToken] = {}
        self.stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        # The ledger is read before the admission depths: an outcome is
        # recorded only after its slot is released, so a request that
        # shows as served never shows as still active.
        outcomes = self.metrics.counter_by("requests_total", "outcome")
        served = sum(outcomes.values())
        return {
            "ok": True,
            "schema_version": SCHEMA_VERSION,
            "requests_served": served,
            "requests_failed": served - outcomes.get("ok", 0),
            "admission": self.admission.depths(),
            "kernel_cache": compile_cache_stats(),
            "artifact_store": self.store.stats(),
        }

    # ------------------------------------------------------------------
    def next_request_id(self) -> str:
        """Deterministic server-assigned id (``r-1``, ``r-2``, ...)."""
        with self.stats_lock:
            self._request_counter += 1
            return f"r-{self._request_counter}"

    def register_token(self, request_id: str,
                       token: CancelToken) -> None:
        with self.stats_lock:
            self._tokens[request_id] = token

    def unregister_token(self, request_id: str) -> None:
        with self.stats_lock:
            self._tokens.pop(request_id, None)

    def cancel_request(self, request_id: str) -> bool:
        """``POST /v1/cancel`` entry: True iff this call cancelled a
        live request (False: unknown id or already cancelled)."""
        with self.stats_lock:
            token = self._tokens.get(request_id)
        if token is None:
            return False
        return token.cancel(REASON_EXPLICIT)

    # ------------------------------------------------------------------
    def effective_deadline(self,
                           requested: Optional[float]
                           ) -> Optional[float]:
        """Request deadline clamped by the server cap."""
        if requested is None:
            return self.deadline_cap
        if self.deadline_cap is None:
            return requested
        return min(requested, self.deadline_cap)

    def metrics_payload(self) -> dict:
        """The ``GET /v1/metrics`` JSON document."""
        return {
            "schema_version": SCHEMA_VERSION,
            "metrics": self.metrics.to_dict(),
            "caches": {
                "kernel_cache": compile_cache_stats(),
                "artifact_store": self.store.stats(),
            },
            "admission": self.admission.depths(),
        }

    def metrics_gauges(self) -> Dict[str, float]:
        """Point-in-time gauge values for the Prometheus export."""
        out: Dict[str, float] = {}
        for prefix, stats in (("kernel_cache", compile_cache_stats()),
                              ("artifact_store", self.store.stats())):
            for key in sorted(stats):
                value = stats[key]
                if isinstance(value, (int, float)):
                    out[f"{prefix}_{key}"] = value
        depths = self.admission.depths()
        for key in sorted(depths):
            out[f"admission_{key}"] = depths[key]
        return out


class _Handler(JSONRequestHandler):
    server: ReproServer  # typing aid; http.server sets this

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        path, _, query = self.path.partition("?")
        if path == "/v1/health":
            self._send_json(200, self.server.health())
        elif path == "/v1/kinds":
            self._send_json(200, {
                "schema_version": SCHEMA_VERSION,
                "kinds": sorted(REQUEST_KINDS),
            })
        elif path == "/v1/metrics":
            accept = self.headers.get("Accept", "")
            if "format=prometheus" in query or "text/plain" in accept:
                self._send(200,
                           self.server.metrics.render_prometheus(
                               gauges=self.server.metrics_gauges()
                           ).encode(),
                           content_type="text/plain; version=0.0.4")
            else:
                self._send_json(200, self.server.metrics_payload())
        else:
            self._send_not_found(f"no such endpoint {self.path!r}; "
                                 "POST /v1/execute, /v1/stream, "
                                 "/v1/cancel; GET /v1/health, "
                                 "/v1/kinds, /v1/metrics")

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        if self.path == "/v1/cancel":
            self._handle_cancel()
        elif self.path == "/v1/stream":
            self._handle_execute(stream=True)
        elif self.path == "/v1/execute":
            self._handle_execute(stream=False)
        else:
            self.do_GET()  # reuse the 404 envelope

    # ------------------------------------------------------------------
    def _handle_cancel(self) -> None:
        try:
            data = self._read_json()
        except ReproError as error:
            self._respond_error(error)
            return
        request_id = (data or {}).get("request_id") \
            if isinstance(data, dict) else None
        if not isinstance(request_id, str) or not request_id:
            self._respond_error(RequestError(
                "cancel body must be {\"request_id\": \"<id>\"}",
                stage="http"))
            return
        cancelled = self.server.cancel_request(request_id)
        self._send_json(200, {
            "schema_version": SCHEMA_VERSION,
            "ok": True,
            "request_id": request_id,
            "cancelled": cancelled,
        })

    # ------------------------------------------------------------------
    def _disconnect_probe(self):
        """Throttled liveness peek: recv on a socket whose peer closed
        returns b'' (EOF) without blocking; a healthy idle peer raises
        BlockingIOError.  Run from CancelToken.check."""
        connection = self.connection

        def probe() -> Optional[str]:
            previous = connection.gettimeout()
            try:
                connection.settimeout(0.0)
                try:
                    chunk = connection.recv(1)
                finally:
                    connection.settimeout(previous)
            except (BlockingIOError, InterruptedError):
                return None
            except OSError:
                return REASON_CLIENT_DISCONNECT
            if not chunk:
                return REASON_CLIENT_DISCONNECT
            return None

        return probe

    # ------------------------------------------------------------------
    def _handle_execute(self, stream: bool) -> None:
        """Run one request, record its outcome, then write the reply.

        The outcome lands in ``requests_total`` after the admission
        slot is released and, for one-shot replies, before the reply
        bytes are written: a client holding its reply already sees it
        counted and the slot free.
        """
        server = self.server
        started = time.perf_counter()
        ctx: Dict[str, object] = {"kind": "unknown", "token": None}
        outcome, reply = "error", None
        try:
            outcome, reply = self._execute(stream, ctx)
        finally:
            token = ctx["token"]
            if token is not None and token.reason is not None:
                outcome = ("rejected" if outcome == "rejected"
                           else "cancelled")
                server.metrics.inc("cancellations_total",
                                   {"reason": token.reason})
            server.metrics.inc("requests_total",
                               {"kind": ctx["kind"],
                                "outcome": outcome})
            server.metrics.observe("request_latency_s",
                                   time.perf_counter() - started,
                                   {"kind": ctx["kind"]})
        if reply is not None:
            status, body, headers = reply
            self._send(status, body, headers=headers)

    def _execute(self, stream: bool, ctx: Dict[str, object]
                 ) -> Tuple[str, Optional[tuple]]:
        """Parse, admit and run one request.

        Returns ``(outcome, reply)`` with the admission slot already
        released; ``reply`` is the one-shot ``(status, body, headers)``
        still to be written, or None when a stream was written.  Fills
        ``ctx`` with the kind and cancel token as they become known.
        """
        server = self.server
        try:
            data = self._read_json()
        except ReproError as error:
            return "error", error_reply(error)
        if not isinstance(data, dict):
            data = {"kind": data}  # let request parsing shape the error
        kind = ctx["kind"] = str(data.get("kind"))
        if not server.allow_file_requests:
            named = [f for f in FILE_PATH_FIELDS if data.get(f)]
            if named:
                return "error", error_reply(RequestError(
                    f"this server does not accept requests naming "
                    f"server-side file paths ({named}); restart it "
                    "with allow_file_requests (repro serve "
                    "--allow-file-requests) to opt in",
                    stage="http"), kind)
        raw_deadline = data.get("deadline_s")
        deadline = server.effective_deadline(
            raw_deadline if isinstance(raw_deadline, (int, float))
            and not isinstance(raw_deadline, bool)
            and raw_deadline > 0 else None)
        token = ctx["token"] = CancelToken(deadline_s=deadline)
        raw_id = data.get("request_id")
        request_id = (raw_id if isinstance(raw_id, str) and raw_id
                      else server.next_request_id())
        headers = {"X-Request-Id": request_id}
        server.register_token(request_id, token)
        try:
            server.metrics.observe(
                "queue_depth", server.admission.depths()["queued"],
                buckets=DEPTH_BUCKETS)
            queued_at = time.perf_counter()
            try:
                server.admission.acquire(cancel=token)
            except OverloadFailure as error:
                server.metrics.inc("rejections_total")
                return "rejected", error_reply(
                    error, kind,
                    dict(headers, **{"Retry-After":
                                     str(error.retry_after_s)}))
            except ReproError as error:
                # Cancelled (deadline/disconnect/explicit) while still
                # queued: never held a slot.
                return "cancelled", error_reply(error, kind, headers)
            server.metrics.observe(
                "queue_wait_s", time.perf_counter() - queued_at)
            try:
                if stream:
                    ok = self._run_stream(data, token, request_id)
                    return ("ok" if ok else "error"), None
                token.set_probe(self._disconnect_probe())
                response = execute(data, store=server.store,
                                   cancel=token.check)
                status = 200
                if not response.ok:
                    code = (response.error or {}).get("code")
                    status = HTTP_STATUS_BY_CODE.get(code, 500)
                return (("ok" if response.ok else "error"),
                        (status, response.to_json().encode(), headers))
            finally:
                server.admission.release()
        finally:
            server.unregister_token(request_id)

    def _run_stream(self, data: dict, token: CancelToken,
                    request_id: str) -> bool:
        """Stream one request; returns whether it fully succeeded
        (envelope ok *and* delivered to a live client)."""
        server = self.server
        self.send_response(200)
        self.send_header("Content-Type", NDJSON_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-store")
        self.send_header("X-Request-Id", request_id)
        self.send_header("Connection", "close")
        self.end_headers()
        # From here the stream is close-delimited: no Content-Length,
        # the envelope's framing carries its own byte count.
        self.connection.settimeout(server.stream_write_timeout)
        token.set_probe(self._disconnect_probe())
        writer = EventStreamWriter(self.wfile, token=token)
        server.metrics.inc("streams_total")
        response = execute(data, events=writer, store=server.store,
                           cancel=token.check)
        delivered = writer.finish(response.to_json().encode())
        return bool(response.ok and delivered)


def make_server(host: str = "127.0.0.1", port: int = 0,
                store: Optional[ArtifactStore] = None,
                allow_file_requests: bool = False,
                queue_depth: int = 16,
                max_active: Optional[int] = None,
                deadline_cap: Optional[float] = None) -> ReproServer:
    """Bind (but do not run) a daemon; ``port=0`` picks a free port.

    The caller owns the lifecycle: ``serve_forever()`` on any thread,
    ``shutdown()`` + ``server_close()`` to stop.  Used directly by the
    concurrency tests.
    """
    return ReproServer((host, port), store=store,
                       allow_file_requests=allow_file_requests,
                       queue_depth=queue_depth, max_active=max_active,
                       deadline_cap=deadline_cap)


def serve(host: str = "127.0.0.1", port: int = 8451,
          store_dir: Optional[str] = None,
          allow_file_requests: bool = False,
          queue_depth: int = 16,
          max_active: Optional[int] = None,
          deadline_cap: Optional[float] = None,
          announce=print) -> None:
    """Run the daemon until interrupted (the ``repro serve`` command)."""
    store = ArtifactStore(root=store_dir)
    server = make_server(host, port, store=store,
                         allow_file_requests=allow_file_requests,
                         queue_depth=queue_depth, max_active=max_active,
                         deadline_cap=deadline_cap)
    bound_host, bound_port = server.server_address[:2]
    announce(f"repro serve: listening on http://{bound_host}:{bound_port}"
             f" (schema_version {SCHEMA_VERSION}, store: "
             f"{store_dir or 'in-memory'}, "
             f"{server.admission.max_active} slots x "
             f"{server.admission.queue_depth} queued)")
    announce("POST /v1/execute /v1/stream /v1/cancel | "
             "GET /v1/health /v1/kinds /v1/metrics -- Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
