"""JSON-over-HTTP framing shared by ``repro serve`` and the dist
coordinator.

:class:`JSONRequestHandler` is the one copy of how both servers read a
request body -- ``Content-Length`` or chunked, both bounded by
:data:`MAX_BODY_BYTES` -- and write a reply.  A framing fault is a :class:`~repro.api.errors.ReproError` with
``stage="http"`` and goes out as the same error envelope
:func:`repro.api.execute` returns: never a bare string, a traceback or
a dropped connection.

:mod:`repro.api` does not import this module, so a one-shot run never
loads ``http.server``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional

from .errors import PayloadTooLarge, ReproError, RequestError
from .executor import Response
from .requests import SCHEMA_VERSION

__all__ = ["JSONRequestHandler", "error_reply", "MAX_BODY_BYTES"]

#: Largest accepted request body.  Request documents and dist unit
#: completions (one circuit's suite report) are a few KB, so both
#: servers shrug off confused or hostile clients at this bound.
MAX_BODY_BYTES = 4 << 20


def error_reply(error: ReproError, kind: str = "unknown",
                headers: Optional[Dict[str, str]] = None) -> tuple:
    """``(status, body, headers)`` of one error envelope."""
    response = Response(kind=kind, ok=False, error=error.envelope(),
                        exit_code=1)
    return error.http_status, response.to_json().encode(), headers


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Bounded body reading and JSON replies for one HTTP server."""

    #: Largest accepted request body, in bytes.
    max_body_bytes = MAX_BODY_BYTES

    #: Per-socket-operation timeout: a sender that stalls forever
    #: mid-body (or mid-chunk) is cut loose instead of pinning a
    #: worker thread.
    timeout = 60.0

    #: Silence the default per-request stderr lines; a server handling
    #: concurrent traffic should not interleave access logs with the
    #: owner's terminal.  Errors still surface as error envelopes.
    def log_message(self, format: str, *args) -> None:
        pass

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _send(self, status: int, payload_bytes: bytes,
              content_type: str = "application/json",
              headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload_bytes)))
        for name in sorted(headers or {}):
            self.send_header(name, headers[name])
        self.end_headers()
        self.wfile.write(payload_bytes)

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, (json.dumps(payload, indent=1) + "\n").encode(),
                   headers=headers)

    def _respond_error(self, error: ReproError) -> None:
        status, body, _headers = error_reply(error)
        self._send(status, body)

    def _send_not_found(self, message: str) -> None:
        self.send_error(404, message)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """An HTTP-level rejection as an error envelope.

        ``http.server`` calls this itself for an unsupported method, a
        malformed request line or oversized headers; its default answer
        is an HTML page, which no client of either server can parse.
        """
        self._send_json(code, {
            "schema_version": SCHEMA_VERSION,
            "ok": False,
            "error": {"code": "parse", "stage": "http",
                      "message": message or self.responses.get(
                          code, ("HTTP error",))[0]},
        })

    # ------------------------------------------------------------------
    # body reading (Content-Length and chunked, both bounded)
    # ------------------------------------------------------------------
    def _read_json(self) -> object:
        """The request body parsed as JSON (an empty body is ``null``)."""
        body = self._read_body()
        try:
            return json.loads(body or b"null")
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise RequestError(
                f"request body is not valid JSON: {exc}",
                stage="http") from exc

    def _read_body(self) -> bytes:
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            return self._read_chunked()
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise RequestError(
                "Content-Length is not an integer", stage="http")
        if length < 0:
            raise RequestError(
                "Content-Length must be >= 0", stage="http")
        if length > self.max_body_bytes:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit", stage="http")
        return self.rfile.read(length)

    def _read_chunked(self) -> bytes:
        """Strict, bounded chunked-transfer decoding.

        ``http.server`` never decodes chunked bodies itself; without
        this, a chunked POST would be misread as an empty body.  Any
        malformation is a 400 (:class:`RequestError`); exceeding
        :attr:`max_body_bytes` across chunks is a 413 -- never a bare
        connection drop.
        """
        parts = []
        total = 0
        while True:
            line = self.rfile.readline(34)
            if not line.endswith(b"\n"):
                raise RequestError(
                    "malformed chunked body: oversized or truncated "
                    "chunk-size line", stage="http")
            size_token = line.strip().split(b";", 1)[0]
            try:
                size = int(size_token, 16)
            except ValueError:
                raise RequestError(
                    f"malformed chunked body: bad chunk size "
                    f"{size_token!r}", stage="http")
            if size < 0:
                raise RequestError(
                    "malformed chunked body: negative chunk size",
                    stage="http")
            total += size
            if total > self.max_body_bytes:
                raise PayloadTooLarge(
                    f"chunked request body exceeds the "
                    f"{self.max_body_bytes}-byte limit", stage="http")
            chunk = self.rfile.read(size)
            if len(chunk) != size:
                raise RequestError(
                    "malformed chunked body: truncated chunk",
                    stage="http")
            terminator = self.rfile.read(2)
            if terminator != b"\r\n":
                raise RequestError(
                    "malformed chunked body: missing CRLF after chunk "
                    "(trailers are not supported)", stage="http")
            if size == 0:
                return b"".join(parts)
            parts.append(chunk)
