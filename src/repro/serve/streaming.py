"""Wire encodings for the streamed event protocol.

The daemon streams :mod:`repro.api.events` objects live while
``execute`` runs, then terminates the stream with the request's full
response envelope.  The one format is NDJSON
(``application/x-ndjson``): each event is one compact JSON line (sorted
keys).  The terminal record is *two-part* so the canonical-bytes
contract survives streaming:

1. a framing line ``{"bytes": N, "event": "result"}``
2. exactly ``N`` raw bytes -- the response envelope precisely as
   ``POST /v1/execute`` (and ``repro ... --json``) would have written
   it, ``indent=1`` newline-terminated and all.

A client slices those N bytes out and has the byte-identical envelope;
CI ``cmp``'s them against a one-shot run.

:class:`EventStreamWriter` is the ``events`` sink handed to
``execute``: it serializes events straight onto the client socket.  A
write that times out or fails flips the writer into a failed state,
cancels the request's token (``client_stalled`` / ``client_disconnect``)
and swallows everything after -- a vanished reader must stop the
computation, never wedge the worker thread.
"""

from __future__ import annotations

import json
import socket
from typing import IO, Optional

from ..api.events import Event, ResultEvent
from .cancel import (
    REASON_CLIENT_DISCONNECT,
    REASON_CLIENT_STALLED,
    CancelToken,
)

__all__ = ["EventStreamWriter", "encode_event", "encode_terminal",
           "NDJSON_CONTENT_TYPE"]

NDJSON_CONTENT_TYPE = "application/x-ndjson"


def _compact(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_event(event: Event) -> bytes:
    """One non-terminal event in its wire form."""
    return (_compact(event.to_dict()) + "\n").encode()


def encode_terminal(envelope_bytes: bytes) -> bytes:
    """The stream terminator carrying the response envelope.

    ``envelope_bytes`` must be exactly ``Response.to_json().encode()``;
    they are embedded verbatim behind a byte-count framing line.
    """
    frame = _compact({"event": "result",
                      "bytes": len(envelope_bytes)}) + "\n"
    return frame.encode() + envelope_bytes


class EventStreamWriter:
    """An ``execute`` event sink writing one client's stream.

    Not thread-safe by design: events for one request are emitted from
    the one handler thread executing it.  ``ResultEvent`` is skipped --
    the terminal envelope is written by :meth:`finish` from the
    response object itself, which is what guarantees byte identity.
    """

    def __init__(self, wfile: IO[bytes],
                 token: Optional[CancelToken] = None):
        self.wfile = wfile
        self.token = token
        self.failed = False
        self.events_written = 0

    # The sink contract: called with each typed event, exceptions
    # swallowed upstream by emit() -- so failure is recorded as state
    # here, not signalled by raising.
    def __call__(self, event: Event) -> None:
        if isinstance(event, ResultEvent):
            return
        if self._write(encode_event(event)):
            self.events_written += 1

    def finish(self, envelope_bytes: bytes) -> bool:
        """Write the terminal record; returns False if the client is
        gone (the caller then counts the request as failed)."""
        return self._write(encode_terminal(envelope_bytes))

    # ------------------------------------------------------------------
    def _write(self, data: bytes) -> bool:
        if self.failed:
            return False
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except socket.timeout:
            self._fail(REASON_CLIENT_STALLED)
            return False
        except (OSError, ValueError):
            # ValueError: write to a closed SocketIO after shutdown.
            self._fail(REASON_CLIENT_DISCONNECT)
            return False
        return True

    def _fail(self, reason: str) -> None:
        self.failed = True
        if self.token is not None:
            self.token.cancel(reason)
