"""Wire protocol of the distributed tier: endpoints + a tiny client.

The coordinator speaks JSON over HTTP on a handful of fixed paths
(stdlib ``http.server`` on one side, ``http.client`` on the other --
no dependencies, same idiom as :mod:`repro.serve.daemon`):

``POST /v1/dist/lease``
    Body ``{"worker_id"}``.  An idle worker asks, the coordinator
    answers with the next pending unit, leased to that worker alone:
    ``{"unit": {"unit_id", "request"}, "heartbeat_s"}``, or ``{"unit":
    null, "done": bool}`` when nothing is pending.

``POST /v1/dist/complete``
    Body ``{"worker_id", "unit_id", "response": <envelope>}`` where
    ``response`` is the versioned envelope ``repro.api.execute``
    produced for the unit's request.  First completion wins; a worker
    that outlived its lease and reports late gets ``{"accepted": false,
    "duplicate": true}``.

``POST /v1/dist/heartbeat``
    Body ``{"worker_id", "unit_id"}``; extends the lease deadline and
    answers ``{"ok": true}``, or ``{"ok": false}`` when the worker no
    longer holds the lease.

``GET /v1/health``
    Liveness + scheduler counters under ``"dist"`` (pending / leased /
    completed / failed).

Unit requests are ordinary one-spec ``suite`` documents of
:mod:`repro.api.requests`, so a worker is just ``execute()`` behind a
lease loop -- the dist tier adds scheduling, not a second vocabulary.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import Dict, Optional, Tuple

__all__ = [
    "LEASE_PATH", "COMPLETE_PATH", "HEARTBEAT_PATH", "HEALTH_PATH",
    "http_json", "http_bytes",
]

LEASE_PATH = "/v1/dist/lease"
COMPLETE_PATH = "/v1/dist/complete"
HEARTBEAT_PATH = "/v1/dist/heartbeat"
HEALTH_PATH = "/v1/health"


def http_bytes(method: str, base_url: str, path: str,
               body: Optional[bytes] = None,
               content_type: str = "application/json",
               timeout: float = 30.0) -> Tuple[int, bytes]:
    """One HTTP exchange, raw bytes in and out.

    Raises ``OSError`` (connection refused, timeout, reset) for
    transport failures; HTTP-level errors come back as the status code.

    ``http.client`` reports some transport failures through its own
    hierarchy instead -- ``BadStatusLine`` on a garbled response,
    ``IncompleteRead`` on a mid-body disconnect -- and those are *not*
    ``OSError`` subclasses, so they are normalized here.  The worker
    loop handles transport failure with ``except OSError``; without
    this, a half-dead coordinator could raise straight through a
    worker's lease loop.
    """
    parsed = urllib.parse.urlsplit(base_url)
    connection = http.client.HTTPConnection(
        parsed.hostname or "127.0.0.1", parsed.port, timeout=timeout)
    try:
        headers = {}
        if body is not None:
            headers["Content-Type"] = content_type
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except http.client.HTTPException as exc:
        raise OSError(
            f"{type(exc).__name__}: {exc}") from exc
    finally:
        connection.close()


def http_json(method: str, base_url: str, path: str,
              payload: Optional[Dict[str, object]] = None,
              timeout: float = 30.0
              ) -> Tuple[int, Optional[Dict[str, object]]]:
    """One JSON-over-HTTP exchange against the coordinator."""
    body = (None if payload is None
            else json.dumps(payload).encode())
    status, raw = http_bytes(method, base_url, path, body=body,
                             timeout=timeout)
    if not raw:
        return status, None
    try:
        return status, json.loads(raw.decode())
    except (UnicodeDecodeError, ValueError):
        return status, None
