"""Cooperative cancellation tokens for in-flight requests.

A :class:`CancelToken` is created per request by the daemon and handed
to :func:`repro.api.execute` as its ``cancel`` checkpoint callable (via
:meth:`CancelToken.check`).  The engines poll it at stage boundaries
and inside ``run_atpg``'s per-fault loop; when the token has been
cancelled the poll raises the matching taxonomy error
(:class:`~repro.api.errors.DeadlineExceeded` for expired deadlines,
:class:`~repro.api.errors.CancelledFailure` for everything else), which
:func:`~repro.api.errors.classify_error` passes straight through into
the error envelope.

Cancellation reasons (first cancel wins, later ones are ignored):

``explicit``            ``POST /v1/cancel`` named this request
``deadline``            the request's deadline (or server cap) expired
``client_disconnect``   the client's socket reported EOF / reset
``client_stalled``      a stream write timed out on a wedged reader

Deadlines are checked on every poll; client liveness is checked through
an optional *probe* callable (a throttled non-blocking socket peek
installed by the daemon), so an abandoned search stops burning cores
within one checkpoint of the client vanishing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..api.errors import CancelledFailure, DeadlineExceeded

__all__ = ["CancelToken",
           "REASON_EXPLICIT", "REASON_DEADLINE",
           "REASON_CLIENT_DISCONNECT", "REASON_CLIENT_STALLED"]

REASON_EXPLICIT = "explicit"
REASON_DEADLINE = "deadline"
REASON_CLIENT_DISCONNECT = "client_disconnect"
REASON_CLIENT_STALLED = "client_stalled"

#: Minimum seconds between client-liveness probe calls; a probe is a
#: syscall, and ``check`` fires once per targeted fault.
PROBE_INTERVAL_S = 0.2


class CancelToken:
    """Set-once cancellation flag with deadline + liveness probing."""

    def __init__(self, deadline_s: Optional[float] = None):
        self._lock = threading.Lock()
        self._reason: Optional[str] = None
        #: Absolute monotonic instant the deadline expires (None = no
        #: deadline).  Immutable after construction.
        self.deadline_at = (time.perf_counter() + deadline_s
                            if deadline_s is not None else None)
        self._probe: Optional[Callable[[], Optional[str]]] = None
        self._next_probe_at = 0.0

    # ------------------------------------------------------------------
    @property
    def reason(self) -> Optional[str]:
        """Why this token was cancelled, or None while live."""
        with self._lock:
            return self._reason

    def cancelled(self) -> bool:
        return self.reason is not None

    def cancel(self, reason: str) -> bool:
        """Cancel (first call wins); returns whether this call won."""
        with self._lock:
            if self._reason is not None:
                return False
            self._reason = reason
        return True

    def set_probe(self,
                  probe: Optional[Callable[[], Optional[str]]]) -> None:
        """Install a liveness probe: returns a cancel reason or None.

        Called from :meth:`check`, throttled to
        :data:`PROBE_INTERVAL_S`; probe exceptions are treated as "no
        verdict" (an undecidable peek must not kill a healthy run).
        """
        with self._lock:
            self._probe = probe

    # ------------------------------------------------------------------
    def check(self) -> None:
        """The checkpoint callable threaded into the engines; raises
        when the request must stop, returns None otherwise."""
        with self._lock:
            reason = self._reason
            probe = self._probe
        if reason is None and self.deadline_at is not None \
                and time.perf_counter() > self.deadline_at:
            self.cancel(REASON_DEADLINE)
            reason = REASON_DEADLINE
        if reason is None and probe is not None:
            now = time.perf_counter()
            if now >= self._next_probe_at:
                self._next_probe_at = now + PROBE_INTERVAL_S
                try:
                    verdict = probe()
                except Exception:
                    verdict = None
                if verdict is not None:
                    self.cancel(verdict)
                    reason = verdict
        if reason is None:
            return
        if reason == REASON_DEADLINE:
            raise DeadlineExceeded("request deadline expired")
        raise CancelledFailure(f"request cancelled ({reason})")
