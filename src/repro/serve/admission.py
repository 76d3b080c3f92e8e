"""Bounded FIFO admission control for the daemon.

Every request must acquire one of ``max_active`` execution slots before
:func:`repro.api.execute` runs.  When all slots are busy the request
waits in one bounded FIFO queue; when that queue is full the request is
rejected immediately with :class:`~repro.api.errors.OverloadFailure`
(HTTP 429 + ``Retry-After``) -- explicit backpressure beats an
unbounded backlog every time.

Waiters poll their grant event with a short timeout so a queued
request's :class:`~repro.serve.cancel.CancelToken` still fires: a
client that gives up while queued leaves the queue at once, so it never
occupies a slot or a queue place later.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from typing import Dict, Iterator, Optional

from ..api.errors import OverloadFailure

__all__ = ["AdmissionController"]

#: Seconds between cancellation polls while queued.
_WAIT_POLL_S = 0.05


class _Waiter:
    """One queued request: its grant event + grant state.

    Mutated only under the owning controller's lock; the Event is the
    sole cross-thread signal.
    """

    __slots__ = ("event", "granted")

    def __init__(self):
        self.event = threading.Event()
        self.granted = False


class AdmissionController:
    """``max_active`` slots + one bounded FIFO queue."""

    def __init__(self, max_active: int = 4, queue_depth: int = 16):
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {queue_depth}")
        self.max_active = max_active
        self.queue_depth = queue_depth
        self._lock = threading.Lock()
        self._active = 0
        self._waiting: "deque[_Waiter]" = deque()

    # ------------------------------------------------------------------
    def acquire(self, cancel: Optional[object] = None) -> None:
        """Take one slot, waiting in the queue if necessary.

        Raises :class:`OverloadFailure` when the queue is full, or
        whatever ``cancel.check()`` raises if the request is cancelled
        (deadline, disconnect, explicit) while queued.
        """
        with self._lock:
            if self._active < self.max_active and not self._waiting:
                self._active += 1
                return
            if len(self._waiting) >= self.queue_depth:
                raise OverloadFailure(
                    f"server is at capacity ({self.max_active} active, "
                    f"{len(self._waiting)} queued); try again later",
                    stage="admission",
                    retry_after_s=self._retry_after_locked())
            waiter = _Waiter()
            self._waiting.append(waiter)
        while True:
            if waiter.event.wait(_WAIT_POLL_S):
                return
            if cancel is None:
                continue
            try:
                cancel.check()
            except BaseException:
                with self._lock:
                    if waiter.granted:
                        # Grant raced the cancellation: hand the slot
                        # straight to the next waiter.
                        self._active -= 1
                        self._grant_next_locked()
                    else:
                        self._waiting.remove(waiter)
                raise

    def release(self) -> None:
        """Return one slot and grant it onward."""
        with self._lock:
            self._active -= 1
            self._grant_next_locked()

    @contextlib.contextmanager
    def slot(self, cancel: Optional[object] = None) -> Iterator[None]:
        """``with admission.slot(...):`` -- acquire/release pairing."""
        self.acquire(cancel=cancel)
        try:
            yield
        finally:
            self.release()

    # ------------------------------------------------------------------
    def depths(self) -> Dict[str, int]:
        """Point-in-time occupancy."""
        with self._lock:
            return {"active": self._active, "queued": len(self._waiting)}

    # ------------------------------------------------------------------
    def _retry_after_locked(self) -> int:
        # Effectively locked: called only under self._lock.
        return max(1, (self._active + len(self._waiting))
                   // self.max_active)

    def _grant_next_locked(self) -> None:
        # Effectively locked: called only under self._lock.
        while self._active < self.max_active and self._waiting:
            waiter = self._waiting.popleft()
            waiter.granted = True
            self._active += 1
            waiter.event.set()
