"""``repro worker`` -- lease units, execute them, report back.

A worker is deliberately thin: it pulls a unit (one circuit's suite
request) from the coordinator, runs it through the ordinary
:func:`repro.api.execute` and POSTs the resulting envelope back.
Everything interesting -- scheduling, retries, merging -- lives on the
coordinator; a worker can be killed at any moment and the job still
converges.

While a unit runs, a background thread heartbeats its lease at the
cadence the coordinator asked for, so long PODEM stages on slow
machines do not look like worker death.  SIGTERM (and SIGINT) request a
graceful drain: the current unit finishes and its result is delivered,
then the loop exits instead of leasing more -- exactly what a scale-in
or Ctrl-C should do.

``repro worker --jobs N`` forks N single-threaded worker processes
(N=0 meaning one per CPU core via the shared
:func:`~repro.flow.config.normalize_jobs` rule), each with its own
process-wide kernel cache, all hitting the same coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
import uuid
from typing import Dict, Optional

from ..flow.config import normalize_jobs
from ..api.executor import execute
from .protocol import (
    COMPLETE_PATH,
    HEARTBEAT_PATH,
    LEASE_PATH,
    http_json,
)

__all__ = ["WorkerLoop", "run_worker"]


class WorkerLoop:
    """One worker: a lease/execute/complete loop against a coordinator.

    Usable in-process (the dist tests run several loops on threads
    against one coordinator) or as the body of a ``repro worker``
    process.  :meth:`stop` requests a graceful drain; the loop also
    ends on its own when the coordinator reports the job done or
    becomes unreachable for ``max_idle_s``.
    """

    def __init__(self, coordinator_url: str,
                 worker_id: Optional[str] = None,
                 poll_s: float = 0.1,
                 max_idle_s: float = 60.0,
                 timeout: float = 30.0,
                 announce=None):
        self.url = coordinator_url.rstrip("/")
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.timeout = timeout
        self.announce = announce
        self.units_completed = 0
        self.units_failed = 0
        #: Counted degrade paths (the R006 taxonomy): failures the loop
        #: survives are tallied per short code -- ``io`` for transport
        #: trouble, e.g. every failed heartbeat -- so a drain summary
        #: can show what was absorbed instead of the errors vanishing
        #: into a log nobody reads.
        self.degrade_counts: Dict[str, int] = {}
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _degrade(self, code: str, message: Optional[str]) -> None:
        """Count a survivable failure and announce it unless
        ``message`` is None (the counted degrade path; every absorbed
        error must pass through here)."""
        self.degrade_counts[code] = self.degrade_counts.get(code, 0) + 1
        if self.announce is not None and message is not None:
            self.announce(
                f"repro worker {self.worker_id}: [{code}] {message}")

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request a graceful drain (finish the current unit, exit)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    def _execute_with_heartbeats(self, unit_id: str,
                                 request: Dict[str, object],
                                 heartbeat_s: float) -> Dict[str, object]:
        done = threading.Event()

        def beat() -> None:
            warned = False
            while not done.wait(heartbeat_s):
                try:
                    http_json("POST", self.url, HEARTBEAT_PATH,
                              {"worker_id": self.worker_id,
                               "unit_id": unit_id},
                              timeout=self.timeout)
                except OSError as exc:
                    # A missed beat shortens the lease; a dead heartbeat
                    # lets the coordinator reap and re-lease the unit
                    # while this worker keeps computing it.  Count every
                    # failure, announce the first one per lease.
                    self._degrade("io", None if warned else (
                        f"heartbeat for unit {unit_id} failed "
                        f"({exc}); lease may be reaped"))
                    warned = True

        beater = threading.Thread(target=beat, daemon=True,
                                  name=f"repro-worker-beat-{unit_id}")
        beater.start()
        try:
            # execute() never raises for request faults: a failing unit
            # comes back as an error envelope the coordinator can
            # attribute and retry.
            return execute(request).envelope()
        finally:
            done.set()
            beater.join(timeout=1.0)

    def run_one(self) -> str:
        """One scheduling step.  Returns what happened:
        ``'ran'`` | ``'idle'`` | ``'done'`` | ``'unreachable'``."""
        try:
            status, lease = http_json(
                "POST", self.url, LEASE_PATH,
                {"worker_id": self.worker_id}, timeout=self.timeout)
        except OSError:
            return "unreachable"
        if status != 200 or not isinstance(lease, dict):
            return "unreachable"
        unit = lease.get("unit")
        if unit is None:
            return "done" if lease.get("done") else "idle"
        unit_id = str(unit["unit_id"])
        envelope = self._execute_with_heartbeats(
            unit_id, unit["request"],
            float(lease.get("heartbeat_s", 1.0)))
        if envelope.get("ok"):
            self.units_completed += 1
        else:
            self.units_failed += 1
        try:
            http_json("POST", self.url, COMPLETE_PATH,
                      {"worker_id": self.worker_id, "unit_id": unit_id,
                       "response": envelope}, timeout=self.timeout)
        except OSError:
            return "unreachable"
        return "ran"

    def run(self) -> int:
        """Loop until the job is done, a drain is requested, or the
        coordinator stays unreachable; returns units completed."""
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            step = self.run_one()
            if step == "done":
                break
            if step == "ran":
                idle_since = None
                continue
            # idle (nothing leasable yet) or unreachable: back off, and
            # give up if it persists -- a worker must not outlive its
            # coordinator forever.
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since > self.max_idle_s:
                break
            self._stop.wait(self.poll_s)
        return self.units_completed


def _worker_process_main(url: str) -> None:
    loop = WorkerLoop(url)
    signal.signal(signal.SIGTERM, lambda *_: loop.stop())
    signal.signal(signal.SIGINT, lambda *_: loop.stop())
    loop.run()


def run_worker(coordinator_url: str, jobs: int = 1,
               announce=None) -> int:
    """Run ``jobs`` worker processes against a coordinator (the
    ``repro worker`` command); returns a process exit code.

    ``jobs=1`` runs the loop in this process (graceful SIGTERM/SIGINT
    drain installed); ``jobs=0`` means one worker per CPU core.  With
    several jobs, each worker is a separate process with its own
    compiled-kernel cache, and a SIGTERM to this parent drains all of
    them.
    """
    jobs = normalize_jobs(jobs)
    if announce is not None:
        announce(f"repro worker: {jobs} worker(s) -> {coordinator_url}")
    if jobs == 1:
        loop = WorkerLoop(coordinator_url, announce=announce)
        try:
            signal.signal(signal.SIGTERM, lambda *_: loop.stop())
        except ValueError:
            pass  # not the main thread (tests); stop() still works
        try:
            loop.run()
        except KeyboardInterrupt:
            # Ctrl-C mid-unit: the loop is already out of its run()
            # body, so there is nothing left to drain -- but say so
            # instead of exiting silently.
            loop.stop()
            if announce is not None:
                announce("repro worker: interrupted, draining")
        if announce is not None:
            degraded = "".join(
                f", {count} degraded [{code}]"
                for code, count in sorted(loop.degrade_counts.items()))
            announce(f"repro worker: drained after "
                     f"{loop.units_completed} unit(s), "
                     f"{loop.units_failed} failed{degraded}")
        return 0
    ctx = multiprocessing.get_context()
    processes = [ctx.Process(target=_worker_process_main,
                             args=(coordinator_url,),
                             daemon=False)
                 for _ in range(jobs)]
    for process in processes:
        process.start()

    def drain(*_) -> None:
        for process in processes:
            if process.is_alive():
                process.terminate()  # children trap SIGTERM and drain

    try:
        signal.signal(signal.SIGTERM, drain)
    except ValueError:
        pass  # not the main thread (tests); Ctrl-C drain below still works
    try:
        for process in processes:
            process.join()
    except KeyboardInterrupt:
        drain()
        for process in processes:
            process.join()
    if announce is not None:
        announce(f"repro worker: all {jobs} worker(s) exited")
    return 0
