"""The coordinator: lease whole circuits out, merge suite reports back.

``repro coordinator`` turns one suite request into one unit per circuit
spec and serves the units to workers over the wire protocol in
:mod:`repro.dist.protocol`.  A unit is the same work the local suite
pool runs: a one-spec :class:`~repro.api.requests.SuiteRequest` (with a
``jobs=1`` config) that takes its circuit through the whole pipeline,
every requested mode.  A worker executes it with
:func:`repro.api.execute`, which ends in the pool's own
:func:`~repro.flow.parallel_suite.run_task`, so a fleet runs the very
code a ``repro suite --jobs N`` run does.  Units have no dependencies
between them and nothing is resolved at plan time: an unresolvable
spec fails inside its worker with the same ``stage="resolve"`` record
a serial run writes.

Scheduling is **pull-based**: workers ask for work when idle, so fast
workers naturally drain more units.  Each unit is in exactly one state
-- pending, leased (to one worker at a time), completed or failed --
and nothing is ever run speculatively: a slow worker that keeps
heartbeating finishes its own unit, as a slow process of the local pool
does.  A lease has a deadline extended by heartbeats; an expired lease
(a dead worker) re-queues the unit, and a unit that keeps failing
(worker deaths, error envelopes) is bounded-retried before its circuit
is recorded as failed (``stage="worker"`` for lease expiry) -- the same
attribution contract as :mod:`repro.flow.parallel_suite`'s solo retry.
A failing circuit never fails the job.

Completed unit envelopes are journaled to disk (keyed by a digest of
the whole job), so a restarted coordinator resumes from partial
results instead of re-running the fleet.

The merge concatenates each unit's ``reports`` and ``errors`` in spec
order into one :class:`~repro.flow.session.SuiteReport`, so the final
suite envelope is byte-identical to ``repro suite --canonical --json``
run on one machine.  The price of circuit units: one circuit never
spreads across workers, so the largest circuit bounds a fleet's
speed-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from ..flow.config import ATPG_MODES, ReproConfig, canonical_json
from ..flow.session import SuiteReport, error_record
from ..flow.serialize import write_json_atomic
from ..api.errors import ReproError, RequestError
from ..api.executor import Response
from ..api.framing import JSONRequestHandler
from ..api.requests import SCHEMA_VERSION, SuiteRequest
from .protocol import (
    COMPLETE_PATH,
    HEALTH_PATH,
    HEARTBEAT_PATH,
    LEASE_PATH,
)

__all__ = ["DistUnit", "DistJob", "CoordinatorServer",
           "make_coordinator", "run_coordinator"]


@dataclass
class DistUnit:
    """One leasable unit of work: one circuit spec's suite request."""

    unit_id: str
    spec: str
    request: Dict[str, object]


@dataclass
class _Lease:
    worker_id: str
    deadline: float


class DistJob:
    """The scheduler state machine (thread-safe; server-agnostic).

    All transitions happen under one lock, driven by worker HTTP calls;
    expired leases are reaped lazily on every lease/complete/status
    call, so the job needs no timer thread of its own.  The three maps
    ``leases``, ``completed`` and ``failed`` are keyed by unit id and
    disjoint; a unit in none of them is pending.
    """

    #: A unit is terminally failed (failing its circuit) after this
    #: many lease expiries / error completions.
    MAX_ATTEMPTS = 3

    def __init__(self, specs: Sequence[str],
                 config: Optional[ReproConfig] = None,
                 modes: Sequence[str] = ATPG_MODES,
                 lease_timeout_s: float = 60.0,
                 journal_dir: Optional[str] = None,
                 clock=time.monotonic):
        self.specs = [str(spec) for spec in specs]
        # Units carry jobs=1 configs, as run_suite's sessions do: the
        # merged report must not depend on how execution was spread.
        self.unit_config = replace((config or ReproConfig()).validate(),
                                   jobs=1)
        self.modes = tuple(modes)
        self.lease_timeout_s = lease_timeout_s
        self.journal_dir = journal_dir
        self.clock = clock
        self.lock = threading.Lock()

        self.units: Dict[str, DistUnit] = {}
        self.unit_order: List[str] = []
        for index, spec in enumerate(self.specs):
            unit = DistUnit(
                unit_id=f"{index}:{spec}", spec=spec,
                request=SuiteRequest(specs=(spec,),
                                     config=self.unit_config,
                                     modes=self.modes).to_dict())
            self.units[unit.unit_id] = unit
            self.unit_order.append(unit.unit_id)
        self.completed: Dict[str, Dict[str, object]] = {}
        self.attempts: Dict[str, int] = {
            unit_id: 0 for unit_id in self.unit_order}
        self.leases: Dict[str, _Lease] = {}
        #: unit id -> error record of a terminally failed unit.
        self.failed: Dict[str, Dict[str, str]] = {}
        self.leases_issued = 0
        self.leases_expired = 0
        self.duplicate_completions = 0

        self.job_digest = hashlib.sha256(canonical_json({
            "specs": self.specs,
            "config": self.unit_config.to_dict(),
            "modes": list(self.modes),
        }).encode()).hexdigest()
        self._load_journal()

    # ------------------------------------------------------------------
    # journal (coordinator restart)
    # ------------------------------------------------------------------
    def _journal_path(self, unit_id: str) -> Optional[str]:
        if self.journal_dir is None:
            return None
        name = hashlib.sha256(
            f"{self.job_digest}:{unit_id}".encode()).hexdigest()[:40]
        return os.path.join(self.journal_dir, f"{name}.json")

    def _journal_write(self, unit_id: str,
                       envelope: Dict[str, object]) -> None:
        path = self._journal_path(unit_id)
        if path is None:
            return
        try:
            os.makedirs(self.journal_dir, exist_ok=True)
            write_json_atomic(path, {
                "job_digest": self.job_digest,
                "unit_id": unit_id,
                "response": envelope,
            })
        except OSError:
            pass  # journaling is durability, not correctness

    def _load_journal(self) -> None:
        if self.journal_dir is None or not os.path.isdir(self.journal_dir):
            return
        for unit_id in self.unit_order:
            path = self._journal_path(unit_id)
            if path is None or not os.path.exists(path):
                continue
            try:
                with open(path, "r") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue
            if (entry.get("job_digest") == self.job_digest
                    and entry.get("unit_id") == unit_id
                    and isinstance(entry.get("response"), dict)):
                self.completed[unit_id] = entry["response"]

    # ------------------------------------------------------------------
    # scheduling (all under self.lock)
    # ------------------------------------------------------------------
    def _settled(self, unit_id: str) -> bool:
        return unit_id in self.completed or unit_id in self.failed

    def _reap_expired(self) -> None:
        now = self.clock()
        for unit_id, lease in list(self.leases.items()):
            if lease.deadline > now:
                continue
            del self.leases[unit_id]
            self.leases_expired += 1
            self.attempts[unit_id] += 1
            if self.attempts[unit_id] >= self.MAX_ATTEMPTS:
                self.failed[unit_id] = error_record(
                    self.units[unit_id].spec,
                    f"worker lease expired {self.attempts[unit_id]} "
                    "times while running this unit", "worker")

    def lease(self, worker_id: str) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            for unit_id in self.unit_order:
                if not self._settled(unit_id) and unit_id not in self.leases:
                    break
            else:
                return {"unit": None, "done": self._done_locked()}
            self.leases[unit_id] = _Lease(
                worker_id=worker_id,
                deadline=self.clock() + self.lease_timeout_s)
            self.leases_issued += 1
            return {
                "unit": {"unit_id": unit_id,
                         "request": dict(self.units[unit_id].request)},
                "heartbeat_s": max(0.05, self.lease_timeout_s / 3),
            }

    def heartbeat(self, worker_id: str, unit_id: str) -> Dict[str, object]:
        with self.lock:
            lease = self.leases.get(unit_id)
            if lease is None or lease.worker_id != worker_id:
                # Expired and re-leased, completed, or failed.
                return {"ok": False}
            lease.deadline = self.clock() + self.lease_timeout_s
            return {"ok": True}

    def complete(self, worker_id: str, unit_id: str,
                 envelope: Dict[str, object]) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            if unit_id not in self.units:
                return {"accepted": False, "unknown": True}
            if unit_id in self.completed:
                # First write won; a worker that outlived its lease is
                # simply late.
                self.duplicate_completions += 1
                return {"accepted": False, "duplicate": True}
            if unit_id in self.failed:
                return {"accepted": False, "failed": True}
            self.leases.pop(unit_id, None)
            if not envelope.get("ok", False):
                self.attempts[unit_id] += 1
                error = envelope.get("error") or {}
                if self.attempts[unit_id] >= self.MAX_ATTEMPTS:
                    self.failed[unit_id] = error_record(
                        self.units[unit_id].spec,
                        str(error.get("message", "unit failed")),
                        str(error.get("stage", "worker")))
                return {"accepted": True,
                        "retrying": unit_id not in self.failed}
            self.completed[unit_id] = envelope
            self._journal_write(unit_id, envelope)
            return {"accepted": True}

    def _done_locked(self) -> bool:
        return all(self._settled(unit_id) for unit_id in self.unit_order)

    def done(self) -> bool:
        with self.lock:
            self._reap_expired()
            return self._done_locked()

    def status(self) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            return {
                "units": len(self.unit_order),
                "pending": (len(self.unit_order) - len(self.leases)
                            - len(self.completed) - len(self.failed)),
                "leased": len(self.leases),
                "completed": len(self.completed),
                "failed_circuits": len(self.failed),
                "leases_issued": self.leases_issued,
                "leases_expired": self.leases_expired,
                "duplicate_completions": self.duplicate_completions,
                "done": self._done_locked(),
            }

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    # repro-lint: disable=R003 (post-drain read; server already shut down)
    def merge_suite(self, canonical: bool = False) -> Response:
        """Fold completed units into the final suite response envelope.

        Each unit's ``reports`` and ``errors`` are appended in spec
        order, which is exactly the document ``run_suite`` builds, so
        the result is the same versioned envelope a local ``suite``
        request produces (``Response.to_json`` for the bytes), with the
        suite exit code (1 when any circuit failed).
        """
        report = SuiteReport()
        for unit_id in self.unit_order:
            error = self.failed.get(unit_id)
            envelope = self.completed.get(unit_id, {})
            reports = envelope.get("reports")
            errors = envelope.get("errors")
            if error is None and not (isinstance(reports, list)
                                      and isinstance(errors, list)):
                error = error_record(
                    self.units[unit_id].spec, "worker returned a malformed suite "
                    "envelope", "worker")
            if error is not None:
                report.errors.append(dict(error))
                continue
            report.reports.extend(reports)
            report.errors.extend(errors)
        payload = (report.canonical_dict() if canonical
                   else report.to_dict())
        return Response(kind=SuiteRequest.KIND, result=payload,
                        exit_code=1 if report.errors else 0)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class CoordinatorServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying one job."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], job: DistJob):
        super().__init__(address, _Handler)
        self.job = job

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def health(self) -> dict:
        return {
            "ok": True,
            "schema_version": SCHEMA_VERSION,
            "dist": self.job.status(),
        }


class _Handler(JSONRequestHandler):
    server: CoordinatorServer  # typing aid; http.server sets this

    def _read_object(self) -> Optional[dict]:
        """The body as a JSON object, or None once a 4xx is sent."""
        try:
            data = self._read_json()
            if not isinstance(data, dict):
                raise RequestError(
                    "request body must be a JSON object", stage="http")
        except ReproError as error:
            self._respond_error(error)
            return None
        return data

    def _no_endpoint(self) -> None:
        self._send_not_found(f"no such endpoint {self.path!r}")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        if self.path == HEALTH_PATH:
            self._send_json(200, self.server.health())
        else:
            self._no_endpoint()

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        job = self.server.job
        data = self._read_object()
        if data is None:
            return
        worker_id = str(data.get("worker_id", "unknown"))
        if self.path == LEASE_PATH:
            self._send_json(200, job.lease(worker_id))
        elif self.path == HEARTBEAT_PATH:
            self._send_json(200, job.heartbeat(
                worker_id, str(data.get("unit_id", ""))))
        elif self.path == COMPLETE_PATH:
            envelope = data.get("response")
            if not isinstance(envelope, dict):
                self._respond_error(RequestError(
                    "missing response envelope", stage="http"))
                return
            self._send_json(200, job.complete(
                worker_id, str(data.get("unit_id", "")), envelope))
        else:
            self._no_endpoint()


def make_coordinator(specs: Sequence[str],
                     config: Optional[ReproConfig] = None,
                     modes: Sequence[str] = ATPG_MODES,
                     host: str = "127.0.0.1", port: int = 0,
                     journal_dir: Optional[str] = None,
                     lease_timeout_s: float = 60.0) -> CoordinatorServer:
    """Bind (but do not run) a coordinator; ``port=0`` picks a port.

    The caller owns the lifecycle (``serve_forever`` on a thread,
    ``shutdown`` + ``server_close`` to stop) -- the contract the dist
    tests drive directly.
    """
    job = DistJob(specs, config=config, modes=modes,
                  lease_timeout_s=lease_timeout_s,
                  journal_dir=journal_dir)
    return CoordinatorServer((host, port), job)


def run_coordinator(specs: Sequence[str],
                    config: Optional[ReproConfig] = None,
                    modes: Sequence[str] = ATPG_MODES,
                    host: str = "127.0.0.1", port: int = 0,
                    journal_dir: Optional[str] = None,
                    lease_timeout_s: float = 60.0,
                    canonical: bool = False,
                    out: Optional[str] = None,
                    announce=None,
                    poll_s: float = 0.1) -> Response:
    """Serve one job until every unit completes; return the merged
    suite response (the ``repro coordinator`` command).

    Blocks until workers drain the job.  ``announce`` (e.g. ``print``)
    receives the listening URL so operators can start workers against
    it; pass ``out`` to also write the merged report JSON atomically.
    """
    server = make_coordinator(specs, config=config, modes=modes,
                              host=host, port=port,
                              journal_dir=journal_dir,
                              lease_timeout_s=lease_timeout_s)
    if announce is not None:
        announce(f"repro coordinator: listening on {server.url} "
                 f"({len(server.job.unit_order)} circuit units, "
                 f"schema_version {SCHEMA_VERSION})")
        announce(f"start workers with: repro worker "
                 f"--coordinator {server.url}")
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-coordinator", daemon=True)
    thread.start()
    try:
        while not server.job.done():
            time.sleep(poll_s)
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    response = server.job.merge_suite(canonical=canonical)
    if out:
        write_json_atomic(out, response.envelope())
    return response
