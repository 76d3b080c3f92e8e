"""The coordinator: plan units, lease them out, merge determinism back.

``repro coordinator`` turns one suite request into a unit DAG and
serves it to workers over the wire protocol in
:mod:`repro.dist.protocol`:

* one ``learn`` unit per circuit that any learning mode needs (the
  artifact lands in the fleet-shared cache, so it is computed once
  fleet-wide), and
* one ``shard`` unit per (circuit, mode, fault-shard), depending on
  the circuit's learn unit.

Scheduling is **pull-based work stealing**: workers ask for work when
idle, so fast workers naturally drain more units; when nothing is
pending the coordinator hands out a *duplicate* lease on the oldest
in-flight unit (bounded), so one straggler cannot hold the job hostage
-- first completion wins, the loser's duplicate is ignored.  Every
lease has a deadline extended by heartbeats; an expired lease re-queues
the unit, and a unit that keeps failing (worker deaths, error
envelopes) is bounded-retried before its *circuit* is failed with
``stage="worker"`` -- the same attribution contract as
:mod:`repro.flow.parallel_suite`'s solo retry.  A failing circuit never
fails the job.

Completed unit envelopes are journaled to disk (keyed by a digest of
the whole job), so a restarted coordinator resumes from partial
results instead of re-running the fleet.

The merge is where determinism comes home: per circuit, shard outcomes
replay through :func:`repro.dist.shards.merge_shard_outcomes` (the
serial ATPG loop itself) and the stats are adopted into an ordinary
:class:`~repro.flow.session.PipelineSession` in serial stage order, so
the final suite envelope is byte-identical to ``repro suite
--canonical --json`` run on one machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from ..atpg.driver import prepare_fault_list
from ..flow.config import ATPG_MODES, ReproConfig, canonical_json
from ..flow.session import (
    PipelineSession,
    StageTracker,
    SuiteReport,
    error_record,
    resolve_circuit,
)
from ..flow.serialize import write_json_atomic
from ..api.errors import ReproError, RequestError
from ..api.executor import Response
from ..api.framing import JSONRequestHandler
from ..api.requests import (
    SCHEMA_VERSION,
    LearnRequest,
    ShardRequest,
    SuiteRequest,
)
from ..api.store import ArtifactStore, learn_digest
from .protocol import (
    ARTIFACT_PREFIX,
    COMPLETE_PATH,
    HEALTH_PATH,
    HEARTBEAT_PATH,
    LEASE_PATH,
    STATUS_PATH,
)
from .shards import FaultOutcome, merge_shard_outcomes

__all__ = ["DistUnit", "DistJob", "CoordinatorServer",
           "make_coordinator", "run_coordinator"]

#: Largest accepted request body.  Shard completions carry per-fault
#: outcome payloads, which dwarf ordinary request documents.
MAX_BODY_BYTES = 256 << 20


@dataclass
class DistUnit:
    """One leasable unit of work: a request document plus DAG edges."""

    unit_id: str
    order: int
    circuit_index: int
    spec: str
    kind: str  # 'learn' | 'shard'
    request: Dict[str, object]
    deps: Tuple[str, ...] = ()
    mode: Optional[str] = None
    shard_index: Optional[int] = None


@dataclass
class _Lease:
    worker_id: str
    deadline: float
    issued_at: float


class DistJob:
    """The scheduler state machine (thread-safe; server-agnostic).

    All transitions happen under one lock, driven by worker HTTP calls;
    expired leases are reaped lazily on every lease/complete/status
    call, so the job needs no timer thread of its own.
    """

    #: A unit is terminally failed (failing its circuit) after this
    #: many lease expiries / error completions.
    MAX_ATTEMPTS = 3
    #: Cap on concurrent leases per unit: the primary plus this many
    #: stolen duplicates.
    MAX_LEASES_PER_UNIT = 2

    def __init__(self, specs: Sequence[str],
                 config: Optional[ReproConfig] = None,
                 modes: Sequence[str] = ATPG_MODES,
                 n_shards: int = 4,
                 lease_timeout_s: float = 60.0,
                 journal_dir: Optional[str] = None,
                 clock=time.monotonic):
        self.specs = [str(spec) for spec in specs]
        self.config = (config or ReproConfig()).validate()
        self.modes = tuple(modes)
        # The merged suite report must not depend on how execution was
        # sharded, so units always carry jobs=1 configs (run_suite
        # precedent).
        self.unit_config = replace(self.config, jobs=1)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.lease_timeout_s = lease_timeout_s
        self.journal_dir = journal_dir
        self.clock = clock
        self.lock = threading.Lock()

        self.units: Dict[str, DistUnit] = {}
        self.unit_order: List[str] = []
        self.completed: Dict[str, Dict[str, object]] = {}
        self.attempts: Dict[str, int] = {}
        self.leases: Dict[str, List[_Lease]] = {}
        self.cancelled: set = set()
        #: circuit_index -> error record; set by planning failures and
        #: terminal unit failures.
        self.circuit_errors: Dict[int, Dict[str, str]] = {}
        #: resolved circuits for the merge (planning side effect).
        self._circuits: Dict[int, object] = {}
        self.leases_issued = 0
        self.leases_expired = 0
        self.steals = 0
        self.duplicate_completions = 0

        self._plan()
        self.job_digest = hashlib.sha256(canonical_json({
            "specs": self.specs,
            "config": self.unit_config.to_dict(),
            "modes": list(self.modes),
            "n_shards": self.n_shards,
        }).encode()).hexdigest()
        self._load_journal()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan(self) -> None:
        order = 0
        for index, spec in enumerate(self.specs):
            try:
                circuit = resolve_circuit(spec, self.config.retime)
                faults, _ = prepare_fault_list(
                    circuit,
                    max_faults=self.config.atpg.max_faults,
                    fill_seed=self.config.atpg.fill_seed)
            except Exception as exc:
                # Same attribution a serial run would record: the
                # pipeline fails this circuit in its resolve stage.
                self.circuit_errors[index] = error_record(
                    spec, str(exc), "resolve")
                continue
            self._circuits[index] = circuit
            needs_learn = any(mode != "none" for mode in self.modes)
            digest = (learn_digest(circuit, self.config.learn)
                      if needs_learn else None)
            deps: Tuple[str, ...] = ()
            if needs_learn:
                unit_id = f"{index}:{spec}:learn"
                self._add_unit(DistUnit(
                    unit_id=unit_id, order=order, circuit_index=index,
                    spec=spec, kind="learn",
                    request=LearnRequest(
                        spec=spec,
                        config=self.unit_config).to_dict()))
                order += 1
                deps = (unit_id,)
            for mode in self.modes:
                for shard in range(self.n_shards):
                    self._add_unit(DistUnit(
                        unit_id=(f"{index}:{spec}:shard:{mode}:"
                                 f"{shard}/{self.n_shards}"),
                        order=order, circuit_index=index, spec=spec,
                        kind="shard", mode=mode, shard_index=shard,
                        deps=deps if mode != "none" else (),
                        request=ShardRequest(
                            spec=spec, config=self.unit_config,
                            mode=mode, shard_index=shard,
                            n_shards=self.n_shards,
                            learned_digest=(digest if mode != "none"
                                            else None)).to_dict()))
                    order += 1

    def _add_unit(self, unit: DistUnit) -> None:
        self.units[unit.unit_id] = unit
        self.unit_order.append(unit.unit_id)
        self.attempts[unit.unit_id] = 0

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
    def _reap_expired(self) -> None:
        now = self.clock()
        for unit_id, leases in list(self.leases.items()):
            if unit_id in self.completed or unit_id in self.cancelled:
                del self.leases[unit_id]
                continue
            live = [lease for lease in leases if lease.deadline > now]
            expired = len(leases) - len(live)
            if expired:
                self.leases_expired += expired
                self.attempts[unit_id] += expired
            if live:
                self.leases[unit_id] = live
            else:
                del self.leases[unit_id]
                if self.attempts[unit_id] >= self.MAX_ATTEMPTS:
                    self._fail_unit(
                        unit_id,
                        f"worker lease expired {self.attempts[unit_id]} "
                        "times while running this unit")

    def _fail_unit(self, unit_id: str, message: str,
                   stage: str = "worker") -> None:
        unit = self.units[unit_id]
        index = unit.circuit_index
        if index not in self.circuit_errors:
            self.circuit_errors[index] = error_record(
                unit.spec, message, stage)
        # Cancel the circuit's other units: there is no point grading
        # shards of a circuit the report will record as failed.
        for other_id in self.unit_order:
            other = self.units[other_id]
            if (other.circuit_index == index
                    and other_id not in self.completed):
                self.cancelled.add(other_id)
                self.leases.pop(other_id, None)

    def _ready(self, unit_id: str) -> bool:
        if unit_id in self.completed or unit_id in self.cancelled:
            return False
        unit = self.units[unit_id]
        if unit.circuit_index in self.circuit_errors:
            return False
        return all(dep in self.completed for dep in unit.deps)

    def lease(self, worker_id: str) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            now = self.clock()
            chosen: Optional[str] = None
            stolen = False
            for unit_id in self.unit_order:
                if self._ready(unit_id) and unit_id not in self.leases:
                    chosen = unit_id
                    break
            if chosen is None:
                # Work stealing: nothing pending, so double up on the
                # longest-running in-flight unit (bounded) -- a dead or
                # slow worker's unit gets a second runner without
                # waiting out the lease.
                candidates = [
                    (min(lease.issued_at for lease in leases), unit_id)
                    for unit_id, leases in self.leases.items()
                    if self._ready(unit_id)
                    and len(leases) < self.MAX_LEASES_PER_UNIT
                    and not any(lease.worker_id == worker_id
                                for lease in leases)]
                if candidates:
                    candidates.sort()
                    chosen = candidates[0][1]
                    stolen = True
            if chosen is None:
                return {"unit": None, "done": self._done_locked(),
                        "retry_after": min(1.0,
                                           self.lease_timeout_s / 10)}
            self.leases.setdefault(chosen, []).append(_Lease(
                worker_id=worker_id,
                deadline=now + self.lease_timeout_s,
                issued_at=now))
            self.leases_issued += 1
            if stolen:
                self.steals += 1
            return {
                "unit": {"unit_id": chosen,
                         "request": dict(self.units[chosen].request)},
                "lease_timeout_s": self.lease_timeout_s,
                "heartbeat_s": max(0.05, self.lease_timeout_s / 3),
            }

    def heartbeat(self, worker_id: str, unit_id: str) -> Dict[str, object]:
        with self.lock:
            leases = self.leases.get(unit_id, [])
            for lease in leases:
                if lease.worker_id == worker_id:
                    lease.deadline = self.clock() + self.lease_timeout_s
                    return {"ok": True}
            # Lease gone: expired, stolen-and-finished, or cancelled.
            # Tell the worker to abandon the unit.
            return {"ok": False,
                    "abandon": (unit_id in self.completed
                                or unit_id in self.cancelled)}

    def complete(self, worker_id: str, unit_id: str,
                 envelope: Dict[str, object]) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            if unit_id not in self.units:
                return {"accepted": False, "unknown": True}
            if unit_id in self.completed:
                # First write won; a stolen duplicate (or a worker that
                # outlived its lease) is simply late.
                self.duplicate_completions += 1
                return {"accepted": False, "duplicate": True}
            self.leases.pop(unit_id, None)
            if unit_id in self.cancelled:
                return {"accepted": False, "cancelled": True}
            if not envelope.get("ok", False):
                self.attempts[unit_id] += 1
                error = envelope.get("error") or {}
                if self.attempts[unit_id] >= self.MAX_ATTEMPTS:
                    self._fail_unit(
                        unit_id,
                        str(error.get("message", "unit failed")),
                        stage=str(error.get("stage", "worker")))
                return {"accepted": True, "retrying":
                        unit_id not in self.cancelled}
            self.completed[unit_id] = envelope
            self._journal_write(unit_id, envelope)
            return {"accepted": True}

    def _done_locked(self) -> bool:
        return all(unit_id in self.completed
                   or unit_id in self.cancelled
                   for unit_id in self.unit_order)

    def done(self) -> bool:
        with self.lock:
            self._reap_expired()
            return self._done_locked()

    def status(self) -> Dict[str, object]:
        with self.lock:
            self._reap_expired()
            leased = set(self.leases)
            pending = [unit_id for unit_id in self.unit_order
                       if self._ready(unit_id)
                       and unit_id not in leased]
            return {
                "units": len(self.unit_order),
                "pending": len(pending),
                "leased": len(leased),
                "completed": len(self.completed),
                "cancelled": len(self.cancelled),
                "failed_circuits": len(self.circuit_errors),
                "leases_issued": self.leases_issued,
                "leases_expired": self.leases_expired,
                "steals": self.steals,
                "duplicate_completions": self.duplicate_completions,
                "done": self._done_locked(),
            }

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    # repro-lint: disable=R003 (post-drain read; server already shut down)
    def _merge_circuit(self, index: int,
                       store: ArtifactStore) -> Dict[str, object]:
        """Replay one circuit's shard outcomes into a session report.

        Stage order replicates the serial pipeline exactly --
        resolve, then per requested mode the ATPG stage, with the learn
        stage recorded immediately before the first learning mode --
        so session reports (and therefore the suite document) come out
        byte-identical to ``run_suite`` under canonicalization.
        """
        spec = self.specs[index]
        session = PipelineSession(spec, config=self.unit_config)
        circuit = session.circuit
        learned = None
        for mode in self.modes:
            if mode != "none" and learned is None:
                digest = learn_digest(circuit, self.config.learn)
                cached = store.get_learn(digest, circuit)
                if cached is not None:
                    learned = session.adopt_learned(cached)
                else:
                    # The fleet's artifact is gone (memory-only store,
                    # restarted coordinator); recompute locally --
                    # learning is deterministic, so the report cannot
                    # tell the difference.
                    learned = session.learn()
                    store.put_learn(digest, learned)
            outcomes: Dict[int, FaultOutcome] = {}
            for shard in range(self.n_shards):
                unit_id = (f"{index}:{spec}:shard:{mode}:"
                           f"{shard}/{self.n_shards}")
                envelope = self.completed[unit_id]
                raw = envelope["shard"]["outcomes"]
                for key, outcome in raw.items():
                    outcomes[int(key)] = FaultOutcome.from_dict(outcome)
            stats = merge_shard_outcomes(
                circuit, outcomes,
                learned=learned,
                config=replace(self.unit_config.atpg, mode=mode),
                strict=False)
            session.adopt_atpg(mode, stats)
        return session.report()

    # repro-lint: disable=R003 (post-drain read; server already shut down)
    def merge(self, store: ArtifactStore,
              canonical: bool = False) -> Response:
        """Fold completed units into the final suite response envelope.

        Returns the same versioned document a local ``suite`` request
        produces (``Response.to_json`` for the bytes); per-circuit
        failures land in the report's ``errors`` list with the same
        record shape and the exit code follows the suite convention
        (1 when any circuit failed).
        """
        report = SuiteReport()
        for index in range(len(self.specs)):
            error = self.circuit_errors.get(index)
            if error is not None:
                report.errors.append(dict(error))
                continue
            tracker = StageTracker()
            try:
                report.reports.append(self._merge_circuit(index, store))
            except Exception as exc:
                report.errors.append(error_record(
                    self.specs[index], str(exc), tracker.stage))
        payload = (report.canonical_dict() if canonical
                   else report.to_dict())
        return Response(kind=SuiteRequest.KIND, result=payload,
                        exit_code=1 if report.errors else 0)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class CoordinatorServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying one job and the shared store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], job: DistJob,
                 store: Optional[ArtifactStore] = None):
        super().__init__(address, _Handler)
        self.job = job
        self.store = store if store is not None else ArtifactStore()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def health(self) -> dict:
        return {
            "ok": True,
            "schema_version": SCHEMA_VERSION,
            "dist": self.job.status(),
            "artifact_store": self.store.stats(),
        }


class _Handler(JSONRequestHandler):
    server: CoordinatorServer  # typing aid; http.server sets this

    max_body_bytes = MAX_BODY_BYTES

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
        elif self.path == STATUS_PATH:
            self._send_json(200, self.server.job.status())
        elif self.path.startswith(ARTIFACT_PREFIX):
            digest = self.path[len(ARTIFACT_PREFIX):]
            payload = self.server.store.get_learn_payload(digest)
            if payload is None:
                self._send_not_found(f"no artifact {digest}")
            else:
                self._send(200, payload)
        else:
            self._no_endpoint()

    def do_PUT(self) -> None:  # noqa: N802 (http.server contract)
        if not self.path.startswith(ARTIFACT_PREFIX):
            self._no_endpoint()
            return
        try:
            body = self._read_body()
        except ReproError as error:
            self._respond_error(error)
            return
        digest = self.path[len(ARTIFACT_PREFIX):]
        stored = self.server.store.put_learn_payload(digest, body)
        self._send_json(200, {"ok": True, "stored": stored})

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
                     n_shards: int = 4,
                     host: str = "127.0.0.1", port: int = 0,
                     store: Optional[ArtifactStore] = None,
                     journal_dir: Optional[str] = None,
                     lease_timeout_s: float = 60.0) -> CoordinatorServer:
    """Bind (but do not run) a coordinator; ``port=0`` picks a port.

    The caller owns the lifecycle (``serve_forever`` on a thread,
    ``shutdown`` + ``server_close`` to stop) -- the contract the dist
    tests drive directly.
    """
    job = DistJob(specs, config=config, modes=modes, n_shards=n_shards,
                  lease_timeout_s=lease_timeout_s,
                  journal_dir=journal_dir)
    return CoordinatorServer((host, port), job, store=store)


def run_coordinator(specs: Sequence[str],
                    config: Optional[ReproConfig] = None,
                    modes: Sequence[str] = ATPG_MODES,
                    n_shards: int = 4,
                    host: str = "127.0.0.1", port: int = 0,
                    store_dir: Optional[str] = None,
                    journal_dir: Optional[str] = None,
                    lease_timeout_s: float = 60.0,
                    canonical: bool = False,
                    out: Optional[str] = None,
                    announce=None,
                    poll_s: float = 0.1) -> Response:
    """Serve one job until every unit completes; return the merged
    suite response (the ``repro coordinator`` command).

    Blocks until workers drain the DAG.  ``announce`` (e.g. ``print``)
    receives the listening URL so operators can start workers against
    it; pass ``out`` to also write the merged report JSON atomically.
    """
    store = ArtifactStore(root=store_dir)
    server = make_coordinator(specs, config=config, modes=modes,
                              n_shards=n_shards, host=host, port=port,
                              store=store, journal_dir=journal_dir,
                              lease_timeout_s=lease_timeout_s)
    if announce is not None:
        announce(f"repro coordinator: listening on {server.url} "
                 f"({len(server.job.unit_order)} units, "
                 f"{n_shards} shards/circuit, schema_version "
                 f"{SCHEMA_VERSION})")
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
    response = server.job.merge(store, canonical=canonical)
    if out:
        write_json_atomic(out, response.envelope())
    return response
