"""``execute(request) -> Response``: the one entrypoint of the system.

Every surface -- the CLI, the ``repro serve`` daemon, Python callers,
pool workers -- funnels through this function.  It validates the
request, compiles it into a :class:`~repro.api.planner.Plan`, runs the
plan on a :class:`~repro.flow.session.PipelineSession` (suites on the
:mod:`repro.flow.parallel_suite` pool), streams typed events, and
returns a versioned response envelope::

    {"schema_version": 1, "command": "<kind>", "ok": true, ...result}
    {"schema_version": 1, "command": "<kind>", "ok": false,
     "error": {"code", "stage", "message"}}

Failures never escape as raw exceptions (except ``BrokenPipeError``,
which is the caller's pipe, not ours): they are classified into the
:mod:`repro.api.errors` taxonomy and returned as error envelopes, so a
daemon thread and a one-shot CLI process render the identical document.

Passing an :class:`~repro.api.store.ArtifactStore` turns on
cross-request learning reuse: learn stages are keyed by
:func:`~repro.api.store.learn_digest` and satisfied from the store when
possible, which is how a warm daemon answers repeat traffic without
relearning -- with reports canonically byte-identical to cold runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..core.engine import LearnResult
from ..flow.config import ReproConfig
from ..flow.serialize import save_learn_result
from ..flow.session import (
    PipelineSession,
    StageTracker,
    canonicalize_volatile,
    run_suite,
)
from .errors import RequestError, classify_error
from .events import (
    EventSink,
    ProgressEvent,
    ResultEvent,
    emit,
    progress_hook_for,
)
from .planner import Plan, plan_request
from .requests import (
    SCHEMA_VERSION,
    ATPGRequest,
    AnalyzeRequest,
    CompareRequest,
    FaultSimRequest,
    LearnRequest,
    ListRequest,
    Request,
    ShardRequest,
    StatsRequest,
    SuiteRequest,
    UntestableRequest,
    request_from_dict,
)
from .store import ArtifactStore, learn_digest

__all__ = ["Response", "execute"]


@dataclass
class Response:
    """What :func:`execute` returns: a versioned, renderable envelope."""

    kind: str
    ok: bool = True
    result: Dict[str, object] = field(default_factory=dict)
    error: Optional[Dict[str, Optional[str]]] = None
    #: Process exit status for CLI adapters (0 ok, 1 failure/violations).
    exit_code: int = 0
    schema_version: int = SCHEMA_VERSION

    def envelope(self) -> Dict[str, object]:
        """The complete JSON document, result fields inlined."""
        out: Dict[str, object] = {"schema_version": self.schema_version,
                                  "command": self.kind, "ok": self.ok}
        if self.ok:
            out.update(self.result)
        else:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        """The envelope's one serialized form (CLI and daemon byte-
        identical by construction)."""
        return json.dumps(self.envelope(), indent=1) + "\n"


# ----------------------------------------------------------------------
# shared stage helpers
# ----------------------------------------------------------------------
def _session_for(request: Request, tracker: StageTracker,
                 config: Optional[ReproConfig] = None) -> PipelineSession:
    session = PipelineSession(request.spec,
                              config=config or request.config,
                              progress=tracker)
    session.emit_ticks = True
    session.cancel_check = tracker.cancel
    return session


def _learn_stage(session: PipelineSession,
                 store: Optional[ArtifactStore]
                 ) -> Tuple[LearnResult, str]:
    """Run (or adopt from the store) the learn stage; returns digest.

    With a store, the whole miss-compute-put sequence runs under the
    digest's single-flight lock: concurrent daemon requests needing the
    same learning block briefly behind the first one and then adopt its
    result, so each digest is ever learned once per store.
    """
    digest = learn_digest(session.circuit, session.config.learn)
    if store is None:
        return session.learn(), digest
    with store.flight(digest):
        cached = store.get_learn(digest, session.circuit)
        if cached is not None:
            return session.adopt_learned(cached), digest
        result = session.learn()
        try:
            store.put_learn(digest, result)
        except OSError:
            # The cache write is best-effort, symmetric with get_learn:
            # a full disk must not fail a request whose computation
            # already succeeded.
            pass
    return result, digest


def _emit_plan(sink: Optional[EventSink], plan: Plan) -> None:
    emit(sink, ProgressEvent(stage="plan", status="end",
                             payload=plan.summary()))


def _finish(request: Request, payload: Dict[str, object],
            exit_code: int = 0) -> Response:
    if getattr(request, "canonical", False):
        payload = canonicalize_volatile(payload)
    return Response(kind=request.KIND, result=payload,
                    exit_code=exit_code)


# ----------------------------------------------------------------------
# per-kind handlers
# ----------------------------------------------------------------------
def _run_learn(request: LearnRequest, tracker: StageTracker,
               store: Optional[ArtifactStore],
               sink: Optional[EventSink]) -> Response:
    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    result, digest = _learn_stage(session, store)
    if request.save:
        save_learn_result(result, request.save, digest=digest)
    violations: Optional[List[str]] = None
    if request.validate_sequences:
        violations = result.validate(
            n_sequences=request.validate_sequences)
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    payload["learn_digest"] = digest
    if request.save:
        payload["artifact"] = request.save
    if violations is not None:
        payload["validation"] = {
            "sequences": request.validate_sequences,
            "violations": violations,
        }
    if request.details:
        payload["details"] = {
            "ties": [{"node": circuit.nodes[tie.nid].name,
                      "value": tie.value,
                      "kind": "seq" if tie.sequential else "comb",
                      "phase": tie.phase}
                     for tie in result.ties.all()],
            "relations": list(result.relations.dump()),
        }
    return _finish(request, payload,
                   exit_code=1 if violations else 0)


def _run_untestable(request: UntestableRequest, tracker: StageTracker,
                    store: Optional[ArtifactStore],
                    sink: Optional[EventSink]) -> Response:
    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    _learn_stage(session, store)
    session.untestable_screen()
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    return _finish(request, payload)


def _run_atpg(request: ATPGRequest, tracker: StageTracker,
              store: Optional[ArtifactStore],
              sink: Optional[EventSink]) -> Response:
    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    # An explicit artifact is always loaded (a stale one fails loudly
    # even for the 'none' baseline); otherwise learning runs -- via the
    # store when available -- only when a learning mode needs it.
    if request.learned is not None:
        session.load_learned(request.learned)
    elif any(mode != "none" for mode in request.modes):
        _learn_stage(session, store)
    session.compare(list(request.modes))
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    if request.learned is not None:
        payload["artifact"] = request.learned
    return _finish(request, payload)


def _run_faultsim(request: FaultSimRequest, tracker: StageTracker,
                  store: Optional[ArtifactStore],
                  sink: Optional[EventSink]) -> Response:
    # Grading replays the generated vectors, so they must be kept --
    # forced here so every surface (daemon, Python, CLI) gets a working
    # faultsim by default.  The report shows the effective config.
    config = replace(request.config,
                     atpg=replace(request.config.atpg,
                                  keep_sequences=True))
    session = _session_for(request, tracker, config=config)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    modes = request.modes or (request.config.atpg.mode,)
    if any(mode != "none" for mode in modes):
        _learn_stage(session, store)
    for mode in modes:
        session.fault_sim(mode)
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    return _finish(request, payload)


def _run_compare(request: CompareRequest, tracker: StageTracker,
                 store: Optional[ArtifactStore],
                 sink: Optional[EventSink]) -> Response:
    from ..atpg.driver import compare_modes

    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    learned, _ = _learn_stage(session, store)

    def stage() -> list:
        return compare_modes(circuit, learned,
                             config=session.config.atpg,
                             backtrack_limits=request.backtrack_limits,
                             cancel=session.cancel_check)

    rows = session.run_stage("compare", stage,
                             lambda rows: {"rows": len(rows)})
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    payload["compare"] = {
        "backtrack_limits": list(request.backtrack_limits),
        "rows": [dict(stats.row()) for stats in rows],
    }
    return _finish(request, payload)


def _run_suite(request: SuiteRequest, tracker: StageTracker,
               store: Optional[ArtifactStore],
               sink: Optional[EventSink]) -> Response:
    _emit_plan(sink, plan_request(request, None, store))
    report = run_suite(list(request.specs), config=request.config,
                       modes=list(request.modes), progress=tracker)
    if request.out:
        report.save(request.out, canonical=request.canonical)
    payload = (report.canonical_dict() if request.canonical
               else report.to_dict())
    # canonical_dict already zeroed timings; skip the generic pass.
    return Response(kind=request.KIND, result=payload,
                    exit_code=1 if report.errors else 0)


def _run_shard(request: ShardRequest, tracker: StageTracker,
               store: Optional[ArtifactStore],
               sink: Optional[EventSink]) -> Response:
    from ..atpg.driver import prepare_fault_list
    from ..dist.shards import make_fault_shards, run_fault_shard

    config = replace(request.config,
                     atpg=replace(request.config.atpg,
                                  mode=request.mode))
    session = _session_for(request, tracker, config=config)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    learned: Optional[LearnResult] = None
    if request.mode != "none":
        # learned_digest pins which artifact the coordinator scheduled;
        # drift between its config and ours must fail loudly, not merge
        # outcomes computed from different knowledge.
        expected = learn_digest(circuit, config.learn)
        if request.learned_digest != expected:
            raise RequestError(
                f"learned_digest {request.learned_digest!r} does not "
                f"match this circuit+config ({expected!r})")
        learned, _ = _learn_stage(session, store)
    faults, _ = prepare_fault_list(circuit,
                                   max_faults=config.atpg.max_faults,
                                   fill_seed=config.atpg.fill_seed)
    shard = make_fault_shards(len(faults),
                              request.n_shards)[request.shard_index]

    def stage() -> Dict[int, object]:
        return run_fault_shard(circuit, shard, learned=learned,
                               config=config.atpg)

    outcomes = session.run_stage(
        f"shard[{request.mode}:{request.shard_index}/{request.n_shards}]",
        stage, lambda out: {"faults": len(out)})
    payload = session.report()
    payload["config_digest"] = request.config_digest(circuit)
    payload["shard"] = {
        "mode": request.mode,
        "shard_index": request.shard_index,
        "n_shards": request.n_shards,
        "n_faults": len(faults),
        "outcomes": {str(index): outcome.to_dict()
                     for index, outcome in sorted(outcomes.items())},
    }
    return _finish(request, payload)


def _run_stats(request: StatsRequest, tracker: StageTracker,
               store: Optional[ArtifactStore],
               sink: Optional[EventSink]) -> Response:
    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    payload: Dict[str, object] = {"circuit": circuit.name,
                                  "fingerprint": circuit.fingerprint()}
    payload.update(circuit.stats())
    if store is not None:
        payload["artifact_store"] = store.stats()
    return _finish(request, payload)


def _run_analyze(request: AnalyzeRequest, tracker: StageTracker,
                 store: Optional[ArtifactStore],
                 sink: Optional[EventSink]) -> Response:
    from ..analysis import analyze_state_space

    session = _session_for(request, tracker)
    circuit = session.circuit
    _emit_plan(sink, plan_request(request, circuit, store))
    space = session.run_stage(
        "analyze",
        lambda: analyze_state_space(circuit, max_ffs=request.max_ffs),
        lambda s: {"valid_states": len(s.valid_states)})
    payload = {
        "circuit": circuit.name,
        "ffs": circuit.num_ffs,
        "valid_states": len(space.valid_states),
        "density_of_encoding": space.density_of_encoding,
    }
    return _finish(request, payload)


def _run_list(request: ListRequest, tracker: StageTracker,
              store: Optional[ArtifactStore],
              sink: Optional[EventSink]) -> Response:
    from ..circuit import builtin_names

    _emit_plan(sink, plan_request(request, None, store))
    return Response(kind=request.KIND,
                    result={"circuits": builtin_names()})


_HANDLERS = {
    LearnRequest.KIND: _run_learn,
    UntestableRequest.KIND: _run_untestable,
    ATPGRequest.KIND: _run_atpg,
    FaultSimRequest.KIND: _run_faultsim,
    CompareRequest.KIND: _run_compare,
    SuiteRequest.KIND: _run_suite,
    ShardRequest.KIND: _run_shard,
    StatsRequest.KIND: _run_stats,
    AnalyzeRequest.KIND: _run_analyze,
    ListRequest.KIND: _run_list,
}


def execute(request: Union[Request, Dict[str, object]], *,
            events: Optional[EventSink] = None,
            store: Optional[ArtifactStore] = None,
            cancel=None) -> Response:
    """Run any request to completion; never raises for request faults.

    ``request`` is a typed request object or its plain-dict form (the
    daemon's parsed JSON body).  ``events`` receives the typed event
    stream (:mod:`repro.api.events`); ``store`` enables content-
    addressed learn-artifact reuse.  ``cancel`` is a raising checkpoint
    callable (the serve tier passes a
    :meth:`~repro.serve.cancel.CancelToken.check`): it is polled at
    stage boundaries and inside long ATPG fault loops, and whatever it
    raises is classified like any other failure -- a
    :class:`~repro.api.errors.CancelledFailure` or
    :class:`~repro.api.errors.DeadlineExceeded` comes back as its own
    error envelope.  The returned :class:`Response` envelope is
    deterministic for a given request: two processes (or a daemon
    thread and a one-shot run) produce the same document,
    byte-identical under ``canonical=True``.
    """
    kind: Optional[str] = None
    if isinstance(request, dict):
        raw_kind = request.get("kind")
        kind = raw_kind if isinstance(raw_kind, str) else None
    tracker = StageTracker(progress_hook_for(events), cancel=cancel)
    try:
        try:
            if isinstance(request, dict):
                request = request_from_dict(request)
            elif isinstance(request, Request):
                request.validate()
            else:
                raise RequestError(
                    f"execute() takes a Request or dict, "
                    f"got {type(request).__name__}")
        except Exception as exc:
            stage = "parse" if isinstance(exc, RequestError) else "config"
            raise classify_error(exc, stage=stage) from exc
        kind = request.KIND
        response = _HANDLERS[request.KIND](request, tracker, store,
                                           events)
    except BrokenPipeError:  # the caller's pipe broke; not our failure
        raise
    except Exception as exc:
        error = classify_error(exc, stage=tracker.stage)
        response = Response(kind=kind or "unknown", ok=False,
                            error=error.envelope(), exit_code=1)
    emit(events, ResultEvent(envelope=response.envelope()))
    return response
