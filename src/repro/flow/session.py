"""The pipeline session -- one circuit, one config, cached stages.

The paper's workflow is *learn once, reuse across many ATPG runs*.  A
:class:`PipelineSession` makes that a first-class object: it binds one
circuit spec to one :class:`~repro.flow.config.ReproConfig` and exposes
the pipeline as named, individually cached stages::

    resolve -> learn -> untestable -> atpg[mode] -> fault_sim[mode]

Each stage runs at most once per session (per ATPG mode for the last
two); asking again returns the cached result.  Learned knowledge can be
saved to / loaded from a JSON artifact (:mod:`repro.flow.serialize`), so
the expensive learning stage is skipped entirely when a fresh artifact
exists -- this is what the CLI's ``learn --save`` / ``atpg --learned``
pair rides on.

:class:`PipelineSession` is the execution engine behind
:func:`repro.api.execute`.

``progress`` hooks fire as ``progress(stage, event, payload)`` with
``event`` in ``{"start", "end"}``; ``payload`` is ``None`` at start and a
small summary dict at end.  :func:`run_suite` batches sessions over many
circuit specs into a :class:`SuiteReport` with one JSON document for the
whole run.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..atpg.driver import ATPGStats, run_atpg
from ..atpg.faults import collapse_faults
from ..atpg.untestable import UntestableComparison, compare_untestable
from ..circuit import (
    BUILTIN,
    get_builtin,
    iscas_like,
    load_bench,
    retime_circuit,
)
from ..circuit.netlist import Circuit, CircuitError
from ..core.engine import LearnResult, learn
from ..sim.compiled import make_fault_simulator
from .config import ATPG_MODES, ConfigError, ReproConfig, normalize_jobs
from .serialize import (
    load_learn_result,
    save_learn_result,
    write_json_atomic,
)

#: progress(stage_name, "start" | "end", payload_or_None)
ProgressHook = Callable[[str, str, Optional[dict]], None]


class CircuitResolveError(ValueError):
    """A circuit spec that cannot be turned into a circuit."""


#: Memory addresses in exception text (e.g. pickling errors quoting an
#: object repr) differ every run; error records are part of the
#: deterministic report contract, so they are masked.
_ADDRESSES = re.compile(r"0x[0-9a-fA-F]+")


def error_record(spec, error: str, stage: str) -> Dict[str, str]:
    """The one shape of a per-circuit failure (``SuiteReport.errors``).

    Serial and sharded suite paths must emit byte-identical records, so
    the schema lives in exactly one place.  A :class:`Circuit` spec is
    recorded by its name -- its default repr carries a memory address,
    which would differ run to run and break report determinism -- and
    addresses inside the error text are masked for the same reason.
    """
    return {"spec": str(getattr(spec, "name", spec)),
            "error": _ADDRESSES.sub("0x...", error), "stage": stage}


class StageTracker:
    """Progress passthrough that remembers the innermost started stage.

    Every progress event passes through one of these on its way to the
    caller's hook.  :func:`repro.api.execute` and the suite runners
    wrap the hook in one so a mid-pipeline failure can be attributed to
    the stage that was running (``SuiteReport.errors[*]["stage"]``);
    the parallel suite replays its workers' recorded events through
    one.  Before any stage starts the position is ``"config"`` -- the
    only work that happens there is session construction, i.e. config
    validation.

    Progress hooks are UI, not data: an exception thrown by the wrapped
    hook is suppressed here, on the serial and the replay path alike,
    so a broken hook can never make serial and sharded suite reports
    diverge.
    """

    def __init__(self, inner: Optional[ProgressHook] = None,
                 cancel: Optional[Callable[[], None]] = None):
        self.inner = inner
        self.stage = "config"
        #: Raising checkpoint hook (the serve tier's cancellation
        #: token); unlike ``inner`` its exceptions must propagate --
        #: cancellation is control flow, not UI.
        self.cancel = cancel

    def __call__(self, stage: str, event: str,
                 payload: Optional[dict]) -> None:
        if event == "start":
            self.stage = stage
        if self.inner is not None:
            try:
                self.inner(stage, event, payload)
            except Exception:
                pass


def resolve_circuit(spec: Union[str, Circuit],
                    retime: int = 0) -> Circuit:
    """Turn a circuit spec into a :class:`Circuit`.

    ``spec`` is a built-in name (``figure1``, ``s27``, ...), a generator
    profile ``like:<name>[@scale]`` (``like:s382@0.5``), a path to an
    ISCAS-89 ``.bench`` file, or an already-built :class:`Circuit`.
    Raises :class:`CircuitResolveError` with an actionable message for
    anything else -- never a raw ``KeyError``/``FileNotFoundError``.
    """
    if isinstance(spec, Circuit):
        circuit = spec
    elif spec in BUILTIN:
        circuit = get_builtin(spec)
    elif spec.startswith("like:"):
        body = spec[len("like:"):]
        name, _, scale = body.partition("@")
        try:
            if scale:
                circuit = iscas_like(name, scale=float(scale))
            else:
                circuit = iscas_like(name)
        except KeyError as exc:
            raise CircuitResolveError(
                f"unknown profile {name!r} in {spec!r}: "
                f"{exc.args[0]}") from exc
        except ValueError as exc:
            raise CircuitResolveError(
                f"bad scale in {spec!r}: {exc}") from exc
    else:
        try:
            circuit = load_bench(spec)
        except OSError as exc:
            raise CircuitResolveError(
                f"cannot read bench file {spec!r}: {exc}; expected a "
                "built-in name, like:<profile>[@scale], or a .bench "
                "path (see `repro list`)") from exc
        except CircuitError as exc:
            raise CircuitResolveError(
                f"malformed bench file {spec!r}: {exc}") from exc
    if retime:
        circuit = retime_circuit(circuit, moves=retime,
                                 name=circuit.name + "_retimed")
    return circuit


@dataclass
class StageRecord:
    """Timing + summary of one completed pipeline stage."""

    stage: str
    elapsed: float
    summary: Dict[str, object] = field(default_factory=dict)


class PipelineSession:
    """One circuit, one config, every pipeline stage cached."""

    #: When true (set by :func:`repro.api.execute`), long ATPG stages
    #: emit throttled ``(stage, "tick", {"done", "total"})`` progress
    #: events between ``start`` and ``end``.  Off by default so direct
    #: ``PipelineSession`` progress hooks see the start/end-only
    #: stream.
    emit_ticks = False

    #: Raising checkpoint callable (set by :func:`repro.api.execute`
    #: when a cancellation token is attached): checked at every stage
    #: boundary and threaded into ``run_atpg``'s fault loop, so a
    #: deadline or client disconnect stops the search mid-stage instead
    #: of after it.  ``None`` (the default) costs nothing.
    cancel_check: Optional[Callable[[], None]] = None

    def __init__(self, spec: Union[str, Circuit],
                 config: Optional[ReproConfig] = None,
                 progress: Optional[ProgressHook] = None):
        self.spec = spec
        self.config = (config or ReproConfig()).validate()
        self.progress = progress
        self.records: List[StageRecord] = []
        self._circuit: Optional[Circuit] = None
        self._learned: Optional[LearnResult] = None
        self._untestable: Optional[UntestableComparison] = None
        self._atpg: Dict[str, ATPGStats] = {}
        self._fault_sim: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def _stage(self, name: str, fn, summarize):
        if self.cancel_check is not None:
            self.cancel_check()
        if self.progress is not None:
            self.progress(name, "start", None)
        t0 = time.perf_counter()
        value = fn()
        record = StageRecord(stage=name,
                             elapsed=time.perf_counter() - t0,
                             summary=summarize(value))
        self.records.append(record)
        if self.progress is not None:
            self.progress(name, "end", dict(record.summary))
        return value

    def run_stage(self, name: str, fn, summarize=lambda value: {}):
        """Run an ad-hoc named stage: timing, record, progress events.

        The extension point for work that belongs in this session's
        report but is not one of the built-in pipeline stages (the API
        layer's ``compare`` and ``analyze`` stages ride on this).
        """
        return self._stage(name, fn, summarize)

    # ------------------------------------------------------------------
    # resolve
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> Circuit:
        """The resolved circuit (stage ``resolve``, cached)."""
        if self._circuit is None:
            self._circuit = self._stage(
                "resolve",
                lambda: resolve_circuit(self.spec, self.config.retime),
                lambda c: {"circuit": c.name, **c.stats()})
        return self._circuit

    # ------------------------------------------------------------------
    # learn
    # ------------------------------------------------------------------
    def learn(self) -> LearnResult:
        """Stage ``learn`` (cached; skipped when an artifact is loaded).

        The simulation backend behind equivalence signatures follows
        ``config.atpg.sim_backend``; learned knowledge is identical for
        either backend.
        """
        if self._learned is None:
            circuit = self.circuit
            self._learned = self._stage(
                "learn",
                lambda: learn(circuit, self.config.learn,
                              sim_backend=self.config.atpg.sim_backend),
                lambda r: dict(r.summary()))
        return self._learned

    def attach_learned(self, result: LearnResult) -> None:
        """Use an existing in-memory result instead of relearning."""
        if result.circuit is not self.circuit and (
                result.circuit.fingerprint()
                != self.circuit.fingerprint()):
            raise CircuitResolveError(
                f"learned result is for {result.circuit.name!r}, not "
                f"{self.circuit.name!r}")
        self._learned = result

    def adopt_learned(self, result: LearnResult) -> LearnResult:
        """Stage ``learn`` satisfied from a cached in-memory result.

        Unlike :meth:`attach_learned` this records a ``learn`` stage
        with the same summary shape a fresh :meth:`learn` would have
        produced, so reports from cache-hit runs are canonically
        byte-identical to cold runs (only wall-clock fields differ, and
        those are volatile by contract).  The result must match this
        session's circuit fingerprint.
        """
        circuit = self.circuit

        def fetch() -> LearnResult:
            if result.circuit is not circuit and (
                    result.circuit.fingerprint()
                    != circuit.fingerprint()):
                raise CircuitResolveError(
                    f"learned result is for {result.circuit.name!r}, "
                    f"not {circuit.name!r}")
            return result

        self._learned = self._stage(
            "learn", fetch, lambda r: dict(r.summary()))
        return self._learned

    def load_learned(self, path) -> LearnResult:
        """Stage ``learn`` satisfied from a saved JSON artifact."""
        circuit = self.circuit
        self._learned = self._stage(
            "learn",
            lambda: load_learn_result(path, circuit),
            lambda r: {**r.summary(), "artifact": str(path)})
        return self._learned

    def save_learned(self, path) -> None:
        """Persist the (possibly freshly computed) learning result."""
        save_learn_result(self.learn(), path)

    # ------------------------------------------------------------------
    # untestable screen
    # ------------------------------------------------------------------
    def untestable_screen(self) -> UntestableComparison:
        """Stage ``untestable``: tie-gate vs FIRES screen (cached).

        Learning comes from the shared ``learn`` stage (depth
        ``config.learn.max_frames``, not ``compare_untestable``'s
        internal default), and its CPU is folded back into
        ``tie_cpu_s`` so the tie-vs-FIRES CPU comparison still charges
        the tie side for the learning that produced its ties.
        """
        if self._untestable is None:
            circuit = self.circuit
            learned = self.learn()

            def screen() -> UntestableComparison:
                comparison = compare_untestable(circuit, learned=learned)
                comparison.tie_cpu_s += learned.elapsed
                return comparison

            self._untestable = self._stage(
                "untestable", screen, lambda c: dict(c.row()))
        return self._untestable

    # ------------------------------------------------------------------
    # ATPG
    # ------------------------------------------------------------------
    def atpg(self, mode: Optional[str] = None) -> ATPGStats:
        """Stage ``atpg`` for one implication mode (cached per mode).

        ``mode='none'`` is the paper's true no-learning baseline: the
        learned result is withheld entirely, including the tie-gate
        untestability screen.  The PODEM engine follows
        ``config.atpg.atpg_engine`` ('incremental' by default,
        'reference' as the oracle); statistics are bit-identical for
        either engine.
        """
        mode = mode or self.config.atpg.mode
        if mode not in ATPG_MODES:
            raise ConfigError(
                f"mode must be one of {ATPG_MODES}, got {mode!r}")
        if mode not in self._atpg:
            circuit = self.circuit
            learned = None if mode == "none" else self.learn()
            config = replace(self.config.atpg, mode=mode)
            tick = None
            if self.emit_ticks and self.progress is not None:
                stage_name, hook = f"atpg[{mode}]", self.progress

                def tick(done: int, total: int) -> None:
                    # Throttled: fault loops can be long, progress is UI.
                    if done % 25 == 0 or done == total:
                        hook(stage_name, "tick",
                             {"done": done, "total": total})

            self._atpg[mode] = self._stage(
                f"atpg[{mode}]",
                lambda: run_atpg(circuit, learned=learned, config=config,
                                 progress=tick,
                                 cancel=self.cancel_check),
                lambda s: dict(s.row()))
        return self._atpg[mode]

    def compare(self, modes: Sequence[str] = ATPG_MODES
                ) -> List[ATPGStats]:
        """Run (or fetch) the ATPG stage for several modes in order."""
        return [self.atpg(mode) for mode in modes]

    # ------------------------------------------------------------------
    # fault simulation
    # ------------------------------------------------------------------
    def fault_sim(self, mode: Optional[str] = None) -> Dict[str, object]:
        """Stage ``fault_sim``: grade the generated test set (cached).

        Replays the ATPG stage's kept sequences against the full
        collapsed fault list and reports independent fault coverage.
        Requires ``atpg.keep_sequences=True`` when any tests were
        generated -- grading needs the vectors.
        """
        mode = mode or self.config.atpg.mode
        if mode in self._fault_sim:
            return self._fault_sim[mode]
        stats = self.atpg(mode)
        if stats.sequences_total and not stats.sequences:
            raise ConfigError(
                "fault_sim needs the generated vectors; re-run with "
                "ATPGConfig.keep_sequences=True")
        circuit = self.circuit

        def grade() -> Dict[str, object]:
            faults = collapse_faults(circuit)
            simulator = make_fault_simulator(
                circuit, backend=self.config.atpg.sim_backend)
            undetected = list(faults)
            for sequence in stats.sequences:
                if not undetected:
                    break
                hits = simulator.detected(sequence, undetected)
                undetected = [f for i, f in enumerate(undetected)
                              if i not in hits]
            detected = len(faults) - len(undetected)
            return {
                "circuit": circuit.name,
                "mode": mode,
                "sequences": stats.sequences_total,
                "total_faults": len(faults),
                "detected": detected,
                "fault_coverage_%": round(
                    100.0 * detected / len(faults), 2) if faults else 100.0,
            }

        self._fault_sim[mode] = self._stage(
            f"fault_sim[{mode}]", grade, lambda r: dict(r))
        return self._fault_sim[mode]

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Everything this session has computed, as one JSON-able dict."""
        out: Dict[str, object] = {
            "circuit": self.circuit.name,
            "fingerprint": self.circuit.fingerprint(),
            "config": self.config.to_dict(),
            "stages": [{"stage": r.stage,
                        "elapsed_s": round(r.elapsed, 4),
                        **r.summary} for r in self.records],
        }
        if self._learned is not None:
            out["learn"] = dict(self._learned.summary())
        if self._untestable is not None:
            out["untestable"] = dict(self._untestable.row())
        if self._atpg:
            out["atpg"] = {mode: dict(stats.row())
                           for mode, stats in self._atpg.items()}
        if self._fault_sim:
            out["fault_sim"] = {mode: dict(res)
                                for mode, res in self._fault_sim.items()}
        return out


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
#: Wall-clock keys zeroed by :meth:`SuiteReport.canonical_dict`.  These
#: are the only report fields that vary run to run (the pipeline itself
#: is seeded); everything else must be identical for the same specs and
#: config regardless of worker count.
VOLATILE_KEYS = frozenset(
    {"elapsed_s", "cpu_s", "elapsed", "phase_times",
     "tie_cpu_s", "fires_cpu_s"})


def canonicalize_volatile(value):
    """Deep-copy ``value`` with every volatile timing field zeroed."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key in VOLATILE_KEYS:
                out[key] = ({name: 0.0 for name in item}
                            if isinstance(item, dict) else 0.0)
            else:
                out[key] = canonicalize_volatile(item)
        return out
    if isinstance(value, list):
        return [canonicalize_volatile(item) for item in value]
    return value


@dataclass
class SuiteReport:
    """Batch results: one :meth:`PipelineSession.report` per circuit spec.

    ``reports`` and ``errors`` are both kept in input-spec order, so the
    document is deterministic for a given spec list and config no matter
    how the suite was executed (serially or sharded over workers).
    """

    reports: List[Dict[str, object]] = field(default_factory=list)
    errors: List[Dict[str, str]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        """Flat table: one row per (circuit, ATPG mode)."""
        rows = []
        for report in self.reports:
            for mode, stats in sorted(report.get("atpg", {}).items()):
                rows.append({"circuit": report["circuit"],
                             "mode": mode, **stats})
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "repro/suite-report",
            "version": 1,
            "circuits": len(self.reports),
            "errors": list(self.errors),
            "reports": list(self.reports),
        }

    def canonical_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` with wall-clock fields zeroed.

        Two runs over the same specs and config -- any ``jobs`` value,
        any machine -- produce byte-identical canonical documents; only
        the timing fields in :data:`VOLATILE_KEYS` ever differ between
        runs, and this form zeroes them (keeping the keys, so the schema
        is unchanged).
        """
        return canonicalize_volatile(self.to_dict())

    def save(self, path, canonical: bool = False) -> None:
        """Write the report as JSON, atomically (temp file + rename)."""
        write_json_atomic(
            path, self.canonical_dict() if canonical else self.to_dict())


def run_suite(specs: Sequence[Union[str, Circuit]],
              config: Optional[ReproConfig] = None,
              modes: Sequence[str] = ATPG_MODES,
              progress: Optional[ProgressHook] = None,
              keep_going: bool = True,
              jobs: Optional[int] = None) -> SuiteReport:
    """Run the full pipeline over many circuit specs.

    Each spec gets its own :class:`PipelineSession` (learning runs once
    per circuit and is shared by every ATPG mode).  The suite-wide config is
    validated eagerly -- a bad ``config``/``jobs`` raises
    :class:`ConfigError` before anything runs, since it would fail every
    spec identically.  After that, with ``keep_going`` (the default)
    *any* per-circuit failure -- resolve, a crash in the middle of
    learning/ATPG, a dying worker -- is recorded in
    :attr:`SuiteReport.errors` as ``{"spec", "error", "stage"}`` and the
    suite continues; otherwise the first error propagates.

    ``jobs`` shards the specs over a multiprocessing worker pool
    (:mod:`repro.flow.parallel_suite`): ``None`` defers to
    ``config.jobs``, ``1`` runs serially in-process, ``0`` means one
    worker per CPU core.  A single-spec suite has nothing to shard and
    always runs serially (so the parallel path's ``SuiteError``
    semantics apply only from two specs up).  The report is
    deterministic -- identical content and order -- for every ``jobs``
    value; see :meth:`SuiteReport.canonical_dict` for the byte-identical
    form.
    """
    base = config or ReproConfig()
    if jobs is not None:
        # ReproConfig.validate is the single source of the jobs rule.
        base = replace(base, jobs=jobs)
    base = base.validate()
    jobs = normalize_jobs(base.jobs)
    # Sessions always carry jobs=1: parallelism is a property of suite
    # execution, not of any one circuit's pipeline, and reports must not
    # depend on the worker count.
    session_config = replace(base, jobs=1)
    from .parallel_suite import SuiteTask, run_suite_parallel, run_task

    if jobs > 1 and len(specs) > 1:
        return run_suite_parallel(specs, config=session_config,
                                  modes=modes, progress=progress,
                                  keep_going=keep_going, jobs=jobs)
    # The serial loop runs the exact same per-circuit body as a pool
    # worker (one copy of the pipeline, in parallel_suite.run_task), so
    # reports and failure attribution cannot drift between jobs values.
    report = SuiteReport()
    for index, spec in enumerate(specs):
        result = run_task(
            SuiteTask(index=index, spec=spec, config=session_config,
                      modes=tuple(modes)),
            progress=progress, reraise=not keep_going)
        if result.error is not None:
            report.errors.append(result.error)
        else:
            report.reports.append(result.report)
    return report
