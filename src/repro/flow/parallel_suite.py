"""Shard a suite run across a multiprocessing worker pool.

:func:`repro.flow.session.run_suite` walks circuit specs one at a time
on one core; at benchmark-suite scale (learning + ATPG + fault
simulation over many sequential circuits) the circuits are independent,
so the suite is embarrassingly parallel.  This module is the execution
layer behind ``run_suite(jobs=N)`` / ``repro suite --jobs N``:

* :class:`SuiteTask` -- one picklable unit of work: spec index, the
  spec itself (a name string or a :class:`~repro.circuit.netlist.
  Circuit`), the :class:`~repro.flow.config.ReproConfig` and the ATPG
  modes to run.
* :func:`run_task` -- executes one task through a fresh
  :class:`~repro.flow.session.PipelineSession` and *always* returns a
  :class:`SuiteTaskResult`: either the session report or an
  ``{"spec", "error", "stage"}`` record.  A failing circuit never takes
  the suite down.
* :func:`run_suite_parallel` -- the pool driver.  Results are merged by
  input index, so ``SuiteReport.reports`` / ``.errors`` come out in
  spec order and the report content is identical to a serial run for
  every worker count (byte-identical via
  :meth:`~repro.flow.session.SuiteReport.canonical_dict`, which zeroes
  only wall-clock fields).

Progress has one source, the session that ran the stage.  A worker
records its task's ``(stage, event, payload)`` tuples on the
:class:`SuiteTaskResult` it sends back, and the parent replays them
through the caller's :data:`~repro.flow.session.ProgressHook` as it
collects results in input order.  When no worker dies, a pool run
therefore emits exactly the serial run's event sequence -- a task's
events arrive when the task is collected rather than live, and no
queue or thread carries them.

Workers are separate processes, so each warms its *own* compiled-kernel
cache (:func:`repro.sim.compiled.warm_cache`): the exec-generated
kernels are per-process state and are never shipped across the pool.

A worker that dies outright (killed, segfault) breaks the whole pool,
and every in-flight future raises ``BrokenProcessPool`` -- the culprit
circuit and its innocent pool-mates are indistinguishable at that
point.  The driver recovers in two steps: the tainted tasks are first
resubmitted together to one fresh full-width pool (innocents keep
running in parallel), and anything that pool also fails to finish is
retried alone in a single-worker pool -- a task that breaks its own
solo pool is definitively the one that killed it and is recorded as a
per-circuit error with ``stage="worker"``.  A dying worker fails its
circuit, never the suite.  The same per-circuit containment applies to
dispatch failures (``stage="dispatch"``): a spec that cannot be pickled
across the pool -- e.g. a hand-built :class:`Circuit` carrying an
unpicklable attribute -- fails that circuit only (the serial path,
which never pickles, would run it).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.netlist import Circuit
from ..sim.compiled import warm_cache
from .config import ATPG_MODES, ReproConfig, normalize_jobs
from .session import (
    PipelineSession,
    ProgressHook,
    StageTracker,
    SuiteReport,
    error_record,
)


class SuiteError(RuntimeError):
    """First per-circuit failure of a ``keep_going=False`` parallel run.

    The serial path re-raises the original exception as it happens; a
    pool cannot (the failure is a dict shipped back from a worker), so
    it finishes the batch and raises this with the first failing spec --
    first by input order, which is deterministic, unlike completion
    order.
    """


@dataclass(frozen=True)
class SuiteTask:
    """One picklable unit of suite work: one spec through the pipeline."""

    index: int
    spec: Union[str, Circuit]
    config: ReproConfig
    modes: Tuple[str, ...]


@dataclass
class SuiteTaskResult:
    """What a worker sends back: exactly one of report / error is set."""

    index: int
    report: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, str]] = None
    #: The task's progress events, ``(stage, event, payload)`` in the
    #: order the session emitted them (filled in pool workers only; the
    #: serial path delivers them live).
    events: List[Tuple[str, str, Optional[dict]]] = field(
        default_factory=list)


def run_task(task: SuiteTask,
             progress: Optional[ProgressHook] = None,
             reraise: bool = False) -> SuiteTaskResult:
    """Run one task to completion: the whole per-circuit pipeline.

    There is exactly one copy of this body -- pool workers and the
    serial loop in :func:`~repro.flow.session.run_suite` both run it,
    which is what keeps serial and sharded reports (including failure
    stage attribution) byte-identical.  By default a circuit failure is
    returned as an error record, never raised; ``reraise=True`` is the
    serial ``keep_going=False`` contract of propagating the original
    exception (workers never set it -- an exception does not reliably
    survive pickling back to the parent).
    """
    tracker = StageTracker(progress)
    try:
        session = PipelineSession(task.spec, config=task.config,
                                  progress=tracker)
        # Compile kernels before the pipeline hot loops rather than
        # inside the first stage that needs them (a pool worker's cache
        # may start empty).
        warm_cache(session.circuit)
        session.compare(list(task.modes))
        return SuiteTaskResult(index=task.index, report=session.report())
    except Exception as exc:
        if reraise:
            raise
        return SuiteTaskResult(
            index=task.index,
            error=error_record(task.spec, str(exc), tracker.stage))


def _run_task_recorded(task: SuiteTask) -> SuiteTaskResult:
    """Pool entry point: :func:`run_task` with its events recorded."""
    events: List[Tuple[str, str, Optional[dict]]] = []
    result = run_task(
        task, lambda stage, event, payload:
        events.append((stage, event, payload)))
    result.events = events
    return result


def run_suite_parallel(specs: Sequence[Union[str, Circuit]],
                       config: Optional[ReproConfig] = None,
                       modes: Sequence[str] = ATPG_MODES,
                       progress: Optional[ProgressHook] = None,
                       keep_going: bool = True,
                       jobs: int = 0) -> SuiteReport:
    """Run the suite sharded over ``jobs`` worker processes.

    Same contract as :func:`~repro.flow.session.run_suite` with two
    parallel-specific notes: ``jobs=0`` means one worker per CPU core,
    and with ``keep_going=False`` the batch still runs to completion
    before the first failure (by input order) is raised as
    :class:`SuiteError`.
    """
    config = (config or ReproConfig()).validate()
    # ReproConfig.validate is the single source of the jobs rule;
    # normalize_jobs the single copy of the 0 -> all-cores expansion.
    jobs = normalize_jobs(replace(config, jobs=jobs).validate().jobs)
    config = replace(config, jobs=1)
    modes = tuple(modes)
    tasks = [SuiteTask(index=index, spec=spec, config=config, modes=modes)
             for index, spec in enumerate(specs)]

    ctx = multiprocessing.get_context()
    # Replayed events pass through a tracker so a throwing hook stays
    # UI-only, exactly as on the serial path.
    replay = StageTracker(progress)
    results: Dict[int, SuiteTaskResult] = {}

    def dispatch_error(task: SuiteTask, exc: BaseException) -> None:
        # The worker catches pipeline failures itself, so anything that
        # surfaces on the future besides a broken pool is a dispatch
        # problem -- typically an unpicklable spec.  It fails this
        # circuit only.
        results[task.index] = SuiteTaskResult(
            index=task.index,
            error=error_record(task.spec, str(exc), "dispatch"))

    def run_batch(batch: List[SuiteTask],
                  workers: int) -> List[SuiteTask]:
        """Run a batch in one fresh pool; return the tasks a pool break
        left unresolved (culprit and innocent alike), in input order."""
        tainted: List[SuiteTask] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(batch)),
                                 mp_context=ctx) as pool:
            futures = []
            for task in batch:
                try:
                    futures.append(
                        (pool.submit(_run_task_recorded, task), task))
                except BrokenProcessPool:
                    tainted.append(task)
                except Exception as exc:
                    dispatch_error(task, exc)
            for future, task in futures:
                try:
                    result = future.result()
                except BrokenProcessPool:
                    tainted.append(task)
                    continue
                except Exception as exc:
                    dispatch_error(task, exc)
                    continue
                results[task.index] = result
                for stage, event, payload in result.events:
                    replay(stage, event, payload)
        return sorted(tainted, key=lambda task: task.index)

    suspects = run_batch(tasks, jobs) if tasks else []
    if suspects:
        # One wide retry first: a single death taints every in-flight
        # pool-mate, and most of those are innocents that should keep
        # running in parallel, not one-at-a-time.
        suspects = run_batch(suspects, jobs)
    # Whatever a fresh pool still could not finish gets a solo
    # single-worker pool: a task that breaks its own pool is
    # definitively the one that killed it.
    for task in suspects:
        if run_batch([task], 1):
            results[task.index] = SuiteTaskResult(
                index=task.index,
                error=error_record(
                    task.spec,
                    "worker process died while running this circuit",
                    "worker"))

    report = SuiteReport()
    first_error: Optional[Dict[str, str]] = None
    for task in tasks:
        result = results[task.index]
        if result.error is not None:
            if first_error is None:
                first_error = result.error
            report.errors.append(dict(result.error))
        else:
            report.reports.append(result.report)
    if first_error is not None and not keep_going:
        raise SuiteError(
            f"{first_error['spec']} failed during {first_error['stage']}: "
            f"{first_error['error']}")
    return report
