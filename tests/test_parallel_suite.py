"""Sharded suite execution: determinism, error contract, progress."""

import json
import multiprocessing
import os
import pickle

import pytest

from repro.core import LearnConfig
from repro.flow import (
    ATPGConfig,
    ConfigError,
    ReproConfig,
    SuiteError,
    SuiteTask,
    run_suite,
    run_suite_parallel,
)
from repro.flow.parallel_suite import run_task
from repro.flow.session import canonicalize_volatile

#: Worker count exercised by the pool tests.  Clamped to >= 2: these
#: are pool-path tests, and jobs=1 would silently take the serial path
#: and assert nothing about the pool.  CI's base legs therefore run a
#: 2-worker pool; a dedicated matrix leg raises REPRO_SUITE_JOBS to
#: vary the worker count upward.
JOBS = max(2, int(os.environ.get("REPRO_SUITE_JOBS", "2")))

#: Two good circuits, one failing spec, and a duplicate -- small enough
#: that every test stays fast, varied enough to exercise merge order.
SPECS = ["figure1", "s27", "like:nope", "figure1"]


def tiny_config(**overrides):
    return ReproConfig(
        learn=LearnConfig(max_frames=5),
        atpg=ATPGConfig(backtrack_limit=5, max_frames=3, max_faults=10),
        **overrides)


def canonical_bytes(report):
    return json.dumps(report.canonical_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# determinism across worker counts
# ----------------------------------------------------------------------
def test_report_identical_for_jobs_1_2_4():
    reports = {jobs: run_suite(SPECS, config=tiny_config(),
                               modes=("known",), jobs=jobs)
               for jobs in (1, 2, 4)}
    serial = canonical_bytes(reports[1])
    assert canonical_bytes(reports[2]) == serial
    assert canonical_bytes(reports[4]) == serial
    # The failing spec lands in errors (in input order) for every count.
    for report in reports.values():
        assert len(report.reports) == 3
        assert [e["spec"] for e in report.errors] == ["like:nope"]
        assert report.errors[0]["stage"] == "resolve"


def test_all_modes_and_rows_match_serial():
    serial = run_suite(["figure1", "s27"], config=tiny_config(), jobs=1)
    parallel = run_suite(["figure1", "s27"], config=tiny_config(),
                         jobs=JOBS)
    assert canonical_bytes(serial) == canonical_bytes(parallel)
    strip = lambda row: {k: v for k, v in row.items() if k != "cpu_s"}
    assert ([strip(r) for r in serial.rows()]
            == [strip(r) for r in parallel.rows()])


def test_canonical_dict_zeroes_only_timing():
    report = run_suite(["figure1"], config=tiny_config(),
                       modes=("known",))
    raw, canonical = report.to_dict(), report.canonical_dict()
    stage = canonical["reports"][0]["stages"][0]
    assert stage["elapsed_s"] == 0.0
    assert canonical["reports"][0]["atpg"]["known"]["cpu_s"] == 0.0
    # Same schema, same non-timing content.
    detected = raw["reports"][0]["atpg"]["known"]["det"]
    assert canonical["reports"][0]["atpg"]["known"]["det"] == detected
    assert sorted(stage) == sorted(raw["reports"][0]["stages"][0])


# ----------------------------------------------------------------------
# jobs knob
# ----------------------------------------------------------------------
def test_jobs_validation():
    with pytest.raises(ConfigError, match="jobs"):
        ReproConfig(jobs=-1).validate()
    with pytest.raises(ConfigError, match="jobs"):
        ReproConfig.from_dict({"jobs": -2})
    with pytest.raises(ConfigError, match="jobs"):
        run_suite(["figure1"], jobs=-1)
    assert ReproConfig.from_dict({"jobs": 3}).jobs == 3
    assert ReproConfig().to_dict()["jobs"] == 1


def test_jobs_zero_means_cpu_count():
    report = run_suite(["figure1", "s27"], config=tiny_config(),
                       modes=("known",), jobs=0)
    assert len(report.reports) == 2 and not report.errors


def test_config_jobs_drives_dispatch_but_not_reports():
    config = tiny_config(jobs=JOBS)
    report = run_suite(["figure1", "s27"], config=config,
                       modes=("known",))
    # The session-level config is normalized: reports never depend on
    # (or record) the worker count.
    assert all(r["config"]["jobs"] == 1 for r in report.reports)
    serial = run_suite(["figure1", "s27"], config=tiny_config(jobs=1),
                       modes=("known",))
    assert canonical_bytes(serial) == canonical_bytes(report)


# ----------------------------------------------------------------------
# per-circuit failure contract
# ----------------------------------------------------------------------
def test_run_task_catches_arbitrary_failure(monkeypatch):
    import repro.flow.session as session_mod

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(session_mod, "run_atpg", boom)
    result = run_task(SuiteTask(index=0, spec="figure1",
                                config=tiny_config(), modes=("known",)))
    assert result.report is None
    assert result.error == {"spec": "figure1",
                            "error": "engine exploded",
                            "stage": "atpg[known]"}


def test_failing_circuit_object_spec_recorded_by_name(monkeypatch):
    import repro.flow.session as session_mod

    from repro import figure1

    def boom(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr(session_mod, "run_atpg", boom)
    report = run_suite([figure1()], config=tiny_config(),
                       modes=("known",), jobs=1)
    # Not the default object repr (memory address != deterministic).
    assert report.errors[0]["spec"] == "figure1"


def test_serial_keep_going_survives_arbitrary_failure(monkeypatch):
    import repro.flow.session as session_mod

    real_run_atpg = session_mod.run_atpg

    def flaky(circuit, *args, **kwargs):
        if circuit.name == "s27":
            raise RuntimeError("mid-ATPG crash")
        return real_run_atpg(circuit, *args, **kwargs)

    monkeypatch.setattr(session_mod, "run_atpg", flaky)
    report = run_suite(["figure1", "s27"], config=tiny_config(),
                       modes=("known",), jobs=1)
    assert [r["circuit"] for r in report.reports] == ["figure1"]
    assert report.errors == [{"spec": "s27", "error": "mid-ATPG crash",
                              "stage": "atpg[known]"}]
    with pytest.raises(RuntimeError, match="mid-ATPG crash"):
        run_suite(["figure1", "s27"], config=tiny_config(),
                  modes=("known",), jobs=1, keep_going=False)


def test_parallel_keep_going_false_raises_first_by_input_order():
    with pytest.raises(SuiteError, match="like:nope.*resolve"):
        run_suite(["figure1", "like:nope", "like:also_nope"],
                  config=tiny_config(), modes=("known",), jobs=JOBS,
                  keep_going=False)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="crash injection relies on fork inheritance")
def test_worker_death_fails_circuit_not_suite(monkeypatch):
    import repro.flow.parallel_suite as parallel_mod

    real_run_task = parallel_mod.run_task

    def dying(task, progress=None):
        if task.spec == "s27":
            os._exit(17)
        return real_run_task(task, progress)

    monkeypatch.setattr(parallel_mod, "run_task", dying)
    report = run_suite_parallel(["figure1", "s27"], config=tiny_config(),
                                modes=("known",), jobs=2)
    assert [r["circuit"] for r in report.reports] == ["figure1"]
    assert report.errors == [{"spec": "s27",
                              "error": "worker process died while "
                                       "running this circuit",
                              "stage": "worker"}]


# ----------------------------------------------------------------------
# task units and progress aggregation
# ----------------------------------------------------------------------
def test_compile_failure_attributed_to_same_stage_in_both_paths(
        monkeypatch):
    import repro.flow.parallel_suite as parallel_mod

    def bad_warm(circuit):
        raise RuntimeError("kernel lowering failed")

    # One patch point suffices: the serial loop and the pool workers
    # share the same run_task pipeline body.
    monkeypatch.setattr(parallel_mod, "warm_cache", bad_warm)
    serial = run_suite(["figure1"], config=tiny_config(),
                       modes=("known",), jobs=1)
    task = run_task(SuiteTask(index=0, spec="figure1",
                              config=tiny_config(), modes=("known",)))
    assert serial.errors[0] == task.error
    assert serial.errors[0]["stage"] == "resolve"


def test_suite_task_is_picklable():
    task = SuiteTask(index=3, spec="figure1", config=tiny_config(),
                     modes=("none", "known"))
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task


def test_parallel_progress_events_are_aggregated():
    events = []
    run_suite(["figure1", "s27"], config=tiny_config(),
              modes=("known",), jobs=JOBS,
              progress=lambda s, e, p: events.append((s, e, p)))
    starts = [s for s, e, _p in events if e == "start"]
    ends = [(s, p) for s, e, p in events if e == "end"]
    # Per circuit: resolve, learn, atpg[known].
    assert sorted(starts) == sorted(
        ["resolve", "learn", "atpg[known]"] * 2)
    assert len(ends) == 6
    resolved = {p["circuit"] for s, p in ends if s == "resolve"}
    assert resolved == {"figure1", "s27"}


def progress_sequence(specs, jobs):
    """The ``(stage, event, payload)`` stream of one suite run, with
    its timing fields zeroed."""
    events = []
    run_suite(specs, config=tiny_config(), modes=("known",), jobs=jobs,
              progress=lambda s, e, p: events.append(
                  (s, e, canonicalize_volatile(p))))
    return events


def test_pool_progress_sequence_equals_serial():
    # Each worker's recorded events are replayed in input order, so a
    # pool run emits the serial run's exact sequence -- the failing
    # circuit's partial events included.
    specs = ["figure1", "s27", "like:bogus"]
    serial = progress_sequence(specs, 1)
    assert serial[-1] == ("resolve", "start", None)
    assert progress_sequence(specs, JOBS) == serial


def test_pool_progress_starts_no_thread_of_ours(monkeypatch):
    import threading

    started = []
    real_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    events = progress_sequence(["figure1", "s27"], JOBS)
    assert len(events) == 12
    # The pool's own management threads are not ours; no progress
    # relay thread runs beside them.
    assert not [name for name in started if name.startswith("repro")]


def test_throwing_progress_hook_is_ui_only_in_both_paths():
    def hostile(stage, event, payload):
        raise ValueError("bad hook")

    serial = run_suite(["figure1", "s27"], config=tiny_config(),
                       modes=("known",), jobs=1, progress=hostile)
    parallel = run_suite(["figure1", "s27"], config=tiny_config(),
                         modes=("known",), jobs=JOBS, progress=hostile)
    # A broken hook must neither fail circuits nor desync the paths.
    assert len(serial.reports) == 2 and not serial.errors
    assert canonical_bytes(serial) == canonical_bytes(parallel)


def test_unpicklable_spec_fails_its_circuit_only():
    from repro import figure1

    poison = figure1()
    poison.unpicklable = lambda: None
    report = run_suite(["s27", poison], config=tiny_config(),
                       modes=("known",), jobs=JOBS)
    assert [r["circuit"] for r in report.reports] == ["s27"]
    assert len(report.errors) == 1
    assert report.errors[0]["stage"] == "dispatch"
    # Memory addresses in the pickling error are masked; they would
    # differ run to run and break report determinism.
    import re
    assert not re.search(r"0x[0-9a-fA-F]{4,}",
                         report.errors[0]["error"])
    # The serial path never pickles and runs the same spec fine.
    serial = run_suite(["s27", poison], config=tiny_config(),
                       modes=("known",), jobs=1)
    assert len(serial.reports) == 2 and not serial.errors
