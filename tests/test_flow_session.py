"""Pipeline session: stage caching, legacy equivalence, suites."""

import pytest

from repro import LearnConfig, figure1, learn, run_atpg, s27
from repro.flow import (
    ATPGConfig,
    CircuitResolveError,
    ConfigError,
    PipelineSession,
    ReproConfig,
    resolve_circuit,
    run_suite,
)


def _comparable(stats):
    """ATPG outcome fields that must be reproducible run-to-run."""
    return {f: getattr(stats, f)
            for f in ("circuit", "mode", "backtrack_limit", "total_faults",
                      "detected", "untestable", "aborted", "collateral",
                      "decisions", "backtracks", "sequences_total")}


# ----------------------------------------------------------------------
# resolve stage
# ----------------------------------------------------------------------
def test_resolve_circuit_specs():
    assert resolve_circuit("figure1").name == "figure1"
    assert resolve_circuit("like:s382@0.5").num_ffs == 10
    circuit = figure1()
    assert resolve_circuit(circuit) is circuit


def test_resolve_circuit_errors():
    with pytest.raises(CircuitResolveError, match="cannot read bench"):
        resolve_circuit("/no/such/file.bench")
    with pytest.raises(CircuitResolveError, match="unknown profile"):
        resolve_circuit("like:not_a_profile")
    with pytest.raises(CircuitResolveError, match="bad scale"):
        resolve_circuit("like:s382@huge")


# ----------------------------------------------------------------------
# stage equivalence with the legacy free-function path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [figure1, s27],
                         ids=["figure1", "s27"])
def test_session_matches_legacy_path(make):
    circuit = make()
    legacy_learned = learn(circuit, LearnConfig())

    session = PipelineSession(make())
    learned = session.learn()
    legacy_summary = dict(legacy_learned.summary())
    summary = dict(learned.summary())
    legacy_summary.pop("cpu_s")
    summary.pop("cpu_s")
    assert summary == legacy_summary

    for mode in ("none", "forbidden", "known"):
        legacy = run_atpg(circuit,
                          learned=None if mode == "none" else legacy_learned,
                          config=ATPGConfig(mode=mode))
        assert _comparable(session.atpg(mode)) == _comparable(legacy)


def test_session_stage_caching_and_progress():
    events = []
    session = PipelineSession("figure1",
                      progress=lambda s, e, p: events.append((s, e)))
    first = session.learn()
    assert session.learn() is first          # cached, no rerun
    session.atpg("known")
    session.atpg("known")                    # cached per mode
    stages = [record.stage for record in session.records]
    assert stages == ["resolve", "learn", "atpg[known]"]
    assert events == [("resolve", "start"), ("resolve", "end"),
                      ("learn", "start"), ("learn", "end"),
                      ("atpg[known]", "start"), ("atpg[known]", "end")]
    with pytest.raises(ConfigError, match="mode"):
        session.atpg("bogus")


def test_session_artifact_round_trip(tmp_path):
    path = tmp_path / "art.json"
    producer = PipelineSession("figure1")
    producer.save_learned(path)
    fresh_stats = producer.atpg("forbidden")

    consumer = PipelineSession("figure1")
    consumer.load_learned(path)
    # No learn-from-scratch stage ran: the learn record is artifact-backed.
    learn_records = [r for r in consumer.records if r.stage == "learn"]
    assert len(learn_records) == 1
    assert learn_records[0].summary["artifact"] == str(path)
    assert _comparable(consumer.atpg("forbidden")) \
        == _comparable(fresh_stats)


def test_attach_learned_rejects_other_circuit():
    session = PipelineSession("figure1")
    other = learn(s27())
    with pytest.raises(CircuitResolveError):
        session.attach_learned(other)


def test_untestable_screen_reuses_learning():
    session = PipelineSession("figure1")
    comparison = session.untestable_screen()
    assert comparison.tie_gate_untestable >= 1
    stages = [record.stage for record in session.records]
    assert stages.count("learn") == 1


# ----------------------------------------------------------------------
# sequences opt-in and fault-sim stage
# ----------------------------------------------------------------------
def test_keep_sequences_opt_in():
    lean = PipelineSession("figure1").atpg("known")
    assert lean.sequences == [] and lean.sequences_total > 0
    assert lean.row()["sequences"] == lean.sequences_total

    config = ReproConfig(atpg=ATPGConfig(keep_sequences=True))
    session = PipelineSession("figure1", config)
    full = session.atpg("known")
    assert len(full.sequences) == full.sequences_total
    assert _comparable(full) == _comparable(lean)
    # Kept vectors reach the report; a lean report has no section.
    assert session.report()["vectors"] == {"known": full.sequences}
    lean_session = PipelineSession("figure1")
    lean_session.atpg("known")
    assert "vectors" not in lean_session.report()


def test_fault_sim_stage():
    config = ReproConfig(atpg=ATPGConfig(mode="known",
                                         keep_sequences=True))
    session = PipelineSession("figure1", config)
    stats = session.atpg()
    grade = session.fault_sim()
    assert grade is session.fault_sim()      # cached
    assert grade["sequences"] == stats.sequences_total
    assert grade["detected"] >= stats.detected
    assert grade["detected"] <= grade["total_faults"]

    lean = PipelineSession("figure1")
    lean.atpg("known")
    with pytest.raises(ConfigError, match="keep_sequences"):
        lean.fault_sim("known")


# ----------------------------------------------------------------------
# report and suites
# ----------------------------------------------------------------------
def test_session_report_is_json_ready():
    import json

    session = PipelineSession("figure1")
    session.compare(("none", "known"))
    report = json.loads(json.dumps(session.report()))
    assert report["circuit"] == "figure1"
    assert set(report["atpg"]) == {"none", "known"}
    assert any(r["stage"] == "learn" for r in report["stages"])


def test_run_suite():
    report = run_suite(["figure1", "s27"], modes=("none", "known"))
    assert len(report.reports) == 2
    rows = report.rows()
    assert len(rows) == 4
    assert {row["circuit"] for row in rows} == {"figure1", "s27"}
    payload = report.to_dict()
    assert payload["circuits"] == 2 and payload["errors"] == []


def test_run_suite_keeps_going_on_bad_spec(tmp_path):
    report = run_suite(["figure1", "like:nope"], modes=("known",))
    assert len(report.reports) == 1
    assert len(report.errors) == 1
    assert "unknown profile" in report.errors[0]["error"]
    out = tmp_path / "suite.json"
    report.save(out)
    assert out.exists()
    with pytest.raises(CircuitResolveError):
        run_suite(["like:nope"], modes=("known",), keep_going=False)


def test_suite_report_save_is_atomic_and_canonical(tmp_path, monkeypatch):
    import json

    import repro.flow.serialize as serialize_mod

    report = run_suite(["figure1"], modes=("known",))
    out = tmp_path / "suite.json"
    report.save(out)
    before = out.read_text()

    def exploding_dump(payload, handle, **kwargs):
        handle.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(serialize_mod.json, "dump", exploding_dump)
    with pytest.raises(OSError, match="disk full"):
        report.save(out)
    monkeypatch.undo()
    # Crash mid-write: previous report intact, temp file cleaned up.
    assert out.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]

    report.save(out, canonical=True)
    with open(out) as handle:
        saved = json.load(handle)
    assert saved["reports"][0]["stages"][0]["elapsed_s"] == 0.0
    assert saved["reports"][0]["atpg"]["known"]["cpu_s"] == 0.0
