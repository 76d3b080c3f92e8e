"""``repro.api.execute``: envelopes, errors, events, store reuse.

The redesign's core promises checked here:

* every request kind runs through the one entrypoint and returns the
  versioned envelope;
* responses agree with the pre-API ``PipelineSession`` reports;
* failures come back as coded error envelopes, never raw tracebacks;
* a store-warmed run is canonically byte-identical to a cold one.
"""

import dataclasses
import json
import warnings

import pytest

from repro.api import (
    SCHEMA_VERSION,
    ATPGRequest,
    AnalyzeRequest,
    ArtifactStore,
    CompareRequest,
    FaultSimRequest,
    LearnRequest,
    ListRequest,
    ProgressEvent,
    ResultEvent,
    StageEvent,
    StatsRequest,
    SuiteRequest,
    UntestableRequest,
    execute,
)
from repro.core import LearnConfig
from repro.flow import ATPGConfig, PipelineSession, ReproConfig


def tiny_config(**kwargs) -> ReproConfig:
    return ReproConfig(learn=LearnConfig(max_frames=5),
                       atpg=ATPGConfig(backtrack_limit=5, max_frames=3,
                                       **kwargs))


# ----------------------------------------------------------------------
# envelopes agree with the pipeline engine
# ----------------------------------------------------------------------
def test_learn_envelope_matches_pipeline_session():
    config = tiny_config()
    response = execute(LearnRequest(spec="figure1", config=config))
    assert response.ok and response.exit_code == 0
    envelope = response.envelope()
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert envelope["command"] == "learn" and envelope["ok"] is True

    session = PipelineSession("figure1",
                              config=dataclasses.replace(config))
    session.learn()
    expected = session.report()
    for key in ("circuit", "fingerprint", "config"):
        assert envelope[key] == expected[key]
    observed_learn = {k: v for k, v in envelope["learn"].items()
                      if k != "cpu_s"}
    assert observed_learn == {k: v for k, v in expected["learn"].items()
                              if k != "cpu_s"}
    assert [s["stage"] for s in envelope["stages"]] == \
        [s["stage"] for s in expected["stages"]]


def test_atpg_envelope_matches_pipeline_session():
    config = tiny_config()
    response = execute(ATPGRequest(spec="figure1", config=config,
                                   modes=("none", "known")))
    session = PipelineSession("figure1",
                              config=dataclasses.replace(config))
    session.learn()
    session.compare(["none", "known"])
    expected = session.report()
    result = response.result
    assert set(result["atpg"]) == {"none", "known"}
    for mode in ("none", "known"):
        observed = {k: v for k, v in result["atpg"][mode].items()
                    if k != "cpu_s"}
        reference = {k: v for k, v in expected["atpg"][mode].items()
                     if k != "cpu_s"}
        assert observed == reference


def test_dict_config_on_a_typed_request():
    """A plain-dict ``config`` runs as the equivalent ReproConfig; a
    bad one is a ``config`` error envelope."""
    response = execute(ATPGRequest(
        spec="s27", modes=("none",), canonical=True,
        config={"atpg": {"backtrack_limit": 5}}))
    assert response.ok
    typed = execute(ATPGRequest(
        spec="s27", modes=("none",), canonical=True,
        config=ReproConfig(atpg=ATPGConfig(backtrack_limit=5))))
    assert response.to_json() == typed.to_json()

    bad = execute(ATPGRequest(spec="s27",
                              config={"atpg": {"no_such_knob": 5}}))
    assert not bad.ok
    assert bad.error["code"] == "config"


def test_untestable_and_stats_and_analyze_and_list():
    config = tiny_config()
    untestable = execute(UntestableRequest(spec="figure1",
                                           config=config))
    assert untestable.ok
    assert set(untestable.result["untestable"]) == \
        {"circuit", "total", "tie_gates", "fires"}

    stats = execute(StatsRequest(spec="figure1"))
    assert stats.result["ffs"] == 6
    assert len(stats.result["fingerprint"]) == 64

    analyze = execute(AnalyzeRequest(spec="figure1"))
    assert 0 < analyze.result["density_of_encoding"] <= 1

    listing = execute(ListRequest())
    assert "figure1" in listing.result["circuits"]


def test_faultsim_grades_generated_tests():
    # keep_sequences is forced by the executor (grading needs the
    # vectors), so the default request works on every surface; the
    # report echoes the effective config.
    response = execute(FaultSimRequest(
        spec="figure1", config=tiny_config(), modes=("known",)))
    assert response.ok
    assert response.result["config"]["atpg"]["keep_sequences"] is True
    grade = response.result["fault_sim"]["known"]
    assert grade["total_faults"] > 0
    assert 0 <= grade["fault_coverage_%"] <= 100


def test_compare_sweeps_modes_and_limits():
    response = execute(CompareRequest(spec="figure1",
                                      config=tiny_config(),
                                      backtrack_limits=(3, 5)))
    assert response.ok
    rows = response.result["compare"]["rows"]
    assert len(rows) == 6  # 2 limits x 3 modes
    assert [row["backtrack_limit"] for row in rows] == [3] * 3 + [5] * 3
    assert {row["mode"] for row in rows} == {"none", "forbidden",
                                             "known"}


def test_suite_request_runs_and_flags_errors():
    response = execute(SuiteRequest(specs=("figure1", "like:nope"),
                                    config=tiny_config(),
                                    modes=("known",)))
    assert response.ok  # per-circuit failures are data, not a failure
    assert response.exit_code == 1
    assert response.result["circuits"] == 1
    assert response.result["errors"][0]["stage"] == "resolve"


# ----------------------------------------------------------------------
# error envelopes
# ----------------------------------------------------------------------
def test_resolve_error_envelope():
    response = execute(ATPGRequest(spec="like:nope",
                                   config=tiny_config()))
    assert not response.ok and response.exit_code == 1
    assert response.error["code"] == "resolve"
    assert response.error["stage"] == "resolve"
    assert "unknown profile" in response.error["message"]
    envelope = response.envelope()
    assert envelope["ok"] is False and "error" in envelope


def test_parse_error_envelope_from_dict():
    response = execute({"kind": "atpg", "nope": 1})
    assert not response.ok
    assert response.error["code"] == "parse"
    assert response.error["stage"] == "parse"


def test_config_error_envelope():
    response = execute({"kind": "atpg", "spec": "s27",
                        "config": {"atpg": {"backtrack_limit": 0}}})
    assert not response.ok
    assert response.error["code"] == "config"


@pytest.mark.parametrize("case", [
    ("atpg", {"backtrack_limit": "x"}),
    ("atpg", {"sim_width": "wide"}),
    ("atpg", {"max_frames": None}),
    ("atpg", {"max_faults": 2.5}),
    ("atpg", {"sim_width": True}),
    # Schema version 9 removed the backend and engine selectors.
    ("atpg", {"sim_backend": "array"}),
    ("atpg", {"atpg_engine": "reference"}),
    ("learn", {"equivalence_width": -5}),
    ("learn", {"equivalence_width": 0}),
    ("learn", {"equivalence_max_support": -1}),
    ("learn", {"multi_node_max_targets": 0}),
], ids=lambda case: "-".join(f"{k}={v}" for k, v in case[1].items()))
def test_malformed_config_value_is_config_error(case):
    """A mistyped, out-of-range or unknown value fails validation as a
    ``config`` error naming the field, never as an ``engine`` error
    from deep inside the run (schema version 7 removed ``sim_width``,
    so it is an unknown key)."""
    section, values = case
    response = execute({"kind": "atpg", "spec": "s27",
                        "config": {section: values}})
    assert not response.ok
    assert response.error["code"] == "config"
    assert next(iter(values)) in response.error["message"]


def test_stale_artifact_error_envelope(tmp_path):
    artifact = str(tmp_path / "art.json")
    assert execute(LearnRequest(spec="figure1", config=tiny_config(),
                                save=artifact)).ok
    response = execute(ATPGRequest(spec="s27", config=tiny_config(),
                                   learned=artifact))
    assert not response.ok
    assert response.error["code"] == "artifact"
    assert response.error["stage"] == "learn"
    assert "does not match" in response.error["message"]


def test_pre_v7_artifact_is_an_unsupported_version(tmp_path):
    """An artifact saved before the width knobs were removed (artifact
    format 1, its learning config still naming them) fails as an
    unsupported version, not as a malformed payload."""
    artifact = tmp_path / "old.json"
    assert execute(LearnRequest(spec="figure1", config=tiny_config(),
                                save=str(artifact))).ok
    data = json.loads(artifact.read_text())
    data["version"] = 1
    data["config"].update(signature_width=None,
                          single_node_batch_width=None)
    artifact.write_text(json.dumps(data))
    response = execute(ATPGRequest(spec="figure1", config=tiny_config(),
                                   learned=str(artifact)))
    assert not response.ok
    assert response.error["code"] == "artifact"
    assert "unsupported artifact version" in response.error["message"]


def test_engine_error_envelope(monkeypatch):
    import repro.flow.session as session_mod

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(session_mod, "run_atpg", boom)
    response = execute(ATPGRequest(spec="figure1", config=tiny_config(),
                                   modes=("none",)))
    assert not response.ok
    assert response.error["code"] == "engine"
    assert response.error["stage"] == "atpg[none]"
    assert response.error["message"] == "engine exploded"


# ----------------------------------------------------------------------
# event stream
# ----------------------------------------------------------------------
def test_event_stream_progress_stage_result():
    events = []
    response = execute(ATPGRequest(spec="figure1", config=tiny_config(),
                                   modes=("known",)),
                       events=events.append)
    kinds = [type(event).__name__ for event in events]
    assert kinds[-1] == "ResultEvent"
    stages = [e.stage for e in events if isinstance(e, StageEvent)]
    assert stages == ["resolve", "learn", "atpg[known]"]
    progress = [e for e in events if isinstance(e, ProgressEvent)]
    # Progress comes only from the stages the session ran: each stage
    # starts, (maybe) ticks and ends, in order, and nothing else fires.
    assert list(dict.fromkeys(e.stage for e in progress)) == stages
    assert [e.stage for e in progress if e.status == "start"] == stages
    assert [e.stage for e in progress if e.status == "end"] == stages
    ticks = [e for e in progress if e.status == "tick"]
    assert ticks and all(e.payload["done"] <= e.payload["total"]
                         for e in ticks)
    result_event = events[-1]
    assert isinstance(result_event, ResultEvent)
    assert result_event.envelope == response.envelope()
    # Events are JSON-serializable by contract.
    for event in events:
        json.dumps(event.to_dict())


def test_throwing_event_sink_does_not_affect_result():
    def bad_sink(event):
        raise RuntimeError("sink down")

    quiet = execute(LearnRequest(spec="figure1", config=tiny_config(),
                                 canonical=True))
    noisy = execute(LearnRequest(spec="figure1", config=tiny_config(),
                                 canonical=True), events=bad_sink)
    assert noisy.to_json() == quiet.to_json()


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def test_store_hit_is_canonically_byte_identical_to_cold_run():
    store = ArtifactStore()
    request = ATPGRequest(spec="figure1", config=tiny_config(),
                          canonical=True)
    cold = execute(request, store=store)
    assert store.stats()["puts"] == 1 and store.stats()["misses"] == 1
    warm = execute(request, store=store)
    assert store.stats()["memory_hits"] == 1
    assert warm.to_json() == cold.to_json()
    # And identical to a store-less one-shot run.
    assert execute(request).to_json() == cold.to_json()


def test_disk_store_survives_processes(tmp_path):
    config = tiny_config()
    request = LearnRequest(spec="figure1", config=config,
                           canonical=True)
    first = ArtifactStore(root=str(tmp_path))
    cold = execute(request, store=first)
    # A different store object over the same root: disk hit, no relearn.
    second = ArtifactStore(root=str(tmp_path))
    warm = execute(request, store=second)
    assert second.stats()["disk_hits"] == 1
    assert second.stats()["puts"] == 0
    assert warm.to_json() == cold.to_json()


def test_learn_save_stamps_digest(tmp_path):
    artifact = tmp_path / "art.json"
    response = execute(LearnRequest(spec="figure1", config=tiny_config(),
                                    save=str(artifact)))
    payload = json.loads(artifact.read_text())
    assert payload["digest"] == response.result["learn_digest"]


# ----------------------------------------------------------------------
# the pipeline session
# ----------------------------------------------------------------------
def test_pipeline_session_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = PipelineSession("figure1", config=tiny_config())
    assert session.circuit.name == "figure1"


def test_store_write_failure_does_not_fail_the_request(monkeypatch):
    store = ArtifactStore()

    def full_disk(digest, result):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "put_learn", full_disk)
    response = execute(LearnRequest(spec="figure1",
                                    config=tiny_config()), store=store)
    assert response.ok  # learning succeeded; the cache write is best-effort


def test_store_memory_layer_is_lru_bounded():
    store = ArtifactStore()
    store.MEMORY_CAP = 2
    learned = execute(LearnRequest(spec="figure1",
                                   config=tiny_config()), store=store)
    assert learned.ok
    for spec in ("s27", "figure2"):
        assert execute(LearnRequest(spec=spec, config=tiny_config()),
                       store=store).ok
    assert store.stats()["memory_entries"] == 2  # figure1 evicted
