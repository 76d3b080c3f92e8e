"""JSON artifact round-trips for learning results.

The load-bearing properties: (1) a saved-then-loaded LearnResult carries
exactly the same relations/ties/equivalences and still passes the
Monte-Carlo soundness oracle; (2) an artifact never binds to a circuit
whose structural fingerprint differs.
"""

import json

import pytest

from repro import figure1, learn, s27
from repro.circuit import equivalence_demo, figure2
from repro.flow import (
    ArtifactError,
    StaleArtifactError,
    circuit_fingerprint,
    learn_result_from_dict,
    learn_result_to_dict,
    load_learn_result,
    save_learn_result,
)

CIRCUITS = [figure1, figure2, s27, equivalence_demo]


def _relation_keys(result):
    return {r.key() for r in result.relations}


@pytest.mark.parametrize("make", CIRCUITS,
                         ids=[c.__name__ for c in CIRCUITS])
def test_learn_result_json_round_trip(make):
    circuit = make()
    result = learn(circuit)
    # Through real JSON text, not just dicts.
    data = json.loads(json.dumps(learn_result_to_dict(result)))
    loaded = learn_result_from_dict(data, circuit)

    assert _relation_keys(loaded) == _relation_keys(result)
    assert {(t.nid, t.value, t.sequential, t.warmup)
            for t in loaded.ties.all()} \
        == {(t.nid, t.value, t.sequential, t.warmup)
            for t in result.ties.all()}
    assert loaded.equivalences == result.equivalences
    assert loaded.config == result.config
    assert loaded.counts() == result.counts()
    assert loaded.phase_times == result.phase_times
    assert loaded.multi_stats == result.multi_stats
    # The soundness oracle must still find zero violations.
    assert loaded.validate(n_sequences=20) == []


def test_relation_provenance_survives():
    result = learn(figure1())
    data = learn_result_to_dict(result)
    loaded = learn_result_from_dict(data, figure1())
    by_key = {r.key(): r for r in loaded.relations}
    for relation in result.relations:
        twin = by_key[relation.key()]
        assert twin.source == relation.source
        assert twin.sequential == relation.sequential
        assert twin.warmup == relation.warmup


def test_fingerprint_mismatch_rejected():
    result = learn(figure1())
    data = learn_result_to_dict(result)
    with pytest.raises(StaleArtifactError, match="does not match"):
        learn_result_from_dict(data, s27())


def test_fingerprint_stable_and_structural():
    assert circuit_fingerprint(figure1()) == circuit_fingerprint(figure1())
    assert circuit_fingerprint(figure1()) != circuit_fingerprint(s27())
    renamed = figure1()
    renamed.name = "renamed_copy"
    assert circuit_fingerprint(renamed) == circuit_fingerprint(figure1())


def test_bad_header_rejected():
    result = learn(figure1())
    data = learn_result_to_dict(result)
    with pytest.raises(ArtifactError, match="version"):
        learn_result_from_dict({**data, "version": 999}, figure1())
    with pytest.raises(ArtifactError, match="format"):
        learn_result_from_dict({**data, "format": "other"}, figure1())


def test_save_load_file(tmp_path):
    circuit = figure1()
    result = learn(circuit)
    path = tmp_path / "figure1.learn.json"
    save_learn_result(result, path)
    loaded = load_learn_result(path, figure1())
    assert loaded.counts() == result.counts()
    assert len(loaded.ties) == len(result.ties)

    path.write_text("not json {")
    with pytest.raises(ArtifactError, match="JSON"):
        load_learn_result(path, circuit)


def test_malformed_payload_raises_artifact_error():
    circuit = figure1()
    result = learn(circuit)
    data = learn_result_to_dict(result)
    with pytest.raises(ArtifactError, match="unknown"):
        learn_result_from_dict(
            {**data, "config": {"typo_key": 1}}, circuit)
    with pytest.raises(ArtifactError, match="circuit"):
        learn_result_from_dict(
            {k: v for k, v in data.items() if k != "circuit"}, circuit)
    tampered = json.loads(json.dumps(data))
    tampered["relations"][0]["a"] = "NOT_A_NODE"
    with pytest.raises(ArtifactError, match="node"):
        learn_result_from_dict(tampered, circuit)


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def test_save_learn_result_is_atomic(tmp_path, monkeypatch):
    import repro.flow.serialize as serialize_mod
    from repro.flow import write_json_atomic

    result = learn(figure1())
    path = tmp_path / "figure1.learn.json"
    save_learn_result(result, path)
    before = path.read_text()

    def exploding_dump(payload, handle, **kwargs):
        handle.write('{"half": ')
        raise OSError("disk full")

    monkeypatch.setattr(serialize_mod.json, "dump", exploding_dump)
    with pytest.raises(OSError, match="disk full"):
        save_learn_result(result, path)
    monkeypatch.undo()

    # The interrupted write left the previous artifact untouched and
    # cleaned up its temp file.
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    load_learn_result(path, figure1())

    # And write_json_atomic creates fresh files too (no pre-existing
    # target required for os.replace).
    fresh = tmp_path / "fresh.json"
    write_json_atomic(fresh, {"ok": True})
    assert json.loads(fresh.read_text()) == {"ok": True}


def test_write_json_atomic_honors_umask(tmp_path):
    import os

    from repro.flow import write_json_atomic

    old_umask = os.umask(0o022)
    try:
        path = tmp_path / "perms.json"
        write_json_atomic(path, {"x": 1})
        # Same permissions a plain open(path, "w") would have given,
        # not mkstemp's owner-only 0600.
        assert (path.stat().st_mode & 0o777) == 0o644
    finally:
        os.umask(old_umask)


def test_digest_stamped_artifact_round_trip(tmp_path):
    from repro.flow import load_learn_result, save_learn_result

    circuit = figure1()
    result = learn(circuit)
    path = tmp_path / "stamped.json"
    save_learn_result(result, path, digest="d" * 64)
    assert json.loads(path.read_text())["digest"] == "d" * 64

    # Matching (or unchecked) digests load fine.
    load_learn_result(path, circuit)
    load_learn_result(path, circuit, expect_digest="d" * 64)

    # A digest mismatch means a different learning config produced the
    # artifact: stale, loudly.
    with pytest.raises(StaleArtifactError, match="different learning"):
        load_learn_result(path, circuit, expect_digest="e" * 64)

    # Unstamped artifacts keep working under expect_digest (the
    # pre-digest format falls back to the fingerprint-only check).
    bare = tmp_path / "bare.json"
    save_learn_result(result, bare)
    load_learn_result(bare, circuit, expect_digest="e" * 64)
