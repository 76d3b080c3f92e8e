"""Request objects: round-trip, digests, strict parsing, API surface.

Two golden contracts live here:

* ``tests/data/api_schema_golden.json`` -- the key/type skeleton of
  every request kind's ``to_dict()`` form (regenerate intentionally
  with ``REPRO_UPDATE_GOLDEN=1``, review the diff);
* ``tests/data/api_manifest.json`` -- the public surface
  ``repro.api.__all__``; additions/removals must update the manifest
  in the same change.
"""

import json
import os
from dataclasses import fields

import pytest

import repro.api as api
from repro.api import (
    SCHEMA_VERSION,
    ATPGRequest,
    AnalyzeRequest,
    CompareRequest,
    FaultSimRequest,
    LearnRequest,
    ListRequest,
    REQUEST_KINDS,
    RequestError,
    StatsRequest,
    SuiteRequest,
    UntestableRequest,
    execute,
    learn_digest,
    request_from_dict,
)
from repro.core import LearnConfig
from repro.flow import ATPGConfig, ConfigError, ReproConfig
from repro.flow.session import resolve_circuit

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SCHEMA_GOLDEN = os.path.join(DATA_DIR, "api_schema_golden.json")
MANIFEST = os.path.join(DATA_DIR, "api_manifest.json")

#: One representative (non-default where it matters) of each kind.
EXAMPLES = {
    "learn": LearnRequest(spec="figure1", validate_sequences=5,
                          save="art.json", details=True),
    "untestable": UntestableRequest(spec="figure1"),
    "atpg": ATPGRequest(spec="s27", modes=("none", "known"),
                        learned="art.json", canonical=True),
    "faultsim": FaultSimRequest(spec="s27", modes=("known",)),
    "suite": SuiteRequest(specs=("figure1", "s27"), modes=("known",),
                          out="suite.json", canonical=True),
    "compare": CompareRequest(spec="figure1",
                              backtrack_limits=(5, 10)),
    "stats": StatsRequest(spec="figure1"),
    "analyze": AnalyzeRequest(spec="figure1", max_ffs=8),
    "list": ListRequest(),
}


# ----------------------------------------------------------------------
# round-trip + canonical JSON
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(EXAMPLES))
def test_round_trip_through_canonical_json(kind):
    request = EXAMPLES[kind]
    rebuilt = request_from_dict(json.loads(request.to_canonical_json()))
    assert type(rebuilt) is type(request)
    assert rebuilt == request
    # Canonical form is a fixpoint: round-tripping changes nothing.
    assert rebuilt.to_canonical_json() == request.to_canonical_json()


def test_every_kind_is_registered():
    assert sorted(REQUEST_KINDS) == sorted(EXAMPLES)
    for kind, cls in REQUEST_KINDS.items():
        assert cls.KIND == kind


def test_to_dict_carries_kind_and_version():
    payload = EXAMPLES["atpg"].to_dict()
    assert payload["kind"] == "atpg"
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["modes"] == ["none", "known"]  # tuples -> lists
    assert isinstance(payload["config"], dict)


# ----------------------------------------------------------------------
# strict parsing
# ----------------------------------------------------------------------
def test_unknown_kind_rejected():
    with pytest.raises(RequestError, match="unknown request kind"):
        request_from_dict({"kind": "frobnicate"})


def test_missing_kind_rejected():
    with pytest.raises(RequestError, match="missing 'kind'"):
        request_from_dict({"spec": "figure1"})


def test_unknown_field_rejected():
    with pytest.raises(RequestError, match="unknown LearnRequest"):
        request_from_dict({"kind": "learn", "spec": "figure1",
                           "tpyo": 1})


def test_wrong_schema_version_rejected():
    with pytest.raises(RequestError, match="schema_version"):
        request_from_dict({"kind": "learn", "spec": "figure1",
                           "schema_version": SCHEMA_VERSION + 1})


def test_bad_config_value_is_config_error():
    # Schema version 9 removed sim_backend: it is an unknown key.
    with pytest.raises(ConfigError, match="sim_backend"):
        request_from_dict({"kind": "atpg", "spec": "s27",
                           "config": {"atpg": {"sim_backend": "gpu"}}})


@pytest.mark.parametrize("kind", sorted(REQUEST_KINDS))
def test_removed_priority_field_is_a_parse_error(kind):
    """Schema version 9 removed the admission class: the daemon has one
    FIFO queue, so ``priority`` is an unknown field on every kind."""
    assert "priority" not in {f.name for f in
                              fields(REQUEST_KINDS[kind])}
    response = execute({"kind": kind, "priority": "interactive"})
    assert not response.ok
    assert response.error["code"] == "parse"
    assert "priority" in response.error["message"]


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        ATPGRequest(spec="s27", modes=("bogus",)).validate()


def test_empty_suite_rejected():
    with pytest.raises(RequestError, match="non-empty"):
        SuiteRequest(specs=()).validate()


def test_non_dict_rejected():
    with pytest.raises(RequestError, match="JSON object"):
        request_from_dict(["kind", "learn"])


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
#: Pinned digest of the all-defaults ReproConfig.  If this assertion
#: fires, the canonical config form changed -- every cross-run cache
#: key changes with it.  That can be a deliberate, reviewed event
#: (update the pin); it must never be a drive-by.
PINNED_DEFAULT_CONFIG_DIGEST = (
    "8c4f4b858656c22c626551e262b1310292e3c384f88006e169ba7571eff78269")


def test_default_config_digest_is_pinned():
    assert ReproConfig().config_digest() == PINNED_DEFAULT_CONFIG_DIGEST


def test_canonical_config_json_sorted_and_materialized():
    payload = json.loads(ReproConfig().to_canonical_json())
    assert list(payload) == sorted(payload)
    # Defaults are materialized: every ATPGConfig field is present.
    assert payload["atpg"]["fill_seed"] == 12345
    assert json.loads(ATPGConfig().to_canonical_json())[
        "backtrack_limit"] == 30


def test_config_digest_ignores_jobs():
    assert (ReproConfig(jobs=1).config_digest()
            == ReproConfig(jobs=8).config_digest())
    assert (ReproConfig().config_digest()
            != ReproConfig(retime=1).config_digest())


def test_request_digest_binds_circuit_kind_and_config():
    figure1 = resolve_circuit("figure1")
    s27 = resolve_circuit("s27")
    base = ATPGRequest(spec="figure1")
    assert base.config_digest(figure1) == base.config_digest(figure1)
    assert base.config_digest(figure1) != base.config_digest(s27)
    assert (base.config_digest(figure1)
            != LearnRequest(spec="figure1").config_digest(figure1))
    tweaked = ATPGRequest(spec="figure1", config=ReproConfig(
        atpg=ATPGConfig(backtrack_limit=7)))
    assert base.config_digest(figure1) != tweaked.config_digest(figure1)
    # Result-affecting request fields are part of the digest ...
    assert (ATPGRequest(spec="figure1", modes=("none",))
            .config_digest(figure1)
            != ATPGRequest(spec="figure1", modes=("known",))
            .config_digest(figure1))
    assert (CompareRequest(spec="figure1", backtrack_limits=(3,))
            .config_digest(figure1)
            != CompareRequest(spec="figure1", backtrack_limits=(5,))
            .config_digest(figure1))
    # ... but output paths and presentation toggles are not.
    assert (base.config_digest(figure1)
            == ATPGRequest(spec="figure1",
                           canonical=True).config_digest(figure1))


def test_learn_digest_keys_on_learning_config_not_backend():
    circuit = resolve_circuit("figure1")
    a = learn_digest(circuit, LearnConfig())
    assert a == learn_digest(circuit, LearnConfig())
    assert a != learn_digest(circuit, LearnConfig(max_frames=5))
    assert a != learn_digest(resolve_circuit("s27"), LearnConfig())


# ----------------------------------------------------------------------
# golden schemas + public surface manifest
# ----------------------------------------------------------------------
def _schema(value):
    if isinstance(value, dict):
        return {key: _schema(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_schema(item) for item in value]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    raise AssertionError(f"non-JSON value {value!r}")


def test_request_schemas_match_golden():
    observed = {kind: _schema(request.to_dict())
                for kind, request in EXAMPLES.items()}
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(SCHEMA_GOLDEN, "w") as handle:
            json.dump(observed, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip("api request golden schema regenerated")
    with open(SCHEMA_GOLDEN) as handle:
        golden = json.load(handle)
    assert observed == golden, (
        "request wire schema changed; if intentional, regenerate "
        "tests/data/api_schema_golden.json with REPRO_UPDATE_GOLDEN=1, "
        "review the diff, and consider bumping SCHEMA_VERSION")


def test_public_api_surface_matches_manifest():
    observed = sorted(set(api.__all__))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(MANIFEST, "w") as handle:
            json.dump(observed, handle, indent=1)
            handle.write("\n")
        pytest.skip("api manifest regenerated")
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    assert observed == manifest, (
        "repro.api.__all__ changed; update tests/data/api_manifest.json "
        "in the same change (REPRO_UPDATE_GOLDEN=1) and review it as an "
        "API surface change")
    for name in observed:
        assert getattr(api, name, None) is not None, (
            f"__all__ names {name!r} but repro.api does not provide it")


def test_string_for_list_field_rejected_not_exploded():
    # tuple("s27") would silently become ('s', '2', '7').
    with pytest.raises(RequestError, match="must be a list"):
        request_from_dict({"kind": "suite", "specs": "s27"})
    with pytest.raises(RequestError, match="must be a list"):
        ATPGRequest(spec="s27", modes="known")
