"""Coordinator scheduling: leases, stealing, retries, journal, wire.

`DistJob` is driven directly with an injected fake clock, so every
lease-expiry scenario is deterministic -- no sleeps, no wall time.
The HTTP layer is exercised at the bottom with a real bound server.
"""

import json
import os
import socket
import threading
from contextlib import closing, contextmanager

import pytest

from repro.api import (
    ArtifactStore,
    ShardRequest,
    execute,
    learn_digest,
)
from repro.core import LearnConfig
from repro.core.engine import learn
from repro.dist.coordinator import (
    MAX_BODY_BYTES,
    DistJob,
    make_coordinator,
)
from repro.dist.protocol import (
    COMPLETE_PATH,
    HEALTH_PATH,
    HEARTBEAT_PATH,
    LEASE_PATH,
    STATUS_PATH,
    artifact_path,
    http_bytes,
    http_json,
)
from repro.flow import ATPGConfig, ConfigError, ReproConfig, normalize_jobs
from repro.flow.serialize import learn_result_to_dict
from repro.flow.session import resolve_circuit


def tiny_config(**kwargs) -> ReproConfig:
    return ReproConfig(learn=LearnConfig(max_frames=5),
                       atpg=ATPGConfig(backtrack_limit=5, max_frames=3),
                       **kwargs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_job(specs=("figure1",), modes=("none", "known"), n_shards=2,
             **kwargs) -> DistJob:
    return DistJob(specs, config=tiny_config(), modes=modes,
                   n_shards=n_shards, **kwargs)


def drain(job: DistJob, worker_id="drain", store=None,
          max_units=1000) -> ArtifactStore:
    """In-process worker: lease, execute for real, complete."""
    store = store if store is not None else ArtifactStore()
    for _ in range(max_units):
        grant = job.lease(worker_id)
        unit = grant["unit"]
        if unit is None:
            assert grant["done"], "no work but job not done"
            return store
        envelope = execute(unit["request"], store=store).envelope()
        job.complete(worker_id, unit["unit_id"], envelope)
    raise AssertionError("drain did not converge")


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_builds_learn_and_shard_dag():
    job = make_job()
    kinds = [job.units[unit_id].kind for unit_id in job.unit_order]
    assert kinds == ["learn", "shard", "shard", "shard", "shard"]
    learn_id = job.unit_order[0]
    for unit_id in job.unit_order[1:]:
        unit = job.units[unit_id]
        expected = (learn_id,) if unit.mode != "none" else ()
        assert unit.deps == expected


def test_plan_skips_learn_when_no_learning_mode():
    job = make_job(modes=("none",), n_shards=3)
    assert [job.units[u].kind for u in job.unit_order] == ["shard"] * 3


def test_unresolvable_spec_fails_at_planning():
    job = make_job(specs=("figure1", "no-such-circuit"))
    # The bad circuit planned no units; the good one is unaffected.
    assert {job.units[u].circuit_index for u in job.unit_order} == {0}
    assert job.circuit_errors[1]["stage"] == "resolve"
    store = drain(job)
    response = job.merge(store)
    assert response.exit_code == 1
    payload = response.result
    assert [r["circuit"] for r in payload["reports"]] == ["figure1"]
    assert payload["errors"][0]["stage"] == "resolve"


# ----------------------------------------------------------------------
# leases, expiry, heartbeats (fake clock)
# ----------------------------------------------------------------------
def test_expired_lease_reissues_unit():
    clock = FakeClock()
    job = make_job(lease_timeout_s=10.0, clock=clock)
    first = job.lease("w1")["unit"]
    assert first["unit_id"].endswith(":learn")
    clock.advance(11.0)
    second = job.lease("w2")["unit"]
    assert second["unit_id"] == first["unit_id"]
    assert job.leases_expired == 1
    assert job.attempts[first["unit_id"]] == 1


def test_heartbeat_extends_lease():
    clock = FakeClock()
    job = make_job(lease_timeout_s=10.0, clock=clock)
    unit_id = job.lease("w1")["unit"]["unit_id"]
    clock.advance(8.0)
    assert job.heartbeat("w1", unit_id)["ok"]
    clock.advance(8.0)  # 16s total: dead without the heartbeat
    job.status()  # forces a reap pass
    assert job.leases_expired == 0
    assert unit_id in job.leases
    # A heartbeat for a lease the worker no longer holds says abandon
    # only once the unit cannot be completed usefully anymore.
    assert job.heartbeat("ghost", unit_id) == {"ok": False,
                                               "abandon": False}


def test_repeated_expiry_fails_circuit_with_worker_stage():
    clock = FakeClock()
    job = make_job(specs=("figure1", "s27"), lease_timeout_s=5.0,
                   clock=clock)
    doomed = job.lease("w1")["unit"]["unit_id"]
    for _ in range(DistJob.MAX_ATTEMPTS - 1):
        clock.advance(6.0)
        assert job.lease("w1")["unit"]["unit_id"] == doomed
    clock.advance(6.0)
    # Third expiry is terminal: figure1's units all cancel, and the
    # next lease hands out s27 work instead.
    index = job.units[doomed].circuit_index
    granted = job.lease("w1")["unit"]
    assert job.circuit_errors[index]["stage"] == "worker"
    assert "expired" in job.circuit_errors[index]["error"]
    assert job.units[granted["unit_id"]].circuit_index != index
    # The healthy circuit still completes; the job never wedges.
    job.complete("w1", granted["unit_id"],
                 execute(granted["request"]).envelope())
    store = drain(job)
    response = job.merge(store)
    assert response.exit_code == 1
    assert [r["circuit"] for r in response.result["reports"]] == ["s27"]
    assert response.result["errors"][0]["spec"] == "figure1"


def test_error_envelope_bounded_retry_then_circuit_error():
    job = make_job()
    unit_id = job.lease("w1")["unit"]["unit_id"]
    bad = {"ok": False, "error": {"message": "engine exploded",
                                  "stage": "learn"}}
    for attempt in range(1, DistJob.MAX_ATTEMPTS + 1):
        reply = job.complete("w1", unit_id, bad)
        assert reply["accepted"]
        if attempt < DistJob.MAX_ATTEMPTS:
            assert reply["retrying"]
            assert job.lease("w1")["unit"]["unit_id"] == unit_id
        else:
            assert not reply["retrying"]
    # Attribution preserves the failing stage from the envelope.
    error = job.circuit_errors[0]
    assert error["stage"] == "learn"
    assert error["error"] == "engine exploded"
    assert job.done()


# ----------------------------------------------------------------------
# work stealing + duplicate completion
# ----------------------------------------------------------------------
def test_steal_duplicates_oldest_inflight_unit():
    clock = FakeClock()
    job = make_job(modes=("none",), n_shards=2, clock=clock)
    first = job.lease("w1")["unit"]["unit_id"]
    clock.advance(1.0)
    second = job.lease("w2")["unit"]["unit_id"]
    assert first != second
    # Nothing pending now; idle workers duplicate the longest-running
    # in-flight unit first.
    assert job.lease("w3")["unit"]["unit_id"] == first
    assert job.lease("w4")["unit"]["unit_id"] == second
    assert job.steals == 2
    # Both units sit at MAX_LEASES_PER_UNIT now (and a holder never
    # steals its own unit), so further askers go empty-handed.
    assert job.lease("w5")["unit"] is None
    assert job.lease("w1")["unit"] is None
    assert not job.lease("w1")["done"]


def test_duplicate_completion_first_write_wins():
    job = make_job(modes=("none",), n_shards=1)
    unit = job.lease("w1")["unit"]
    job.lease("w2")  # steal: both workers now run the same unit
    winner = execute(unit["request"]).envelope()
    assert job.complete("w1", unit["unit_id"], winner)["accepted"]
    late = job.complete("w2", unit["unit_id"], winner)
    assert late == {"accepted": False, "duplicate": True}
    assert job.duplicate_completions == 1
    assert job.completed[unit["unit_id"]] is winner
    assert job.done()


# ----------------------------------------------------------------------
# journal: coordinator restart resumes from partial results
# ----------------------------------------------------------------------
def test_restart_resumes_from_journal(tmp_path):
    journal = str(tmp_path / "journal")
    job = make_job(journal_dir=journal)
    store = ArtifactStore()
    # Crash the coordinator after only two units completed.
    for _ in range(2):
        unit = job.lease("w1")["unit"]
        job.complete("w1", unit["unit_id"],
                     execute(unit["request"], store=store).envelope())
    finished = set(job.completed)
    assert len(finished) == 2

    reborn = make_job(journal_dir=journal)
    assert set(reborn.completed) == finished  # partial results survive
    drain(reborn, store=store)
    assert reborn.done()
    assert reborn.leases_issued == len(reborn.unit_order) - 2
    # And the merge is the normal full-job answer.
    fresh = make_job()
    drain(fresh, store=store)
    assert (reborn.merge(store, canonical=True).to_json()
            == fresh.merge(store, canonical=True).to_json())


def test_journal_ignores_other_jobs(tmp_path):
    journal = str(tmp_path / "journal")
    job = make_job(journal_dir=journal)
    drain(job)
    # Same journal dir, different job parameters: nothing matches.
    other = make_job(n_shards=3, journal_dir=journal)
    assert other.completed == {}


# ----------------------------------------------------------------------
# shard request validation
# ----------------------------------------------------------------------
def test_shard_request_validation():
    ShardRequest(spec="s27", mode="none", n_shards=2,
                 shard_index=1).validate()
    with pytest.raises(ConfigError, match="shard_index"):
        ShardRequest(spec="s27", mode="none", n_shards=2,
                     shard_index=2).validate()
    with pytest.raises(ConfigError, match="n_shards"):
        ShardRequest(spec="s27", mode="none", n_shards=0).validate()
    with pytest.raises(ConfigError, match="learned_digest"):
        ShardRequest(spec="s27", mode="known").validate()


def test_shard_rejects_learned_digest_mismatch():
    request = ShardRequest(spec="figure1", config=tiny_config(),
                           mode="known", shard_index=0, n_shards=1,
                           learned_digest="f" * 64)
    response = execute(request)
    assert not response.ok
    assert "learned_digest" in response.error["message"]


# ----------------------------------------------------------------------
# satellite: jobs=0 means one worker per core, in one shared helper
# ----------------------------------------------------------------------
def test_normalize_jobs_clamp():
    assert normalize_jobs(0) == (os.cpu_count() or 1)
    assert normalize_jobs(1) == 1
    assert normalize_jobs(7) == 7


# ----------------------------------------------------------------------
# the HTTP surface
# ----------------------------------------------------------------------
@contextmanager
def running_coordinator(**kwargs):
    kwargs.setdefault("specs", ("figure1",))
    kwargs.setdefault("config", tiny_config())
    kwargs.setdefault("modes", ("none", "known"))
    kwargs.setdefault("n_shards", 2)
    server = make_coordinator(**kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_http_lease_complete_status_health():
    with running_coordinator() as server:
        status, health = http_json("GET", server.url, HEALTH_PATH)
        assert status == 200 and health["ok"]
        assert health["dist"]["units"] == 5
        assert "memory_hits" in health["artifact_store"]
        assert "flight_waits" in health["artifact_store"]

        status, grant = http_json("POST", server.url, LEASE_PATH,
                                  {"worker_id": "w1"})
        assert status == 200
        unit = grant["unit"]
        assert unit["unit_id"].endswith(":learn")
        assert grant["heartbeat_s"] > 0

        status, beat = http_json("POST", server.url, HEARTBEAT_PATH,
                                 {"worker_id": "w1",
                                  "unit_id": unit["unit_id"]})
        assert status == 200 and beat["ok"]

        envelope = execute(unit["request"]).envelope()
        status, reply = http_json(
            "POST", server.url, COMPLETE_PATH,
            {"worker_id": "w1", "unit_id": unit["unit_id"],
             "response": envelope})
        assert status == 200 and reply["accepted"]

        status, progress = http_json("GET", server.url, STATUS_PATH)
        assert status == 200
        assert progress["completed"] == 1
        assert not progress["done"]


def test_http_rejects_garbage():
    with running_coordinator() as server:
        status, _ = http_json("GET", server.url, "/nope")
        assert status == 404
        status, payload = http_json("POST", server.url, COMPLETE_PATH,
                                    {"worker_id": "w1",
                                     "unit_id": "x"})
        assert status == 400  # no response envelope
        status, payload = http_json("POST", server.url, COMPLETE_PATH,
                                    {"worker_id": "w1", "unit_id": "?",
                                     "response": {"ok": True}})
        assert status == 200
        assert payload == {"accepted": False, "unknown": True}
        status, _ = http_bytes("POST", server.url, LEASE_PATH,
                               b"not json")
        assert status == 400


def raw_http(server, request_bytes: bytes):
    """Send raw request bytes; return (status, JSON body)."""
    host, port = server.server_address[:2]
    with closing(socket.create_connection((host, port),
                                          timeout=30)) as sock:
        sock.sendall(request_bytes)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def post_raw(server, path: str, headers: bytes, body: bytes = b""):
    return raw_http(server, (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                             .encode() + headers + b"\r\n" + body))


def assert_http_error(payload, code: str, fragment: str):
    assert payload["ok"] is False
    assert payload["error"]["code"] == code
    assert payload["error"]["stage"] == "http"
    assert fragment in payload["error"]["message"]


def test_http_chunked_lease_post_is_decoded():
    good = json.dumps({"worker_id": "w1"}).encode()
    with running_coordinator() as server:
        status, grant = post_raw(
            server, LEASE_PATH, b"Transfer-Encoding: chunked\r\n",
            (b"%x\r\n" % len(good)) + good + b"\r\n0\r\n\r\n")
        assert status == 200
        assert grant["unit"]["unit_id"].endswith(":learn")
        assert server.job.status()["leased"] == 1


def test_http_malformed_bodies_are_error_envelopes():
    with running_coordinator() as server:
        status, payload = post_raw(server, LEASE_PATH,
                                   b"Content-Length: ten\r\n")
        assert status == 400
        assert_http_error(payload, "parse", "not an integer")

        body = b"[1, 2]"
        status, payload = post_raw(
            server, LEASE_PATH,
            b"Content-Length: %d\r\n" % len(body), body)
        assert status == 400
        assert_http_error(payload, "parse", "JSON object")

        status, payload = post_raw(
            server, LEASE_PATH, b"Content-Length: %d\r\n"
            % (MAX_BODY_BYTES + 1))
        assert status == 413
        assert_http_error(payload, "too_large", str(MAX_BODY_BYTES))

        status, payload = http_json("GET", server.url, "/nope")
        assert status == 404
        assert_http_error(payload, "parse", "no such endpoint")
        status, payload = http_json("POST", server.url, COMPLETE_PATH,
                                    {"worker_id": "w1", "unit_id": "x"})
        assert status == 400
        assert_http_error(payload, "parse", "missing response envelope")
        # Nothing was leased by the rejected requests.
        assert server.job.status()["leased"] == 0


def test_artifact_endpoint_round_trip(tmp_path):
    circuit = resolve_circuit("figure1")
    config = tiny_config()
    digest = learn_digest(circuit, config.learn)
    result = learn(circuit, config.learn)
    payload = (json.dumps(learn_result_to_dict(result, digest=digest),
                          indent=1) + "\n").encode()
    store = ArtifactStore(root=str(tmp_path))
    with running_coordinator(config=config, store=store) as server:
        status, _ = http_bytes("GET", server.url, artifact_path(digest))
        assert status == 404
        status, reply = http_json("PUT", server.url,
                                  artifact_path(digest),
                                  json.loads(payload))
        assert status == 200 and reply["stored"]
        status, fetched = http_bytes("GET", server.url,
                                     artifact_path(digest))
        assert status == 200
        # Byte-for-byte the canonical wire form: the GET serves the
        # atomically-written disk file, whose framing matches the
        # serialized payload exactly.
        assert fetched == payload
        # Tampered digests are refused, not stored.
        status, reply = http_json("PUT", server.url,
                                  artifact_path("0" * 64),
                                  json.loads(payload))
        assert status == 200 and not reply["stored"]


def test_put_learn_payload_rejects_digest_mismatch(tmp_path):
    store = ArtifactStore(root=str(tmp_path))
    circuit = resolve_circuit("figure1")
    config = tiny_config()
    digest = learn_digest(circuit, config.learn)
    result = learn(circuit, config.learn)
    payload = (json.dumps(learn_result_to_dict(result, digest=digest),
                          indent=1) + "\n").encode()
    assert not store.put_learn_payload("0" * 64, payload)
    assert not store.put_learn_payload(digest, b"not json")
    assert store.put_learn_payload(digest, payload)
    assert store.get_learn_payload(digest) == payload
