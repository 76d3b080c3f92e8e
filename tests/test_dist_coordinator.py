"""Coordinator scheduling: circuit units, one lease per unit, retries,
journal, wire.

`DistJob` is driven directly with an injected fake clock, so every
lease-expiry scenario is deterministic -- no sleeps, no wall time.
The HTTP layer is exercised at the bottom with a real bound server.
"""

import json
import os
import socket
import threading
from contextlib import closing, contextmanager

from repro.api import SuiteRequest, execute
from repro.api.framing import MAX_BODY_BYTES
from repro.core import LearnConfig
from repro.dist.coordinator import DistJob, make_coordinator
from repro.dist.protocol import (
    COMPLETE_PATH,
    HEALTH_PATH,
    HEARTBEAT_PATH,
    LEASE_PATH,
    http_bytes,
    http_json,
)
from repro.flow import ATPGConfig, ReproConfig, normalize_jobs
from repro.flow.session import run_suite


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


def make_job(specs=("figure1",), modes=("none", "known"),
             **kwargs) -> DistJob:
    return DistJob(specs, config=tiny_config(), modes=modes, **kwargs)


def drain(job: DistJob, worker_id="drain", max_units=1000) -> None:
    """In-process worker: lease, execute for real, complete."""
    for _ in range(max_units):
        grant = job.lease(worker_id)
        unit = grant["unit"]
        if unit is None:
            assert grant["done"], "no work but job not done"
            return
        envelope = execute(unit["request"]).envelope()
        job.complete(worker_id, unit["unit_id"], envelope)
    raise AssertionError("drain did not converge")


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_builds_one_suite_unit_per_spec():
    job = make_job(specs=("figure1", "s27", "figure1"))
    assert job.unit_order == ["0:figure1", "1:s27", "2:figure1"]
    for index, unit_id in enumerate(job.unit_order):
        unit = job.units[unit_id]
        assert unit.spec == job.specs[index]
        # The unit is exactly the request the local pool's unit runs:
        # one spec, the whole mode list, a jobs=1 config.
        assert unit.request == SuiteRequest(
            specs=(job.specs[index],), config=tiny_config(jobs=1),
            modes=("none", "known")).to_dict()
        assert not hasattr(unit, "deps")


def test_none_mode_units_report_no_learning():
    job = make_job(specs=("figure1", "s27"), modes=("none",))
    requests = [job.units[u].request for u in job.unit_order]
    assert [r["kind"] for r in requests] == ["suite", "suite"]
    assert all(r["modes"] == ["none"] for r in requests)
    drain(job)
    reports = job.merge_suite().result["reports"]
    assert [list(r["atpg"]) for r in reports] == [["none"], ["none"]]
    assert not any("learn" in r for r in reports)


def test_unresolvable_spec_error_matches_run_suite():
    specs = ("figure1", "no-such-circuit")
    job = make_job(specs=specs)
    # Nothing is resolved at plan time: the bad spec is a unit too, and
    # its worker records the failure exactly as a serial run does.
    assert len(job.unit_order) == 2 and job.failed == {}
    drain(job)
    response = job.merge_suite(canonical=True)
    assert response.exit_code == 1
    serial = run_suite(list(specs), config=tiny_config(),
                       modes=("none", "known"))
    assert serial.errors[0]["stage"] == "resolve"
    assert response.result["errors"] == serial.errors
    assert response.result == serial.canonical_dict()


# ----------------------------------------------------------------------
# leases, expiry, heartbeats (fake clock)
# ----------------------------------------------------------------------
def test_expired_lease_reissues_unit():
    clock = FakeClock()
    job = make_job(lease_timeout_s=10.0, clock=clock)
    first = job.lease("w1")["unit"]
    assert first["unit_id"] == "0:figure1"
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
    # A heartbeat for a lease the worker does not hold extends nothing.
    assert job.heartbeat("ghost", unit_id) == {"ok": False}
    assert job.leases[unit_id].worker_id == "w1"


def test_repeated_expiry_fails_circuit_with_worker_stage():
    clock = FakeClock()
    job = make_job(specs=("figure1", "s27"), lease_timeout_s=5.0,
                   clock=clock)
    doomed = job.lease("w1")["unit"]["unit_id"]
    for _ in range(DistJob.MAX_ATTEMPTS - 1):
        clock.advance(6.0)
        assert job.lease("w1")["unit"]["unit_id"] == doomed
    clock.advance(6.0)
    # Third expiry is terminal: figure1 fails, and the next lease hands
    # out s27's unit instead.
    granted = job.lease("w1")["unit"]
    assert job.failed[doomed]["stage"] == "worker"
    assert "expired" in job.failed[doomed]["error"]
    assert granted["unit_id"] != doomed
    # The healthy circuit still completes; the job never wedges.
    job.complete("w1", granted["unit_id"],
                 execute(granted["request"]).envelope())
    drain(job)
    response = job.merge_suite()
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
    error = job.failed[unit_id]
    assert error["stage"] == "learn"
    assert error["error"] == "engine exploded"
    assert job.done()


def test_malformed_suite_envelope_is_a_worker_error():
    job = make_job(specs=("figure1", "s27"), modes=("none",))
    unit = job.lease("w1")["unit"]
    # An ok envelope without the suite's reports/errors lists (a
    # broken or foreign worker) fails its circuit at merge time
    # instead of raising out of the merge.
    assert job.complete("w1", unit["unit_id"], {"ok": True})["accepted"]
    drain(job)
    response = job.merge_suite()
    assert response.exit_code == 1
    assert response.result["errors"] == [{
        "spec": "figure1", "stage": "worker",
        "error": "worker returned a malformed suite envelope"}]
    assert [r["circuit"] for r in response.result["reports"]] == ["s27"]


# ----------------------------------------------------------------------
# one lease per unit + late completion
# ----------------------------------------------------------------------
def test_one_lease_per_unit():
    clock = FakeClock()
    job = make_job(specs=("figure1", "s27"), modes=("none",),
                   lease_timeout_s=10.0, clock=clock)
    first = job.lease("w1")
    second = job.lease("w2")["unit"]["unit_id"]
    assert set(first) == {"unit", "heartbeat_s"}
    assert first["unit"]["unit_id"] != second
    # Nothing pending: idle workers go empty-handed, holders included,
    # however long the leased units have been running.
    clock.advance(9.0)
    assert job.lease("w3") == {"unit": None, "done": False}
    assert job.lease("w1")["unit"] is None
    assert job.leases_issued == 2
    # Only expiry frees a unit for another worker.
    clock.advance(2.0)
    assert job.lease("w3")["unit"]["unit_id"] == first["unit"]["unit_id"]
    assert job.leases[first["unit"]["unit_id"]].worker_id == "w3"


def test_duplicate_completion_first_write_wins():
    clock = FakeClock()
    job = make_job(modes=("none",), lease_timeout_s=10.0, clock=clock)
    unit = job.lease("w1")["unit"]
    clock.advance(11.0)  # w1 outlives its lease; w2 re-runs the unit
    assert job.lease("w2")["unit"]["unit_id"] == unit["unit_id"]
    winner = execute(unit["request"]).envelope()
    assert job.complete("w2", unit["unit_id"], winner)["accepted"]
    late = job.complete("w1", unit["unit_id"], winner)
    assert late == {"accepted": False, "duplicate": True}
    assert job.duplicate_completions == 1
    assert job.completed[unit["unit_id"]] is winner
    assert job.done()


# ----------------------------------------------------------------------
# journal: coordinator restart resumes from partial results
# ----------------------------------------------------------------------
def test_restart_resumes_from_journal(tmp_path):
    journal = str(tmp_path / "journal")
    specs = ("figure1", "s27", "figure1")
    job = make_job(specs=specs, journal_dir=journal)
    # Crash the coordinator after only two units completed.
    for _ in range(2):
        unit = job.lease("w1")["unit"]
        job.complete("w1", unit["unit_id"],
                     execute(unit["request"]).envelope())
    finished = set(job.completed)
    assert len(finished) == 2

    reborn = make_job(specs=specs, journal_dir=journal)
    assert set(reborn.completed) == finished  # partial results survive
    drain(reborn)
    assert reborn.done()
    assert reborn.leases_issued == len(reborn.unit_order) - 2
    # And the merge is the normal full-job answer.
    fresh = make_job(specs=specs)
    drain(fresh)
    assert (reborn.merge_suite(canonical=True).to_json()
            == fresh.merge_suite(canonical=True).to_json())


def test_journal_ignores_other_jobs(tmp_path):
    journal = str(tmp_path / "journal")
    job = make_job(journal_dir=journal)
    drain(job)
    # Same journal dir, different job parameters: nothing matches.
    other = make_job(modes=("none",), journal_dir=journal)
    assert other.completed == {}


# ----------------------------------------------------------------------
# schema v8: the speculative shard kind is gone
# ----------------------------------------------------------------------
def test_shard_kind_is_a_parse_error_envelope():
    response = execute({"kind": "shard", "spec": "s27", "mode": "none",
                        "shard_index": 0, "n_shards": 2})
    assert not response.ok
    assert response.exit_code == 1
    assert response.error["code"] == "parse"
    assert "unknown request kind 'shard'" in response.error["message"]


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
        # Scheduler counters are served only through /v1/health.
        status, _ = http_json("GET", server.url, "/v1/dist/status")
        assert status == 404

        status, health = http_json("GET", server.url, HEALTH_PATH)
        assert status == 200 and health["ok"]
        assert health["dist"]["units"] == 1
        assert health["schema_version"] == 10

        status, grant = http_json("POST", server.url, LEASE_PATH,
                                  {"worker_id": "w1"})
        assert status == 200
        unit = grant["unit"]
        assert unit["unit_id"] == "0:figure1"
        assert unit["request"]["kind"] == "suite"
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

        status, health = http_json("GET", server.url, HEALTH_PATH)
        assert status == 200
        assert health["dist"] == server.job.status()
        assert health["dist"]["completed"] == 1
        assert health["dist"]["done"]


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
        assert grant["unit"]["unit_id"] == "0:figure1"
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


def test_http_unsupported_method_is_an_error_envelope():
    with running_coordinator() as server:
        for method in ("PUT", "DELETE"):
            status, raw = http_bytes(method, server.url, LEASE_PATH,
                                     b"{}")
            assert status == 501
            assert_http_error(json.loads(raw), "parse",
                              "Unsupported method")
        assert server.job.status()["leased"] == 0


def test_artifact_endpoints_are_gone():
    with running_coordinator() as server:
        status, payload = http_json("GET", server.url,
                                    "/v1/artifacts/" + "0" * 64)
        assert status == 404
        assert_http_error(payload, "parse", "no such endpoint")
