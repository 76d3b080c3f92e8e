"""The streamed event protocol + serve-tier HTTP behaviors.

Headline contract: an NDJSON stream's terminal envelope is
**byte-identical** to the ``POST /v1/execute`` body (and so to
``repro ... --json --canonical`` stdout) for the same request.  Around
it: SSE, request ids, explicit cancel, deadlines, 429 backpressure and
the cancellation counters those paths leave in ``/v1/metrics``.
"""

import http.client
import json
import re
import threading
import time
from contextlib import closing, contextmanager

from repro.api import ATPGRequest, ArtifactStore, execute, make_server
from repro.core import LearnConfig
from repro.flow import ATPGConfig, ReproConfig

#: A profile-sampled circuit big enough that its ATPG run takes whole
#: seconds -- long enough to cancel mid-flight, small enough for CI.
SLOW_SPEC = "like:s382@0.5"


def tiny_config() -> ReproConfig:
    return ReproConfig(learn=LearnConfig(max_frames=5),
                       atpg=ATPGConfig(backtrack_limit=5, max_frames=3))


@contextmanager
def running_server(**kwargs):
    kwargs.setdefault("store", ArtifactStore())
    server = make_server(port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def open_stream(server, body: bytes, path="/v1/stream", headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json",
                          **(headers or {})})
    return conn, conn.getresponse()


def read_ndjson_stream(response):
    """Consume a stream: (event dicts, raw terminal envelope bytes)."""
    events = []
    while True:
        line = response.readline()
        assert line, "stream ended before the terminal frame"
        record = json.loads(line)
        if record.get("event") == "result" and "bytes" in record:
            remaining = record["bytes"]
            envelope = b""
            while remaining:
                chunk = response.read(remaining)
                assert chunk, "truncated terminal envelope"
                envelope += chunk
                remaining -= len(chunk)
            assert response.read() == b""  # nothing after the envelope
            return events, envelope
        events.append(record)


def post(server, body: bytes, path="/v1/execute", headers=None):
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=120)) as conn:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()


def get_json(server, path):
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=60)) as conn:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())


def settle(server, name, count=1, timeout=10):
    """Counters land in the handler's ``finally`` a beat after the
    response bytes; wait for them so metric scrapes are deterministic."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.metrics.counter_total(name) >= count:
            return
        time.sleep(0.01)
    raise AssertionError(f"{name} never reached {count}")


def test_ndjson_stream_terminal_envelope_byte_identical():
    request = ATPGRequest(spec="figure1", config=tiny_config(),
                          modes=("known",), canonical=True)
    reference = execute(request).to_json().encode()
    with running_server() as server:
        conn, response = open_stream(
            server, request.to_canonical_json().encode())
        with closing(conn):
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            events, envelope = read_ndjson_stream(response)
    assert envelope == reference
    kinds = {event["event"] for event in events}
    assert kinds == {"progress", "stage"}
    stages = [event["stage"] for event in events
              if event["event"] == "stage"]
    assert "atpg[known]" in stages
    statuses = {event["status"] for event in events
                if event["event"] == "progress"}
    assert {"start", "end"} <= statuses


def test_execute_endpoint_streams_on_accept_header():
    request = ATPGRequest(spec="figure1", config=tiny_config(),
                          modes=("known",), canonical=True)
    reference = execute(request).to_json().encode()
    with running_server() as server:
        conn, response = open_stream(
            server, request.to_canonical_json().encode(),
            path="/v1/execute",
            headers={"Accept": "application/x-ndjson"})
        with closing(conn):
            events, envelope = read_ndjson_stream(response)
    assert envelope == reference
    assert events  # the same request streamed, not one-shot


def test_sse_stream_carries_equal_envelope():
    request = ATPGRequest(spec="figure1", config=tiny_config(),
                          modes=("known",), canonical=True)
    reference = json.loads(execute(request).to_json())
    with running_server() as server:
        conn, response = open_stream(
            server, request.to_canonical_json().encode(),
            headers={"Accept": "text/event-stream"})
        with closing(conn):
            assert response.getheader("Content-Type") == \
                "text/event-stream"
            raw = response.read().decode()
    blocks = [block for block in raw.split("\n\n") if block]
    parsed = []
    for block in blocks:
        lines = dict(line.split(": ", 1) for line in block.splitlines())
        parsed.append((lines["event"], json.loads(lines["data"])))
    assert parsed[-1][0] == "result"
    # SSE re-serializes (line-oriented), so equality is canonical JSON
    # equality, not byte identity -- that guarantee is NDJSON-only.
    assert parsed[-1][1] == reference
    assert any(kind == "progress" for kind, _ in parsed[:-1])


def test_request_id_echoed_and_client_chosen():
    body = json.dumps({"kind": "list"}).encode()
    with running_server() as server:
        _, headers, _ = post(server, body)
        assert re.fullmatch(r"r-\d+", headers["X-Request-Id"])
        _, headers, _ = post(server, json.dumps(
            {"kind": "list", "request_id": "mine-42"}).encode())
        assert headers["X-Request-Id"] == "mine-42"


def test_cancel_endpoint_unknown_id_is_idempotent():
    with running_server() as server:
        status, _, body = post(server, json.dumps(
            {"request_id": "nope"}).encode(), path="/v1/cancel")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True and payload["cancelled"] is False
        status, _, body = post(server, b"{}", path="/v1/cancel")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"


def test_explicit_cancel_stops_stream_mid_atpg():
    body = json.dumps({"kind": "atpg", "spec": SLOW_SPEC,
                       "modes": ["known"], "canonical": True,
                       "request_id": "kill-me"}).encode()
    with running_server() as server:
        conn, response = open_stream(server, body)
        with closing(conn):
            # Wait until the run is demonstrably alive...
            first = json.loads(response.readline())
            assert first["event"] == "progress"
            started = time.perf_counter()
            # ...then cancel it by id from a second connection.
            status, _, cancel_body = post(
                server, json.dumps({"request_id": "kill-me"}).encode(),
                path="/v1/cancel")
            assert status == 200
            assert json.loads(cancel_body)["cancelled"] is True
            events, envelope = read_ndjson_stream(response)
            elapsed = time.perf_counter() - started
        payload = json.loads(envelope)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "cancelled"
        assert "explicit" in payload["error"]["message"]
        # A full run takes whole seconds; the cancel cut it short.
        assert elapsed < 5.0
        settle(server, "cancellations_total")
        metrics = get_json(server, "/v1/metrics")
        assert metrics["metrics"]["counters"][
            'cancellations_total{reason="explicit"}'] == 1
        # Slot returned: nothing active, nothing queued.
        assert metrics["admission"]["active"] == 0


def test_deadline_expires_one_shot_request():
    body = json.dumps({"kind": "atpg", "spec": SLOW_SPEC,
                       "modes": ["known"], "canonical": True,
                       "deadline_s": 0.6}).encode()
    with running_server() as server:
        started = time.perf_counter()
        status, _, raw = post(server, body)
        elapsed = time.perf_counter() - started
        assert status == 504
        payload = json.loads(raw)
        assert payload["error"]["code"] == "deadline"
        assert elapsed < 5.0
        settle(server, "cancellations_total")
        metrics = get_json(server, "/v1/metrics")
        assert metrics["metrics"]["counters"][
            'cancellations_total{reason="deadline"}'] == 1
        health = get_json(server, "/v1/health")
        assert health["requests_failed"] == 1


def test_server_deadline_cap_clamps_requests_naming_none():
    with running_server(deadline_cap=0.6) as server:
        body = json.dumps({"kind": "atpg", "spec": SLOW_SPEC,
                           "modes": ["known"],
                           "canonical": True}).encode()
        status, _, raw = post(server, body)
        assert status == 504
        assert json.loads(raw)["error"]["code"] == "deadline"


def test_overload_rejected_with_retry_after_header():
    with running_server(max_active=1, queue_depth=0) as server:
        server.admission.acquire("interactive")  # wedge the only slot
        try:
            status, headers, raw = post(
                server, json.dumps({"kind": "list"}).encode())
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            payload = json.loads(raw)
            assert payload["error"]["code"] == "overload"
            assert payload["error"]["stage"] == "admission"
            assert payload["error"]["retry_after_s"] >= 1
        finally:
            server.admission.release()
        status, _, _ = post(server,
                            json.dumps({"kind": "list"}).encode())
        assert status == 200
        settle(server, "requests_total", count=2)
        metrics = get_json(server, "/v1/metrics")
        assert metrics["metrics"]["counters"][
            'rejections_total{class="interactive"}'] == 1
        assert metrics["metrics"]["counters"][
            'requests_total{class="interactive",kind="list",'
            'outcome="rejected"}'] == 1


def test_invalid_priority_rejected_by_request_validation():
    with running_server() as server:
        status, _, raw = post(server, json.dumps(
            {"kind": "list", "priority": "vip"}).encode())
        assert status == 400
        payload = json.loads(raw)
        assert payload["ok"] is False
        assert "priority" in payload["error"]["message"]


def test_streaming_can_be_disabled():
    request = json.dumps({"kind": "list"}).encode()
    with running_server(allow_streaming=False) as server:
        status, _, raw = post(server, request, path="/v1/stream")
        assert status == 400
        assert "disabled" in json.loads(raw)["error"]["message"]
        # Accept headers are ignored too: one-shot JSON comes back.
        status, headers, raw = post(
            server, request,
            headers={"Accept": "application/x-ndjson"})
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(raw)["ok"] is True
        assert get_json(server, "/v1/health")["streaming"] is False


def test_health_exposes_serve_tier_cache_counters():
    with running_server() as server:
        health = get_json(server, "/v1/health")
        assert health["streaming"] is True
        assert health["admission"] == {"active": 0, "interactive": 0,
                                       "batch": 0}
        assert {"hits", "misses"} <= set(health["kernel_cache"])
        store_stats = health["artifact_store"]
        assert {"memory_hits", "misses", "flight_waits"} <= set(store_stats)
