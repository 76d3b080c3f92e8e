"""The ``repro serve`` daemon under concurrency.

The headline contract: N parallel clients firing mixed learn/atpg
requests get responses **byte-identical** to serial one-shot
:func:`repro.api.execute` runs, and after warm-up the compiled-kernel
cache is hit, never rebuilt.
"""

import http.client
import json
import socket
import threading
from contextlib import closing, contextmanager

import pytest

from repro.api import (
    SCHEMA_VERSION,
    ATPGRequest,
    ArtifactStore,
    LearnRequest,
    execute,
    make_server,
)
from repro.core import LearnConfig
from repro.flow import ATPGConfig, ReproConfig
from repro.sim import clear_compile_cache, compile_cache_stats


def tiny_config() -> ReproConfig:
    return ReproConfig(learn=LearnConfig(max_frames=5),
                       atpg=ATPGConfig(backtrack_limit=5, max_frames=3))


@contextmanager
def running_server(store=None):
    server = make_server(port=0, store=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def post(server, body: bytes, path: str = "/v1/execute"):
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=60)) as conn:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()


def get(server, path: str):
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=60)) as conn:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()


#: The mixed workload: canonical requests (zeroed wall-clock fields)
#: are the byte-identity contract's reproducible form.
def mixed_requests():
    config = tiny_config()
    return [
        LearnRequest(spec="figure1", config=config, canonical=True),
        ATPGRequest(spec="figure1", config=config, modes=("known",),
                    canonical=True),
        LearnRequest(spec="s27", config=config, canonical=True),
        ATPGRequest(spec="s27", config=config,
                    modes=("none", "forbidden"), canonical=True),
    ]


def test_eight_concurrent_mixed_requests_byte_identical_to_one_shot():
    requests = mixed_requests() * 2  # 8 requests, mixed kinds/circuits
    # Serial one-shot references, fresh store-less executes.
    references = [execute(request).to_json().encode()
                  for request in requests]
    with running_server(store=ArtifactStore()) as server:
        results = [None] * len(requests)
        errors = []

        def client(index, request):
            try:
                status, body = post(
                    server, request.to_canonical_json().encode())
                results[index] = (status, body)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i, request))
                   for i, request in enumerate(requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for (status, body), reference in zip(results, references):
            assert status == 200
            assert body == reference
        status, health = get(server, "/v1/health")
        health = json.loads(health)
        assert health["requests_served"] == len(requests)
        assert health["requests_failed"] == 0
        # The store absorbed the repeats: one learn per (circuit,
        # config), every other request hit.
        assert health["artifact_store"]["puts"] == 2
        assert health["artifact_store"]["memory_hits"] >= 6


def test_kernel_cache_hit_after_warm_up():
    clear_compile_cache()
    request = ATPGRequest(spec="figure1", config=tiny_config(),
                          modes=("known",), canonical=True)
    with running_server(store=ArtifactStore()) as server:
        status, first = post(server,
                             request.to_canonical_json().encode())
        assert status == 200
        warm = compile_cache_stats()
        assert warm["misses"] >= 1  # figure1 compiled once
        # Hammer the warm daemon concurrently; the kernel cache must
        # only be *hit* from here on -- never rebuilt.
        threads = [threading.Thread(target=post, args=(
            server, request.to_canonical_json().encode()))
            for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        after = compile_cache_stats()
        assert after["misses"] == warm["misses"]
        assert after["hits"] > warm["hits"]
        assert after["entries"] == warm["entries"]


def test_health_and_kinds_endpoints():
    with running_server() as server:
        status, body = get(server, "/v1/health")
        health = json.loads(body)
        assert status == 200 and health["ok"] is True
        assert health["schema_version"] == SCHEMA_VERSION
        assert {"kernel_cache", "artifact_store"} <= set(health)

        status, body = get(server, "/v1/kinds")
        kinds = json.loads(body)
        assert status == 200
        assert "atpg" in kinds["kinds"] and "suite" in kinds["kinds"]


def test_error_envelopes_over_http():
    with running_server() as server:
        status, body = post(server, b"this is not json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"

        # Bytes that are not text at all are the same parse error, not
        # a dropped connection.
        status, body = post(server, b"\xff\xfe{")
        assert status == 400
        assert json.loads(body)["error"]["stage"] == "http"

        status, body = post(server, json.dumps(
            {"kind": "atpg", "spec": "like:nope"}).encode())
        assert status == 404
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "resolve"
        assert payload["schema_version"] == SCHEMA_VERSION

        status, body = post(server, json.dumps(
            {"kind": "frobnicate"}).encode())
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"

        status, body = get(server, "/no/such/endpoint")
        assert status == 404

        status, health = get(server, "/v1/health")
        assert json.loads(health)["requests_failed"] == 4


def test_daemon_suite_request_matches_one_shot():
    request_dict = {
        "kind": "suite",
        "specs": ["figure1", "s27"],
        "config": tiny_config().to_dict(),
        "modes": ["known"],
        "canonical": True,
    }
    reference = execute(dict(request_dict)).to_json().encode()
    with running_server(store=ArtifactStore()) as server:
        status, body = post(server, json.dumps(request_dict).encode())
    assert status == 200
    assert body == reference


def test_daemon_response_byte_identical_to_cli_stdout(capsys):
    """The literal contract: `repro ... --json --canonical` stdout ==
    the daemon's HTTP body for the same request document."""
    from repro.cli import main

    argv = ["atpg", "figure1", "--json", "--canonical", "--mode",
            "known", "--backtrack-limit", "5", "--window", "3",
            "--max-frames", "5"]
    assert main(argv) == 0
    cli_bytes = capsys.readouterr().out.encode()

    request = ATPGRequest(
        spec="figure1",
        config=ReproConfig(learn=LearnConfig(max_frames=5),
                           atpg=ATPGConfig(backtrack_limit=5,
                                           max_frames=3)),
        modes=("known",), canonical=True)
    with running_server(store=ArtifactStore()) as server:
        status, body = post(server,
                            request.to_canonical_json().encode())
    assert status == 200
    assert body == cli_bytes


def test_daemon_rejects_server_side_file_paths_by_default(tmp_path):
    target = tmp_path / "evil.json"
    with running_server() as server:
        status, body = post(server, json.dumps(
            {"kind": "learn", "spec": "figure1",
             "save": str(target)}).encode())
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "parse" and "file paths" in error["message"]
        assert not target.exists()
        for field in ("out", "learned"):
            status, body = post(server, json.dumps(
                {"kind": "suite" if field == "out" else "atpg",
                 ("specs" if field == "out" else "spec"):
                     ["figure1"] if field == "out" else "figure1",
                 field: str(target)}).encode())
            assert status == 400, field

    # Opt-in restores the behavior for trusted local use.
    opt_in = make_server(port=0, allow_file_requests=True)
    thread = threading.Thread(target=opt_in.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = post(opt_in, json.dumps(
            {"kind": "learn", "spec": "figure1",
             "config": tiny_config().to_dict(),
             "save": str(target)}).encode())
        assert status == 200 and target.exists()
    finally:
        opt_in.shutdown()
        opt_in.server_close()
        thread.join(timeout=5)


def test_daemon_non_string_kind_is_a_parse_error_not_500():
    with running_server() as server:
        status, body = post(server, json.dumps([1, 2]).encode())
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"
        status, body = post(server, json.dumps(
            {"kind": ["atpg"]}).encode())
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse"


# ----------------------------------------------------------------------
# hostile/confused bodies: size limits and chunked transfer framing
# ----------------------------------------------------------------------
def raw_http(server, request_bytes: bytes):
    """Fire raw bytes at the daemon, return (status, json body)."""
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
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def test_oversized_body_is_413_envelope_not_a_dropped_connection():
    from repro.serve.daemon import MAX_BODY_BYTES

    with running_server() as server:
        status, payload = raw_http(server, (
            "POST /v1/execute HTTP/1.1\r\n"
            "Host: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
            "\r\n").encode())
        assert status == 413
        assert payload["ok"] is False
        assert payload["error"]["code"] == "too_large"
        assert str(MAX_BODY_BYTES) in payload["error"]["message"]
        # The daemon never read the phantom body; it still serves.
        status, body = get(server, "/v1/health")
        assert status == 200
        assert json.loads(body)["requests_failed"] == 1


def test_unsupported_method_is_501_envelope_not_html():
    with running_server() as server:
        status, payload = raw_http(
            server, b"PUT /v1/execute HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 0\r\n\r\n")
        assert status == 501
        assert payload["ok"] is False
        assert payload["error"]["code"] == "parse"
        assert payload["error"]["stage"] == "http"


def test_chunked_bodies_decode_and_malformed_chunks_are_400():
    good = json.dumps({"kind": "list"}).encode()
    chunked = (b"%x\r\n" % len(good)) + good + b"\r\n0\r\n\r\n"

    with running_server() as server:
        # A well-formed chunked POST decodes and executes normally.
        status, payload = raw_http(server, (
            b"POST /v1/execute HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n" + chunked))
        assert status == 200
        assert payload["ok"] is True and payload["command"] == "list"

        # A garbage chunk-size line is a 400 parse envelope.
        status, payload = raw_http(server, (
            b"POST /v1/execute HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"zz\r\n"))
        assert status == 400
        assert payload["error"]["code"] == "parse"
        assert "chunk size" in payload["error"]["message"]

        # Chunks adding past the body cap are a 413, pre-read.
        status, payload = raw_http(server, (
            b"POST /v1/execute HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
            b"400001\r\n"))
        assert status == 413
        assert payload["error"]["code"] == "too_large"
