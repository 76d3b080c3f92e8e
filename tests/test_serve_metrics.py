"""Metrics registry: counters, histograms, exports, and the endpoint.

The registry is plain data structures behind one lock; these tests pin
the le-bucket semantics, the deterministic exports (JSON + Prometheus
text), exactness under contention, and the ``GET /v1/metrics`` surface
of a live daemon.
"""

import http.client
import json
import threading
import time
from contextlib import closing, contextmanager

from repro.api import ListRequest, make_server
from repro.serve import Metrics, histogram_quantile
from repro.serve.metrics import DEPTH_BUCKETS, LATENCY_BUCKETS_S


def test_counter_series_and_totals():
    metrics = Metrics()
    metrics.inc("requests_total", {"kind": "atpg", "outcome": "ok"})
    metrics.inc("requests_total", {"kind": "atpg", "outcome": "ok"})
    metrics.inc("requests_total", {"outcome": "ok", "kind": "learn"})
    metrics.inc("rejections_total", value=5)
    assert metrics.counter_value(
        "requests_total", {"kind": "atpg", "outcome": "ok"}) == 2
    # Label order is irrelevant to series identity.
    assert metrics.counter_value(
        "requests_total", {"outcome": "ok", "kind": "atpg"}) == 2
    assert metrics.counter_total("requests_total") == 3
    assert metrics.counter_value("rejections_total") == 5
    assert metrics.counter_value("never_bumped_total") == 0
    metrics.inc("requests_total", {"kind": "atpg", "outcome": "error"})
    assert metrics.counter_by("requests_total", "outcome") == {
        "ok": 3, "error": 1}
    assert metrics.counter_by("rejections_total", "outcome") == {"": 5}


def test_histogram_le_bucket_semantics():
    metrics = Metrics()
    metrics.observe("depth", 0, buckets=(1, 2, 4))
    metrics.observe("depth", 1, buckets=(1, 2, 4))  # == bound -> le bucket
    metrics.observe("depth", 3)
    metrics.observe("depth", 100)  # beyond the last bound -> +Inf
    snapshot = metrics.histogram_snapshot("depth")
    assert snapshot["bounds"] == [1, 2, 4]
    assert snapshot["counts"] == [2, 0, 1, 1]
    assert snapshot["count"] == 4
    assert snapshot["sum"] == 104
    assert metrics.histogram_snapshot("never_observed") is None


def test_histogram_bounds_fixed_by_first_observation():
    metrics = Metrics()
    metrics.observe("wait", 0.5, {"class": "batch"}, buckets=(1, 10))
    # A different series of the same name reuses the first bounds even
    # when the call names different buckets.
    metrics.observe("wait", 5.0, {"class": "interactive"},
                    buckets=(2, 3, 4))
    snapshot = metrics.histogram_snapshot("wait",
                                          {"class": "interactive"})
    assert snapshot["bounds"] == [1, 10]
    assert snapshot["counts"] == [0, 1, 0]


def test_default_buckets_are_latency_flavoured():
    metrics = Metrics()
    metrics.observe("request_latency_s", 0.3)
    snapshot = metrics.histogram_snapshot("request_latency_s")
    assert snapshot["bounds"] == list(LATENCY_BUCKETS_S)


def test_to_dict_sorted_and_labelled():
    metrics = Metrics()
    metrics.inc("b_total", {"x": "2"})
    metrics.inc("a_total")
    metrics.observe("lat", 0.01, {"kind": "atpg"}, buckets=(0.1, 1.0))
    exported = metrics.to_dict()
    assert list(exported["counters"]) == ["a_total", 'b_total{x="2"}']
    histogram = exported["histograms"]['lat{kind="atpg"}']
    assert histogram["buckets"] == {"0.1": 1, "1": 0, "+Inf": 0}
    assert histogram["count"] == 1
    # Export is stable across calls (no hash-order leakage).
    assert json.dumps(exported, sort_keys=False) == \
        json.dumps(metrics.to_dict(), sort_keys=False)


def test_render_prometheus_cumulative_buckets_and_gauges():
    metrics = Metrics()
    metrics.inc("requests_total", {"kind": "atpg"})
    metrics.observe("lat", 0.05, buckets=(0.1, 1.0))
    metrics.observe("lat", 0.5, buckets=(0.1, 1.0))
    metrics.observe("lat", 30.0, buckets=(0.1, 1.0))
    text = metrics.render_prometheus(gauges={"active": 3})
    lines = text.splitlines()
    assert "# TYPE repro_requests_total counter" in lines
    assert 'repro_requests_total{kind="atpg"} 1' in lines
    assert "# TYPE repro_lat histogram" in lines
    # Buckets are cumulative at export: 1, then 1+1, then +Inf = all.
    assert 'repro_lat_bucket{le="0.1"} 1' in lines
    assert 'repro_lat_bucket{le="1"} 2' in lines
    assert 'repro_lat_bucket{le="+Inf"} 3' in lines
    assert "repro_lat_sum 30.55" in lines
    assert "repro_lat_count 3" in lines
    assert "# TYPE repro_active gauge" in lines
    assert "repro_active 3" in lines
    assert text.endswith("\n")


def test_histogram_quantile_conservative_upper_bound():
    bounds = (1, 2, 4)
    #          <=1 <=2 <=4 +Inf
    counts = (5, 3, 1, 1)
    assert histogram_quantile(bounds, counts, 0.5) == 1.0
    assert histogram_quantile(bounds, counts, 0.8) == 2.0
    assert histogram_quantile(bounds, counts, 0.9) == 4.0
    # Observations in +Inf report the largest finite bound.
    assert histogram_quantile(bounds, counts, 1.0) == 4.0
    assert histogram_quantile(bounds, (0, 0, 0, 0), 0.99) == 0.0


def test_exact_counts_under_contention():
    metrics = Metrics()
    per_thread = 500

    def hammer():
        for _ in range(per_thread):
            metrics.inc("hits_total")
            metrics.observe("lat", 0.01, buckets=(1.0,))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert metrics.counter_value("hits_total") == 8 * per_thread
    assert metrics.histogram_snapshot("lat")["count"] == 8 * per_thread


# ----------------------------------------------------------------------
# the live endpoint
# ----------------------------------------------------------------------
@contextmanager
def running_server():
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def fetch(server, path, headers=None):
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=60)) as conn:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), \
            response.read()


def settle(server, name="requests_total", timeout=10):
    """Metrics land in the handler's ``finally`` a beat after the
    response bytes; wait for the counter so scrapes are deterministic."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.metrics.counter_total(name) > 0:
            return
        time.sleep(0.01)
    raise AssertionError(f"{name} never recorded")


def test_metrics_endpoint_json_and_prometheus():
    with running_server() as server:
        host, port = server.server_address[:2]
        body = json.dumps(ListRequest().to_dict()).encode()
        with closing(http.client.HTTPConnection(host, port,
                                                timeout=60)) as conn:
            conn.request("POST", "/v1/execute", body=body)
            assert conn.getresponse().read()
        settle(server)

        status, content_type, body = fetch(server, "/v1/metrics")
        assert status == 200 and "application/json" in content_type
        payload = json.loads(body)
        counters = payload["metrics"]["counters"]
        assert any(key.startswith("requests_total") for key in counters)
        assert {"caches", "admission"} <= set(payload)
        assert set(payload["caches"]) == {"kernel_cache",
                                          "artifact_store"}
        assert payload["admission"]["active"] == 0

        for path, headers in (
                ("/v1/metrics?format=prometheus", None),
                ("/v1/metrics", {"Accept": "text/plain"})):
            status, content_type, body = fetch(server, path,
                                               headers=headers)
            assert status == 200
            assert content_type == "text/plain; version=0.0.4"
            text = body.decode()
            assert "# TYPE repro_requests_total counter" in text
            assert 'outcome="ok"' in text
            # requests_total is the one ledger; no duplicate gauges.
            assert "repro_requests_served" not in text
            assert "repro_kernel_cache_" in text


def test_queue_depth_histogram_uses_depth_buckets():
    with running_server() as server:
        host, port = server.server_address[:2]
        body = json.dumps(ListRequest().to_dict()).encode()
        with closing(http.client.HTTPConnection(host, port,
                                                timeout=60)) as conn:
            conn.request("POST", "/v1/execute", body=body)
            conn.getresponse().read()
        settle(server)
        snapshot = server.metrics.histogram_snapshot("queue_depth")
        assert snapshot is not None
        assert snapshot["bounds"] == list(DEPTH_BUCKETS)
