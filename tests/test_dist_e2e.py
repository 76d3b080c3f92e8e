"""End-to-end distributed runs: real coordinator, real worker loops.

The headline contract: a fleet of N workers draining a coordinator
produces a canonical suite envelope **byte-identical** to a serial
one-shot ``suite`` request and to a ``jobs=2`` pool run -- for any N,
with failing specs in the list, and even when a worker dies mid-unit
and its lease is re-issued.
"""

import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.api import ArtifactStore, StatsRequest, SuiteRequest, execute
from repro.core import LearnConfig
from repro.dist import WorkerLoop
from repro.dist.coordinator import make_coordinator
from repro.dist.protocol import LEASE_PATH, http_bytes, http_json
from repro.flow import ATPGConfig, ReproConfig
from repro.flow.config import ATPG_MODES

SPECS = ("figure1", "s27")


def tiny_config() -> ReproConfig:
    return ReproConfig(learn=LearnConfig(max_frames=5),
                       atpg=ATPGConfig(backtrack_limit=5, max_frames=3))


def serial_suite_json(specs=SPECS, config=None,
                      modes=ATPG_MODES) -> str:
    response = execute(SuiteRequest(specs=tuple(specs),
                                    modes=tuple(modes),
                                    config=config or tiny_config(),
                                    canonical=True))
    assert response.ok
    return response.to_json()


@contextmanager
def running_coordinator(**kwargs):
    kwargs.setdefault("specs", SPECS)
    kwargs.setdefault("config", tiny_config())
    server = make_coordinator(**kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def run_fleet(server, n_workers, **kwargs):
    """Drain the coordinator with N in-thread worker loops."""
    kwargs.setdefault("poll_s", 0.02)
    loops = [WorkerLoop(server.url, worker_id=f"w{i}", **kwargs)
             for i in range(n_workers)]
    threads = [threading.Thread(target=loop.run, daemon=True)
               for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads), \
        "worker loop wedged"
    return loops


# ----------------------------------------------------------------------
# determinism: N workers == serial, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_workers", [2, 4])
def test_fleet_matches_serial_suite_bytes(n_workers):
    with running_coordinator() as server:
        loops = run_fleet(server, n_workers)
        assert server.job.done()
        merged = server.job.merge_suite(canonical=True)
    assert merged.ok
    assert merged.to_json() == serial_suite_json()
    # The fleet actually shared the load: every unit completed exactly
    # once in the job's books, regardless of who raced whom.
    assert sum(loop.units_completed for loop in loops) >= len(
        server.job.unit_order)


def test_serial_pool_and_fleet_emit_identical_bytes():
    """One suite, three executors, one document -- error records too."""
    specs = ("figure1", "s27", "nosuch")
    modes = ("none", "known")
    config = tiny_config()
    outputs = [serial_suite_json(specs, config, modes)]
    pooled = execute(SuiteRequest(specs=specs, modes=modes,
                                  canonical=True,
                                  config=replace(config, jobs=2)))
    outputs.append(pooled.to_json())
    with running_coordinator(specs=specs, config=config,
                             modes=modes) as server:
        run_fleet(server, 2)
        merged = server.job.merge_suite(canonical=True)
    outputs.append(merged.to_json())
    assert outputs[0] == outputs[1] == outputs[2]
    assert merged.exit_code == pooled.exit_code == 1
    assert merged.result["errors"][0]["spec"] == "nosuch"
    assert merged.result["errors"][0]["stage"] == "resolve"


def test_merge_is_idempotent_and_stable():
    with running_coordinator(specs=("s27",)) as server:
        run_fleet(server, 2)
        first = server.job.merge_suite(canonical=True).to_json()
        second = server.job.merge_suite(canonical=True).to_json()
    assert first == second


# ----------------------------------------------------------------------
# fault tolerance: dead worker, lease re-issue, still byte-identical
# ----------------------------------------------------------------------
def test_worker_death_reissues_lease_and_preserves_bytes():
    with running_coordinator(lease_timeout_s=0.5) as server:
        # A worker leases a unit and is then killed: no heartbeat, no
        # completion, nothing.
        status, grant = http_json("POST", server.url, LEASE_PATH,
                                  {"worker_id": "doomed"})
        assert status == 200 and grant["unit"] is not None
        survivors = run_fleet(server, 2)
        assert server.job.done()
        assert server.job.leases_expired >= 1
        # The dead worker's unit was re-run by a survivor ...
        assert grant["unit"]["unit_id"] in server.job.completed
        merged = server.job.merge_suite(canonical=True)
    # ... and the output is still the serial bytes.
    assert merged.to_json() == serial_suite_json()
    assert sum(loop.units_completed for loop in survivors) == len(
        server.job.unit_order)


class _Quitter(WorkerLoop):
    """A worker loop that signals when its first unit is delivered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_unit = threading.Event()

    def run_one(self) -> str:
        step = super().run_one()
        if step == "ran":
            self.first_unit.set()
        return step


def test_graceful_stop_drains_and_fleet_recovers():
    with running_coordinator() as server:
        quitter = _Quitter(server.url, worker_id="quitter", poll_s=0.02)
        thread = threading.Thread(target=quitter.run, daemon=True)
        thread.start()
        assert quitter.first_unit.wait(timeout=60)
        assert quitter.units_completed >= 1
        quitter.stop()  # the SIGTERM path: finish current unit, exit
        thread.join(timeout=60)
        assert not thread.is_alive()
        # A replacement worker finishes the job; nothing the quitter
        # completed is lost or re-run into disagreement.
        run_fleet(server, 1)
        assert server.job.done()
        merged = server.job.merge_suite(canonical=True)
    assert merged.to_json() == serial_suite_json()


# ----------------------------------------------------------------------
# hostile coordinators: garbled transport
# ----------------------------------------------------------------------
@contextmanager
def garbled_http_server():
    """A socket that answers any request with a non-HTTP byte salad."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(5)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.recv(65536)
                conn.sendall(b"totally not http\r\n\r\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=5)


def test_garbled_transport_is_normalized_to_oserror():
    """``http.client`` reports a garbled status line as BadStatusLine,
    which is *not* an OSError -- ``http_bytes`` must normalize it so
    every ``except OSError`` in the dist tier actually catches it."""
    with garbled_http_server() as url:
        with pytest.raises(OSError):
            http_bytes("GET", url, "/v1/health", timeout=5.0)
        # Through a worker's lease call the same failure is
        # "unreachable", not a crash of the loop.
        loop = WorkerLoop(url, timeout=5.0)
        assert loop.run_one() == "unreachable"


# ----------------------------------------------------------------------
# heartbeat failures: counted and announced, never silent
# ----------------------------------------------------------------------
def test_heartbeat_failures_counted_and_announced_once_per_lease(
        monkeypatch):
    import repro.dist.worker as worker_mod

    messages = []
    # Nothing listens on the coordinator port: every beat fails fast.
    loop = WorkerLoop("http://127.0.0.1:9", timeout=0.2,
                      announce=messages.append)

    class _Done:
        @staticmethod
        def envelope():
            return {"ok": True}

    def slow_execute(request):
        time.sleep(0.25)  # long enough for several missed beats
        return _Done()

    monkeypatch.setattr(worker_mod, "execute", slow_execute)
    envelope = loop._execute_with_heartbeats("u1", {}, heartbeat_s=0.02)
    assert envelope == {"ok": True}
    # Every miss is counted; the announcement fires once per lease.
    assert loop.degrade_counts["io"] >= 2
    assert len([m for m in messages if "heartbeat" in m]) == 1

    envelope = loop._execute_with_heartbeats("u2", {}, heartbeat_s=0.02)
    assert envelope == {"ok": True}
    assert len([m for m in messages if "heartbeat" in m]) == 2


# ----------------------------------------------------------------------
# satellite: store statistics surfaced through the stats request
# ----------------------------------------------------------------------
def test_stats_request_surfaces_artifact_store_counters():
    store = ArtifactStore()
    response = execute(StatsRequest(spec="figure1"), store=store)
    assert response.ok
    counters = response.result["artifact_store"]
    for key in ("memory_hits", "disk_hits", "misses", "puts",
                "flight_waits"):
        assert key in counters
