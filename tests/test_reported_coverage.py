"""Every reported verdict count is true of the kept test set.

For each circuit and mode a default-config :func:`~repro.atpg.run_atpg`
keeps its test sequences; the reference :class:`~repro.sim.faultsim.
FaultSimulator` then grades them against the run's own fault list.  The
set of faults the tests detect must have exactly the reported ``det``
size.  No fault the structural screen pre-marks untestable may be
among them, nor among the faults 256 random 30-frame sequences detect,
and the screen's verdicts contain every tie verdict.  The same holds
for the test vectors an API client receives in the envelope's
``vectors`` section, streamed or one-shot.
"""

import http.client
import json
import random
import threading
from contextlib import closing

import pytest

from repro.api import ATPGRequest, ArtifactStore, make_server
from repro.atpg import run_atpg
from repro.atpg.driver import prepare_fault_list, tie_untestable_indices
from repro.atpg.faults import Fault
from repro.atpg.screen import screen_untestable
from repro.circuit.gates import ZERO
from repro.core import learn
from repro.flow import ATPGConfig, ReproConfig
from repro.flow.session import resolve_circuit
from repro.sim.faultsim import FaultSimulator

SPECS = ("figure1", "like:s641@0.1", "like:s967@0.1")
MODES = ("none", "forbidden", "known")

#: The random refutation of screen verdicts: this many sequences of
#: this many frames, graded by the reference fault simulator.
RANDOM_SEQUENCES = 256
RANDOM_FRAMES = 30

_LEARNED = {}
_RANDOM_HITS = {}


def _learned(spec):
    if spec not in _LEARNED:
        _LEARNED[spec] = learn(resolve_circuit(spec))
    return _LEARNED[spec]


def _randomly_detected(spec):
    """Indices of the default fault list that random sequences detect,
    among the faults the screen settles with or without learned ties."""
    if spec not in _RANDOM_HITS:
        learned = _learned(spec)
        circuit = learned.circuit
        config = ATPGConfig()
        faults, classes = prepare_fault_list(circuit,
                                             max_faults=config.max_faults,
                                             fill_seed=config.fill_seed)
        candidates = sorted(
            set(screen_untestable(circuit, faults, classes))
            | set(screen_untestable(circuit, faults, classes,
                                    learned.ties)))
        subset = [faults[i] for i in candidates]
        names = [circuit.nodes[i].name for i in circuit.inputs]
        rng = random.Random(f"screen:{spec}")
        simulator = FaultSimulator(circuit)
        hits = set()
        for _ in range(RANDOM_SEQUENCES):
            sequence = [{name: rng.randint(0, 1) for name in names}
                        for _ in range(RANDOM_FRAMES)]
            hits |= {candidates[i]
                     for i in simulator.detected(sequence, subset)}
        _RANDOM_HITS[spec] = hits
    return _RANDOM_HITS[spec]


@pytest.mark.parametrize("spec,mode", [(s, m) for s in SPECS for m in MODES])
def test_kept_tests_detect_exactly_the_reported_faults(spec, mode):
    learned = _learned(spec)
    circuit = learned.circuit
    used = learned if mode != "none" else None
    config = ATPGConfig(mode=mode, keep_sequences=True)
    stats = run_atpg(circuit, learned=used, config=config)
    faults, classes = prepare_fault_list(circuit,
                                         max_faults=config.max_faults,
                                         fill_seed=config.fill_seed)
    simulator = FaultSimulator(circuit)
    detected = set()
    for sequence in stats.sequences:
        detected |= simulator.detected(sequence, faults)
    assert len(detected) == stats.detected
    tied = tie_untestable_indices(circuit, used, faults, classes)
    assert not detected & tied
    screened = set(screen_untestable(
        circuit, faults, classes, used.ties if used is not None else None))
    assert len(screened) == stats.screened
    assert tied <= screened
    assert not detected & screened
    assert not _randomly_detected(spec) & screened


def test_primary_output_fault_is_not_tie_untestable():
    """``G34`` is a PO that feeds one gate; a learned tie on that gate
    must not pull ``G34 s-a-0`` into its untestable class."""
    learned = _learned("like:s967@0.1")
    circuit = learned.circuit
    faults, classes = prepare_fault_list(circuit)
    g34 = Fault(circuit.nid("G34"), None, ZERO)
    assert g34 in faults
    tied = tie_untestable_indices(circuit, learned, faults, classes)
    assert faults.index(g34) not in tied


def _post(server, path: str, body: bytes) -> bytes:
    host, port = server.server_address[:2]
    with closing(http.client.HTTPConnection(host, port,
                                            timeout=300)) as conn:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        return response.read()


def _stream_envelope(raw: bytes) -> bytes:
    """The terminal envelope bytes of one NDJSON stream."""
    offset = 0
    while True:
        end = raw.index(b"\n", offset)
        record = json.loads(raw[offset:end])
        offset = end + 1
        if record.get("event") == "result" and "bytes" in record:
            assert len(raw) == offset + record["bytes"]
            return raw[offset:]


@pytest.mark.parametrize("spec", SPECS)
def test_envelope_vectors_detect_exactly_the_reported_faults(spec):
    config = ReproConfig(atpg=ATPGConfig(keep_sequences=True))
    body = ATPGRequest(spec=spec, config=config, modes=MODES,
                       canonical=True).to_canonical_json().encode()
    server = make_server(port=0, store=ArtifactStore())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        one_shot = _post(server, "/v1/execute", body)
        streamed = _stream_envelope(_post(server, "/v1/stream", body))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert streamed == one_shot
    envelope = json.loads(one_shot)
    assert set(envelope["vectors"]) == set(MODES)
    circuit = _learned(spec).circuit
    faults, _ = prepare_fault_list(circuit)
    simulator = FaultSimulator(circuit)
    for mode in MODES:
        row = envelope["atpg"][mode]
        vectors = envelope["vectors"][mode]
        assert len(vectors) == row["sequences"]
        detected = set()
        for sequence in vectors:
            detected |= simulator.detected(sequence, faults)
        assert len(detected) == row["det"], mode
