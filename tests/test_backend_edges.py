"""Edge cases both fault-simulation backends must handle identically.

These paths used to rely on untested fall-through behaviour (an empty
fault list still simulated the good machine; width 0 died inside
``range``); now they are explicit: empty inputs give well-formed empty
results and invalid widths fail loudly at construction.
"""

import random

import pytest

from repro.atpg.faults import Fault, collapse_faults
from repro.circuit import random_circuit, s27
from repro.circuit.gates import ZERO
from repro.sim import (
    CompiledFaultSimulator,
    FaultSimulator,
    fault_coverage,
    make_fault_simulator,
)

#: Every fault-simulator backend.
BACKENDS = (FaultSimulator, CompiledFaultSimulator)
BACKEND_IDS = ("reference", "compiled")


def _circuit():
    return random_circuit("edge", n_inputs=3, n_outputs=2, n_ffs=3,
                          n_gates=14, seed=7)


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
def test_empty_fault_list(sim_cls):
    circuit = _circuit()
    seq = [{"I0": 1, "I1": 0, "I2": 1}] * 3
    assert sim_cls(circuit).detected(seq, []) == set()


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
def test_empty_sequence(sim_cls):
    circuit = _circuit()
    faults = collapse_faults(circuit)
    assert sim_cls(circuit).detected([], faults) == set()


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
def test_all_x_sequence_detects_nothing(sim_cls):
    """Unknown stimuli cannot satisfy the hard detection criterion."""
    circuit = _circuit()
    faults = collapse_faults(circuit)
    assert sim_cls(circuit).detected([{}, {}, {}], faults) == set()


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
def test_width_one_word(sim_cls):
    """One machine per word: every batch holds a single fault."""
    circuit = s27()
    faults = collapse_faults(circuit)
    seq = [{circuit.nodes[i].name: 1 for i in circuit.inputs}
           for _ in range(6)]
    wide = sim_cls(circuit, width=64).detected(seq, faults)
    narrow = sim_cls(circuit, width=1).detected(seq, faults)
    assert narrow == wide


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("width", (0, -3))
def test_invalid_width_rejected(sim_cls, width):
    with pytest.raises(ValueError, match="width"):
        sim_cls(_circuit(), width=width)


def test_make_fault_simulator_backends():
    circuit = _circuit()
    assert isinstance(make_fault_simulator(circuit, backend="reference"),
                      FaultSimulator)
    assert isinstance(make_fault_simulator(circuit, backend="compiled"),
                      CompiledFaultSimulator)
    # Schema version 6 removed the 'array' backend.
    for name in ("numpy", "array"):
        with pytest.raises(ValueError, match="backend"):
            make_fault_simulator(circuit, backend=name)


@pytest.mark.parametrize("sim_cls", BACKENDS, ids=BACKEND_IDS)
def test_partial_final_batch_has_no_ghost_machines(sim_cls):
    """width*k + 1 faults at width=128: the final batch holds one live
    machine and an all-zero tail of word bits.  The ``full`` mask must
    be the live batch width, so ghost columns can never contribute to
    detection (a ghost "detection" would index past the fault list or
    resurrect a dropped fault)."""
    circuit = random_circuit("ghosts", n_inputs=6, n_outputs=4, n_ffs=5,
                             n_gates=80, seed=11)
    faults = collapse_faults(circuit)
    width = 128
    assert len(faults) > width, "need width*k + 1 faults with k >= 1"
    k = (len(faults) - 1) // width
    faults = faults[:width * k + 1]
    rng = random.Random(2024)
    names = [circuit.nodes[i].name for i in circuit.inputs]
    seq = [{name: rng.randint(0, 1) for name in names}
           for _ in range(12)]
    oracle = FaultSimulator(circuit, width=8).detected(seq, faults)
    got = sim_cls(circuit, width=width).detected(seq, faults)
    assert got == oracle
    assert all(0 <= index < len(faults) for index in got)


def test_fault_coverage_empty_inputs():
    circuit = _circuit()
    assert fault_coverage(circuit, [], []) == 1.0
    assert fault_coverage(circuit, [[{"I0": 1}]], []) == 1.0
    faults = [Fault(circuit.nid("G0"), None, ZERO)]
    assert fault_coverage(circuit, [], faults) == 0.0
    assert fault_coverage(circuit, [[]], faults) == 0.0
