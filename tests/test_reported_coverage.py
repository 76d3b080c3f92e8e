"""Every reported verdict count is true of the kept test set.

For each circuit and mode a default-config :func:`~repro.atpg.run_atpg`
keeps its test sequences; the reference :class:`~repro.sim.faultsim.
FaultSimulator` then grades them against the run's own fault list.  The
set of faults the tests detect must have exactly the reported ``det``
size, and no fault pre-marked untestable by a learned tie may be among
them.
"""

import pytest

from repro.atpg import run_atpg
from repro.atpg.driver import prepare_fault_list, tie_untestable_indices
from repro.atpg.faults import Fault
from repro.circuit.gates import ZERO
from repro.core import learn
from repro.flow import ATPGConfig
from repro.flow.session import resolve_circuit
from repro.sim.faultsim import FaultSimulator

SPECS = ("figure1", "like:s641@0.1", "like:s967@0.1")
MODES = ("none", "forbidden", "known")

_LEARNED = {}


def _learned(spec):
    if spec not in _LEARNED:
        _LEARNED[spec] = learn(resolve_circuit(spec))
    return _LEARNED[spec]


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
