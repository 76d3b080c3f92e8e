"""The structural untestability screen on hand-built circuits.

Each circuit isolates one rule of :mod:`repro.atpg.screen`: the value
sets, the cone rule (side inputs in the fault's own fanout never block)
and the class rule (a representative falls with any class member).
"""

from repro.atpg.driver import tie_untestable_indices
from repro.atpg.faults import Fault, collapse_with_classes
from repro.atpg.screen import BOTH, CAN0, CAN1, screen_untestable, value_sets
from repro.circuit import CircuitBuilder
from repro.circuit.gates import ONE, ZERO
from repro.core import learn
from repro.sim.faultsim import FaultSimulator


def test_value_sets_follow_three_valued_rules():
    b = CircuitBuilder("sets")
    b.inputs("A")
    b.gate("T", "tie0")
    b.gate("G", "and", "A", "T")       # some input can be 0, not all 1
    b.gate("O", "or", "A", "T")        # both values
    b.gate("N", "nand", "A", "T")      # NAND of {0,1} and {0}: only 1
    b.dff("F", "F")                    # never leaves power-up X
    b.gate("X", "xor", "A", "F")       # known only when every input is
    b.gate("Y", "xnor", "A", "A")      # every parity of {0,1} x {0,1}
    b.dff("H", "G")                    # collects its data input's values
    b.output("G", "O", "N", "X", "Y", "H")
    circuit = b.build()
    sets = value_sets(circuit)
    got = {name: sets[circuit.nid(name)]
           for name in ("A", "T", "G", "O", "N", "F", "X", "Y", "H")}
    assert got == {"A": BOTH, "T": CAN0, "G": CAN0, "O": BOTH,
                   "N": CAN1, "F": 0, "X": 0, "Y": BOTH, "H": CAN0}


def _reconvergent():
    """``F`` reaches ``H`` directly and through ``B``.

    ``F`` starts at X and can only ever be loaded with 0 (``D`` is an AND
    with ``F`` itself), so the good machine never shows 1 on ``B``, the
    side input of ``H``.  ``F s-a-1`` still reaches ``H`` because ``B``
    lies in the fault's own fanout and flips with it.
    """
    b = CircuitBuilder("reconvergent")
    b.inputs("I")
    b.gate("D", "and", "I", "F")
    b.gate("B", "buf", "F")
    b.gate("H", "and", "F", "B")
    b.dff("F", "D")
    b.output("H")
    return b.build()


def test_cone_rule_keeps_a_reconvergent_fault_testable():
    circuit = _reconvergent()
    fault = Fault(circuit.nid("F"), None, ONE)
    # The side input can never be non-controlling in the good machine...
    assert value_sets(circuit)[circuit.nid("B")] == CAN0
    # ...yet the fault is detected: I=0 loads F=0, and H is 0 in the
    # good machine and 1 in the faulty one.
    sequence = [{"I": 0}, {"I": 0}]
    assert FaultSimulator(circuit).detected(sequence, [fault]) == {0}
    assert screen_untestable(circuit, [fault]) == []


def test_screened_faults_of_the_reconvergent_circuit_are_undetected():
    circuit = _reconvergent()
    faults, classes = collapse_with_classes(circuit)
    screened = screen_untestable(circuit, faults, classes)
    assert screened
    simulator = FaultSimulator(circuit)
    # Every 3-frame sequence of the single input.
    for code in range(8):
        sequence = [{"I": (code >> t) & 1} for t in range(3)]
        assert not simulator.detected(sequence, faults) & set(screened)


def _tied_and():
    """``G = F1 AND F2`` with ``F1 = I`` and ``F2 = NOT I`` one frame
    late: ``G`` is 0 from frame 1 on, a sequential tie that the value
    sets alone cannot see (both inputs can be 1, just never together)."""
    b = CircuitBuilder("tied_and")
    b.inputs("I")
    b.gate("N", "not", "I")
    b.gate("G", "and", "F1", "F2")
    b.dff("F1", "I")
    b.dff("F2", "N")
    b.output("G")
    return b.build()


def test_class_rule_carries_a_tie_to_its_representative():
    circuit = _tied_and()
    learned = learn(circuit)
    assert learned.ties.value_of(circuit.nid("G")) == ZERO
    faults, classes = collapse_with_classes(circuit)
    rep = Fault(circuit.nid("F1"), None, ZERO)
    assert Fault(circuit.nid("G"), None, ZERO) in classes[rep]
    index = faults.index(rep)
    # F1 s-a-0 on its own looks testable: F1 can be 1, and so can the
    # side input F2.  Only its class member G s-a-0 is tied.
    assert index not in screen_untestable(circuit, faults, None,
                                          learned.ties)
    screened = screen_untestable(circuit, faults, classes, learned.ties)
    assert index in screened
    assert tie_untestable_indices(circuit, learned, faults,
                                  classes) <= set(screened)
