"""Fault universe, equivalence collapsing and SCOAP measures."""

import pytest

from repro.circuit import CircuitBuilder, figure1, s27
from repro.circuit.gates import ONE, ZERO
from repro.atpg.faults import (
    Fault,
    collapse_faults,
    collapse_with_classes,
    fault_site_source,
    full_fault_list,
)
from repro.atpg.scoap import compute_testability


def test_full_fault_list_counts():
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("g", "and", "a", "b")
    b.output("g")
    c = b.build()
    faults = full_fault_list(c)
    # a, b, g outputs: 3 nodes x 2 values; no branch faults (fanouts = 1).
    assert len(faults) == 6


def test_branch_faults_only_on_stems():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("g1", "not", "a")
    b.gate("g2", "buf", "a")
    b.output("g1", "g2")
    c = b.build()
    faults = full_fault_list(c)
    branch = [f for f in faults if f.pin is not None]
    assert len(branch) == 4  # both branches of stem a, 2 values each


def test_collapse_reduces_and_covers():
    c = s27()
    full = full_fault_list(c)
    collapsed, classes = collapse_with_classes(c)
    assert len(collapsed) < len(full)
    assert sum(len(m) for m in classes.values()) == len(full)
    assert set(collapsed) <= set(full)
    # s27's classic collapsed fault count is 32.
    assert len(collapsed) == 32


def test_collapse_inverter_chain():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("g1", "not", "a")
    b.gate("g2", "not", "g1")
    b.output("g2")
    c = b.build()
    collapsed = collapse_faults(c)
    # a-sa0 == g1-sa1 == g2-sa0 and dually: only 2 classes remain.
    assert len(collapsed) == 2


def test_collapse_and_gate():
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("g", "and", "a", "b")
    b.output("g")
    c = b.build()
    collapsed = collapse_faults(c)
    # {a0,b0,g0} merge; a1, b1, g1 remain distinct: 4 classes.
    assert len(collapsed) == 4


def test_primary_output_feeding_one_gate_keeps_its_own_class():
    """A PO is observed directly, so its faults are not equivalent to
    the faults of the one gate it feeds."""
    b = CircuitBuilder()
    b.inputs("a", "b", "c")
    b.gate("p", "and", "a", "b")
    b.gate("q", "or", "p", "c")
    b.output("p", "q")
    c = b.build()
    _collapsed, classes = collapse_with_classes(c)
    p, q = c.nid("p"), c.nid("q")
    for value in (ZERO, ONE):
        members = next(m for m in classes.values()
                       if Fault(p, None, value) in m)
        assert Fault(q, None, value) not in members
    # The fanout-free AND inputs still collapse into p's class.
    assert Fault(c.nid("a"), None, ZERO) in next(
        m for m in classes.values() if Fault(p, None, ZERO) in m)


def test_collapse_representative_prefers_output_faults():
    c = figure1()
    collapsed = collapse_faults(c)
    # No representative should be a branch fault when its class holds an
    # output fault on the same gate.
    _reps, classes = collapse_with_classes(c)
    for rep, members in classes.items():
        if any(m.pin is None for m in members):
            assert rep.pin is None or rep not in members[1:]


def test_fault_site_source():
    c = s27()
    g8 = c.nid("G8")
    out_fault = Fault(g8, None, ZERO)
    assert fault_site_source(c, out_fault) == g8
    pin_fault = Fault(g8, 1, ZERO)
    assert fault_site_source(c, pin_fault) == c.node("G8").fanins[1]


def test_describe():
    c = s27()
    f = Fault(c.nid("G8"), None, ONE)
    assert f.describe(c) == "G8 s-a-1"
    fp = Fault(c.nid("G8"), 0, ZERO)
    assert "G8.in0(" in fp.describe(c)


# ---------------------------------------------------------------------------
# SCOAP
# ---------------------------------------------------------------------------

def test_scoap_pi_baseline():
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("g", "and", "a", "b")
    b.output("g")
    c = b.build()
    t = compute_testability(c)
    a = c.nid("a")
    assert t.cc0[a] == 1 and t.cc1[a] == 1
    g = c.nid("g")
    assert t.cc1[g] == 3   # both inputs at 1: 1+1+1
    assert t.cc0[g] == 2   # cheapest single 0: 1+1
    assert t.co[g] == 0    # primary output


def test_scoap_observability_side_inputs():
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("g", "and", "a", "b")
    b.output("g")
    c = b.build()
    t = compute_testability(c)
    # Observing `a` through the AND needs b=1: co = 0 + cc1(b) + 1.
    assert t.co[c.nid("a")] == 2


def test_scoap_sequential_depth_penalty():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("d", "buf", "a")
    b.dff("f", "d")
    b.gate("q", "buf", "f")
    b.output("q")
    c = b.build()
    t = compute_testability(c)
    assert t.cc1[c.nid("f")] > t.cc1[c.nid("a")]
    assert t.co[c.nid("a")] > t.co[c.nid("q")]


def test_scoap_xor():
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("g", "xor", "a", "b")
    b.output("g")
    c = b.build()
    t = compute_testability(c)
    g = c.nid("g")
    assert t.cc0[g] == 3 and t.cc1[g] == 3


def test_scoap_all_finite_on_real_circuit():
    c = s27()
    t = compute_testability(c)
    for node in c.nodes:
        assert t.cc0[node.nid] < 10 ** 6, node.name
        assert t.cc1[node.nid] < 10 ** 6, node.name
