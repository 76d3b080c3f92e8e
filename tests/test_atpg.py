"""Sequential ATPG: correctness of detect/untestable claims and the
learned-implication modes."""

import random

import pytest

from repro.circuit import CircuitBuilder, figure1, figure2, s27
from repro.circuit.gates import ONE, ZERO
from repro.core import learn
from repro.atpg import (
    Fault,
    SequentialATPG,
    collapse_faults,
    compare_untestable,
    fires_untestable,
    run_atpg,
)
from repro.flow import ATPGConfig
from repro.sim import fault_simulate


def test_trivial_combinational_fault():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("g", "not", "a")
    b.output("g")
    c = b.build()
    atpg = SequentialATPG(c, backtrack_limit=10, max_frames=2)
    r = atpg.generate(Fault(c.nid("g"), None, ZERO))
    assert r.status == "detected"
    assert fault_simulate(c, r.sequence, [Fault(c.nid("g"), None, ZERO)]) \
        == {0}


def test_sequential_fault_needs_two_frames():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("d", "buf", "a")
    b.dff("f", "d")
    b.gate("q", "not", "f")
    b.output("q")
    c = b.build()
    atpg = SequentialATPG(c, backtrack_limit=10, max_frames=4)
    r = atpg.generate(Fault(c.nid("d"), None, ZERO))
    assert r.status == "detected"
    assert r.frames_used >= 2


def test_tied_fault_proven_untestable():
    b = CircuitBuilder()
    b.inputs("a")
    b.gate("t", "xor", "a", "a")     # constant 0
    b.gate("g", "or", "t", "a")
    b.output("g")
    c = b.build()
    atpg = SequentialATPG(c, backtrack_limit=100, max_frames=3)
    r = atpg.generate(Fault(c.nid("t"), None, ZERO))
    assert r.status == "untestable"


def test_every_s27_fault_detected_and_sequences_work():
    c = s27()
    faults = collapse_faults(c)
    atpg = SequentialATPG(c, backtrack_limit=1000, max_frames=10)
    for fault in faults:
        r = atpg.generate(fault)
        assert r.status == "detected", fault.describe(c)
        assert fault_simulate(c, r.sequence, [fault]) == {0}, \
            fault.describe(c)


@pytest.mark.parametrize("mode", ["known", "forbidden"])
def test_learning_modes_agree_on_s27(mode):
    c = s27()
    learned = learn(c)
    faults = collapse_faults(c)
    atpg = SequentialATPG(c, relations=learned.relations, mode=mode,
                          backtrack_limit=1000, max_frames=10)
    for fault in faults:
        r = atpg.generate(fault)
        assert r.status == "detected", fault.describe(c)
        assert fault_simulate(c, r.sequence, [fault]) == {0}


def test_untestable_claims_never_contradicted():
    """Any fault the ATPG calls untestable must resist random search."""
    rng = random.Random(42)
    for make in (figure1, figure2):
        c = make()
        faults = collapse_faults(c)
        atpg = SequentialATPG(c, backtrack_limit=200, max_frames=8)
        untestable = [f for f in faults
                      if atpg.generate(f).status == "untestable"]
        if not untestable:
            continue
        names = [c.nodes[i].name for i in c.inputs]
        hit = set()
        for _ in range(150):
            seq = [{n: rng.randint(0, 1) for n in names}
                   for _ in range(16)]
            hit |= fault_simulate(c, seq, untestable)
        assert hit == set(), \
            sorted(untestable[i].describe(c) for i in hit)


def test_figure2_decision_pruning_story():
    """Detecting G9 s-a-1 exercises the paper's section 4 example."""
    c = figure2()
    learned = learn(c)
    assert learned.relations.has("G9", 0, "F2", 0)
    fault = Fault(c.nid("G9"), None, ONE)
    results = {}
    for mode, relations in (("none", None),
                            ("known", learned.relations),
                            ("forbidden", learned.relations)):
        atpg = SequentialATPG(c, relations=relations, mode=mode,
                              backtrack_limit=1000, max_frames=6)
        r = atpg.generate(fault)
        assert r.status == "detected"
        assert fault_simulate(c, r.sequence, [fault]) == {0}
        results[mode] = r
    # Learning must not make the search *larger* on this fault.
    assert results["known"].decisions <= results["none"].decisions + 2


def test_backtrack_limit_aborts():
    # A hard fault with a tiny limit must abort, not loop forever.
    c = figure1()
    faults = collapse_faults(c)
    atpg = SequentialATPG(c, backtrack_limit=0, max_frames=6)
    statuses = {atpg.generate(f).status for f in faults[:20]}
    assert "aborted" in statuses


def test_invalid_mode_rejected():
    c = s27()
    with pytest.raises(ValueError):
        SequentialATPG(c, mode="bogus")
    with pytest.raises(ValueError):
        SequentialATPG(c, mode="known")  # no relations supplied


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_run_atpg_accounting():
    c = s27()
    stats = run_atpg(c, config=ATPGConfig(
        mode="none", backtrack_limit=1000, keep_sequences=True))
    assert stats.detected + stats.untestable + stats.aborted == \
        stats.total_faults
    assert stats.detected == stats.total_faults  # s27 fully testable
    assert 0.99 <= stats.test_coverage <= 1.0
    assert stats.cpu_s > 0
    assert stats.sequences  # at least one generated sequence kept


def test_run_atpg_with_learning_marks_ties_untestable():
    c = figure1()
    learned = learn(c)
    stats = run_atpg(c, learned=learned, config=ATPGConfig(
        mode="forbidden", backtrack_limit=30, max_frames=6))
    assert stats.untestable >= 2  # G3/G8 class + G15 class
    assert stats.detected + stats.untestable + stats.aborted == \
        stats.total_faults


def test_run_atpg_max_faults_sampling():
    c = figure1()
    stats = run_atpg(c, config=ATPGConfig(
        mode="none", backtrack_limit=10, max_frames=4, max_faults=10))
    assert stats.total_faults == 10


def test_collateral_detection_happens():
    c = s27()
    stats = run_atpg(c, config=ATPGConfig(
        mode="none", backtrack_limit=100, max_frames=8))
    assert stats.collateral > 0  # fault dropping must fire on s27


# ---------------------------------------------------------------------------
# FIRES baseline & Table-4 comparison
# ---------------------------------------------------------------------------

def test_fires_finds_g3_class_on_figure1():
    c = figure1()
    faults = collapse_faults(c)
    report = fires_untestable(c, faults)
    described = {f.describe(c) for f in report.untestable}
    assert "G3 s-a-0" in described


def test_fires_claims_hold_under_random_search():
    rng = random.Random(9)
    for make in (figure1, figure2, s27):
        c = make()
        faults = collapse_faults(c)
        report = fires_untestable(c, faults)
        if not report.untestable:
            continue
        names = [c.nodes[i].name for i in c.inputs]
        hit = set()
        for _ in range(200):
            seq = [{n: rng.randint(0, 1) for n in names}
                   for _ in range(14)]
            hit |= fault_simulate(c, seq, report.untestable)
        assert hit == set(), \
            sorted(report.untestable[i].describe(c) for i in hit)


def test_compare_untestable_row():
    row = compare_untestable(figure1()).row()
    assert row["circuit"] == "figure1"
    assert row["tie_gates"] >= 2
    assert row["fires"] >= 1
