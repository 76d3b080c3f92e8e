"""State-space analysis and cross-package integration stories."""

import pytest

from repro.circuit import (
    counter,
    figure1,
    figure2,
    one_hot_ring,
    retime_circuit,
    s27,
)
from repro.core import LearnConfig, learn
from repro.analysis import (
    analyze_state_space,
    check_relations_exact,
    reachable_from,
)


def test_counter_density_is_one():
    space = analyze_state_space(counter(3))
    assert space.density_of_encoding == 1.0
    assert len(space.valid_states) == 8


def test_ring_density_is_full():
    # Shifting is a bijection on the state space: every state persists.
    space = analyze_state_space(one_hot_ring(4))
    assert space.density_of_encoding == 1.0


def test_figure1_density():
    space = analyze_state_space(figure1())
    assert space.num_ffs == 6
    assert 0 < space.density_of_encoding < 0.2


def test_reachable_from_initial_state():
    ring = one_hot_ring(4)
    start = (1, 0, 0, 0)
    reachable = reachable_from(ring, start)
    assert (0, 1, 0, 0) in reachable
    assert (1, 1, 0, 0) not in reachable


def test_state_space_guard():
    from repro.circuit import iscas_like

    big = iscas_like("s1423", scale=0.5)
    with pytest.raises(ValueError):
        analyze_state_space(big, max_ffs=16)


def test_is_valid_query():
    space = analyze_state_space(figure1())
    assert space.is_valid(next(iter(space.valid_states)))
    # F4=1 and F6=1 violates the paper's F6=1 -> F4=0 invalid-state
    # relation, so no such state may be valid.
    f4 = figure1().ffs.index(figure1().nid("F4"))
    circuit = figure1()
    i4 = circuit.ffs.index(circuit.nid("F4"))
    i6 = circuit.ffs.index(circuit.nid("F6"))
    assert all(not (s[i4] == 1 and s[i6] == 1)
               for s in space.valid_states)


def test_check_relations_exact_catches_bogus():
    from repro.core.relations import RelationDB

    circuit = counter(3)
    db = RelationDB(circuit)
    q0, q1 = circuit.nid("Q0"), circuit.nid("Q1")
    db.add(q0, 1, q1, 0)  # false in a counter: state (1,1,x) is valid
    violations = check_relations_exact(circuit, db)
    assert violations


# ---------------------------------------------------------------------------
# integration stories
# ---------------------------------------------------------------------------

def test_retiming_lowers_density_of_encoding():
    """Ref [9]'s mechanism, the premise of the paper's retimed rows."""
    base = figure2()
    base_space = analyze_state_space(base)
    retimed = retime_circuit(base, moves=3, name="fig2_rt")
    rt_space = analyze_state_space(retimed)
    assert retimed.num_ffs > base.num_ffs
    assert rt_space.density_of_encoding < base_space.density_of_encoding


def test_retimed_circuit_learns_more_invalid_states():
    base = figure2()
    retimed = retime_circuit(base, moves=3, name="fig2_rt2")
    base_learn = learn(base)
    rt_learn = learn(retimed)
    assert len(rt_learn.relations.invalid_state_relations()) > \
        len(base_learn.relations.invalid_state_relations())
    assert rt_learn.validate(30, 10) == []


def test_full_flow_learning_helps_atpg_on_figure1():
    """End-to-end Table-5 shape on the worked example."""
    from repro.atpg import run_atpg
    from repro.flow import ATPGConfig

    circuit = figure1()
    learned = learn(circuit)
    base = run_atpg(circuit, config=ATPGConfig(
        mode="none", backtrack_limit=30, max_frames=8))
    forb = run_atpg(circuit, learned=learned, config=ATPGConfig(
        mode="forbidden", backtrack_limit=30, max_frames=8))
    known = run_atpg(circuit, learned=learned, config=ATPGConfig(
        mode="known", backtrack_limit=30, max_frames=8))
    # Learning identifies untestable faults the baseline cannot.
    assert forb.untestable > base.untestable
    assert known.untestable > base.untestable
    # And never loses coverage on this circuit.
    assert forb.detected + forb.untestable >= base.detected
    assert known.detected + known.untestable >= base.detected


def test_learning_stats_track_paper_shape_on_s27():
    result = learn(s27())
    summary = result.summary()
    assert summary["cpu_s"] < 5.0
    counts = result.counts(sequential_only=True)
    assert counts["ff_ff"] >= 0 and counts["gate_ff"] >= 0


def test_table1_rows_regenerable():
    """The Table-1 bench's data source: per-stem simulation rows."""
    from repro.core import run_single_node
    from repro.sim import FrameSimulator

    circuit = figure1()
    simulator = FrameSimulator(circuit, active_ffs=set(circuit.ffs))
    data = run_single_node(simulator, max_frames=50)
    i2 = circuit.nid("I2")
    row = data.runs[(i2, 1)]
    assert row.num_frames() == 4        # paper: stops at time frame 4
    f3 = circuit.nid("F3")
    row_f3 = data.runs[(f3, 1)]
    assert row_f3.repeated
