"""Batched compiled injections vs per-stem event simulation.

``run_single_node`` packs the 0/1 injections of many stems into
compiled two-plane runs (one bit column per injection) whenever the
simulator carries no coupled knowledge.  The contract is identical
:class:`~repro.core.single_node.SingleNodeData` -- same runs (frames,
key order, stop flags), same justification map -- including the
clock-domain-restricted passes of multi-domain circuits and the
conflict fallback for stems whose value is derivable from tie
constants.
"""

import pytest

from repro.circuit import (
    CircuitBuilder,
    figure1,
    figure2,
    industrial_like,
    random_circuit,
    retime_circuit,
    s27,
)
from repro.circuit.gates import ONE, ZERO
from repro.core import learn
from repro.core.clock_domains import learning_passes
from repro.core.single_node import run_single_node
from repro.core.ties import TieSet, ties_from_single_node
from repro.sim.eventsim import FrameSimulator

_SIZES = (
    dict(n_inputs=3, n_outputs=2, n_ffs=2, n_gates=10),
    dict(n_inputs=5, n_outputs=4, n_ffs=6, n_gates=40),
    dict(n_inputs=6, n_outputs=4, n_ffs=8, n_gates=64),
)

CASES = ([("builtin", i) for i in range(3)]
         + [("random", seed) for seed in range(10)]
         + [("retimed", seed) for seed in range(6)]
         + [("industrial", seed) for seed in range(10)])


def _build(kind, seed):
    if kind == "builtin":
        return (figure1, figure2, s27)[seed]()
    if kind == "random":
        return random_circuit(f"sb_r{seed}", seed=seed,
                              **_SIZES[seed % 3])
    if kind == "retimed":
        base = random_circuit(f"sb_b{seed}", seed=seed,
                              **_SIZES[seed % 3])
        return retime_circuit(base, moves=1 + seed % 3,
                              name=f"sb_rt{seed}")
    return industrial_like(f"sb_i{seed}", n_domains=2 + seed % 3,
                           n_ffs=8 + (seed % 4) * 4,
                           n_gates=50 + (seed % 3) * 20, seed=seed)


def _assert_same_data(batched, reference):
    assert batched.skipped_stems == reference.skipped_stems
    assert list(batched.runs) == list(reference.runs)
    for key in reference.runs:
        fast, slow = batched.runs[key], reference.runs[key]
        assert fast.frames == slow.frames, key
        # Key order inside every frame dict is part of the contract:
        # downstream extraction iterates it.
        assert [list(f) for f in fast.frames] == \
            [list(f) for f in slow.frames], key
        assert fast.injected == slow.injected
        assert (fast.conflict is None) == (slow.conflict is None)
        assert fast.repeated == slow.repeated
    assert batched.justifications == reference.justifications
    assert list(batched.justifications) == list(reference.justifications)


@pytest.mark.parametrize("kind,seed", CASES)
def test_batched_single_node_identical(kind, seed):
    """Every clock-domain pass produces identical SingleNodeData, also
    at an odd batch width that splits the injection pairs across many
    partial batches."""
    circuit = _build(kind, seed)
    passes = learning_passes(circuit) or [(("comb", 0, "none"), set())]
    for _key, active in passes:
        fast = run_single_node(
            FrameSimulator(circuit, active_ffs=active or None),
            max_frames=20, batched=True,
            batch_width=(None, 7)[seed % 2])
        slow = run_single_node(
            FrameSimulator(circuit, active_ffs=active or None),
            max_frames=20, batched=False)
        _assert_same_data(fast, slow)


def test_single_node_rejects_unknown_backend():
    with pytest.raises(ValueError):
        run_single_node(FrameSimulator(figure1()), backend="verilog")
    with pytest.raises(ValueError):
        run_single_node(FrameSimulator(figure1()), backend="array")


def _tie_fed_stem_circuit():
    """A stem whose value is derivable from a tie constant.

    Injecting the opposite value conflicts mid-propagation in the event
    simulator -- the one case the packed evaluator cannot represent and
    must delegate to the reference path.
    """
    b = CircuitBuilder()
    b.inputs("a", "b")
    b.gate("t", "tie1")
    b.gate("stem", "or", "t", "a")      # always 1: conflicting target
    b.gate("g1", "and", "stem", "b")
    b.gate("g2", "nand", "stem", "a")
    b.dff("f", "g1")
    b.gate("q", "or", "g2", "f")
    b.output("q")
    return b.build()


def test_conflicting_stem_falls_back_to_reference():
    circuit = _tie_fed_stem_circuit()
    stem = circuit.nid("stem")
    fast = run_single_node(FrameSimulator(circuit), max_frames=10,
                           batched=True)
    slow = run_single_node(FrameSimulator(circuit), max_frames=10,
                           batched=False)
    _assert_same_data(fast, slow)
    # The stem is tied to 1, so the s-a-0 injection must conflict --
    # proving the tie -- on both paths.
    assert fast.runs[(stem, ZERO)].conflict is not None
    assert fast.runs[(stem, ONE)].conflict is None
    ties = ties_from_single_node(fast, circuit, TieSet(circuit))
    assert ties.value_of(stem) == ONE


def test_coupled_simulator_uses_reference_path():
    """Ties/equivalences from earlier phases disable packing."""
    circuit = figure1()
    learned = learn(circuit)
    from repro.core.equivalence import coupling_from

    coupling = coupling_from(learned.ties, learned.equivalences)
    if not (coupling.ties or coupling.equiv):
        pytest.skip("figure1 learned no coupled knowledge")
    coupled = FrameSimulator(circuit, coupling)
    fast = run_single_node(coupled, max_frames=10, batched=True)
    slow = run_single_node(
        FrameSimulator(circuit, coupling), max_frames=10, batched=False)
    _assert_same_data(fast, slow)


def test_learn_results_independent_of_batching(monkeypatch):
    """End-to-end learning is identical with packing forced off."""
    import repro.core.engine as core_engine
    from repro.core.single_node import run_single_node as real

    circuit = industrial_like("sb_e2e", n_domains=2, n_ffs=10,
                              n_gates=60, seed=99)
    learned_fast = learn(circuit)

    def forced_off(simulator, stems=None, max_frames=50, **kwargs):
        return real(simulator, stems, max_frames, batched=False)

    monkeypatch.setattr(core_engine, "run_single_node", forced_off)
    learned_slow = learn(circuit)
    assert learned_fast.relations.dump() == learned_slow.relations.dump()
    assert sorted((t.nid, t.value, t.warmup)
                  for t in learned_fast.ties.all()) == \
        sorted((t.nid, t.value, t.warmup)
               for t in learned_slow.ties.all())
    assert learned_fast.counts() == learned_slow.counts()
