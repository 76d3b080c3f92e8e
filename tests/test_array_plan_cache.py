"""The injection-plan cache of the array backend: repeated
``detected()`` calls over the same fault list must hit the cache and
keep returning identical results, with the LRU cap enforced."""

import random

import pytest

from repro.atpg.faults import collapse_faults
from repro.circuit import iscas_like
from repro.sim.array_backend import (
    HAVE_NUMPY,
    PLAN_CACHE_CAP,
    ArrayFaultSimulator,
)

pytestmark = pytest.mark.skipif(not HAVE_NUMPY,
                                reason="the array backend needs numpy")


def _sequences(circuit, n_seq, frames, seed):
    rng = random.Random(seed)
    inputs = [circuit.nodes[i].name for i in circuit.inputs]
    return [[{name: rng.randint(0, 1) for name in inputs}
             for _ in range(frames)] for _ in range(n_seq)]


def test_plan_cache_hits_and_identical_results():
    circuit = iscas_like("s953", scale=0.25)
    faults = collapse_faults(circuit)
    sim = ArrayFaultSimulator(circuit)
    sequences = _sequences(circuit, 4, 6, seed=7)

    first = [sim.detected(seq, faults) for seq in sequences]
    misses_after_first = sim.plan_cache_misses
    assert misses_after_first >= 1
    # Same fault list again: all plans come from the cache.
    second = [sim.detected(seq, faults) for seq in sequences]
    assert sim.plan_cache_misses == misses_after_first
    assert sim.plan_cache_hits >= misses_after_first
    assert first == second

    # A fresh simulator (cold cache) agrees bit-for-bit.
    cold = ArrayFaultSimulator(circuit)
    assert [cold.detected(seq, faults) for seq in sequences] == first


def test_plan_cache_distinguishes_batches():
    circuit = iscas_like("s953", scale=0.25)
    faults = collapse_faults(circuit)
    sim = ArrayFaultSimulator(circuit)
    seq = _sequences(circuit, 1, 6, seed=11)[0]
    full = sim.detected(seq, faults)
    # A different slice of the same list is a different plan, and its
    # local indices must line up with the full run's verdicts.
    half = faults[: len(faults) // 2]
    part = sim.detected(seq, half)
    assert part == {i for i in full if i < len(half)}
    assert sim.plan_cache_misses >= 2


def test_plan_cache_cap_is_enforced():
    circuit = iscas_like("s386", scale=0.25)
    faults = collapse_faults(circuit)
    sim = ArrayFaultSimulator(circuit, width=4)
    seq = _sequences(circuit, 1, 4, seed=3)[0]
    # width=4 slices the list into many batches -> many plans.
    sim.detected(seq, faults)
    assert len(sim._plan_cache) <= PLAN_CACHE_CAP
