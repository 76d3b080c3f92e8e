"""Differential harness: the compiled backend vs the reference.

The compiled backend (:mod:`repro.sim.compiled`) re-implements the two
simulation hot paths with generated straight-line code.  Its contract
is *bit-identical results*, so every case here runs both backends on
the same input and requires exact equality of

* packed pattern masks for every node,
* fault-detection index sets (exercising batching, pin faults, FF
  faults and three-valued sequences), and
* :class:`~repro.atpg.driver.ATPGStats` counts for whole ATPG runs.

Cases cover plain random circuits across sizes, retimed circuits and
multi-clock-domain industrial-like circuits (200+ generated netlists).
Batch widths cycle through {1, 7, 64, 128, 257} to cross word
boundaries (64, 128) and partial-word tails (7, 257).
"""

import random
import zlib

import pytest

from repro.atpg.driver import run_atpg
from repro.atpg.faults import collapse_faults, full_fault_list
from repro.circuit import industrial_like, random_circuit, retime_circuit
from repro.flow import ATPGConfig
from repro.sim.compiled import CompiledFaultSimulator, compile_circuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.parallel import random_source_masks, simulate_patterns

#: Batch widths, cycled per case so the whole corpus crosses every
#: boundary class without multiplying its runtime.
WIDTHS = (1, 7, 64, 128, 257)

# ----------------------------------------------------------------------
# case generation: (kind, seed) -> circuit; 200 cases across shapes
# ----------------------------------------------------------------------
_SIZES = (
    dict(n_inputs=3, n_outputs=2, n_ffs=2, n_gates=10),
    dict(n_inputs=4, n_outputs=3, n_ffs=4, n_gates=22),
    dict(n_inputs=5, n_outputs=4, n_ffs=6, n_gates=40),
    dict(n_inputs=6, n_outputs=4, n_ffs=8, n_gates=64),
)

CASES = ([("random", seed) for seed in range(120)]
         + [("retimed", seed) for seed in range(40)]
         + [("industrial", seed) for seed in range(40)])


def _build(kind, seed):
    if kind == "random":
        params = _SIZES[seed % len(_SIZES)]
        return random_circuit(f"diff_r{seed}", seed=seed, **params)
    if kind == "retimed":
        params = _SIZES[seed % len(_SIZES)]
        base = random_circuit(f"diff_b{seed}", seed=seed, **params)
        return retime_circuit(base, moves=1 + seed % 3,
                              name=f"diff_rt{seed}")
    # Multi-clock-domain circuits with partial set/reset and multi-port
    # latches -- the paper's section 3.3 "real circuit" features.
    return industrial_like(f"diff_i{seed}", n_domains=2 + seed % 3,
                           n_ffs=8 + (seed % 4) * 4,
                           n_gates=50 + (seed % 3) * 20, seed=seed)


def _sequence(circuit, rng, length, x_rate=0.15):
    """Random binary sequence with occasional unspecified (X) inputs."""
    names = [circuit.nodes[i].name for i in circuit.inputs]
    return [{name: rng.randint(0, 1) for name in names
             if rng.random() >= x_rate}
            for _ in range(length)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_backends_identical(kind, seed):
    """Node masks and detection sets agree on every generated case."""
    circuit = _build(kind, seed)
    compiled = compile_circuit(circuit)
    rng = random.Random(zlib.crc32(kind.encode()) ^ seed)

    # Packed pattern masks, node for node.
    width = 1 + rng.randrange(64)
    source = random_source_masks(circuit, width, rng)
    masks = simulate_patterns(circuit, source, width)
    assert compiled.simulate_patterns(source, width) == masks

    # Fault-detection sets over the collapsed list, odd word widths to
    # exercise batch boundaries (width 1 = one machine per word).
    faults = collapse_faults(circuit)
    sequence = _sequence(circuit, rng, length=4 + rng.randrange(6))
    sim_width = 1 if seed % 10 == 0 else 2 + rng.randrange(24)
    reference = FaultSimulator(circuit, width=sim_width)
    fast = CompiledFaultSimulator(circuit, width=sim_width)
    detected = reference.detected(sequence, faults)
    assert fast.detected(sequence, faults) == detected

    # The width ladder -- detection sets are width-independent, so
    # every rung must reproduce the reference set exactly, ghost
    # columns and batch tails included.
    assert CompiledFaultSimulator(
        circuit, width=WIDTHS[seed % len(WIDTHS)]).detected(
        sequence, faults) == detected


@pytest.mark.parametrize("seed", range(8))
def test_backends_identical_uncollapsed(seed):
    """The full (uncollapsed) fault universe agrees too."""
    circuit = _build("industrial", seed + 100)
    rng = random.Random(seed)
    faults = full_fault_list(circuit)
    sequence = _sequence(circuit, rng, length=8)
    detected = FaultSimulator(circuit, width=32).detected(
        sequence, faults)
    assert CompiledFaultSimulator(circuit, width=32).detected(
        sequence, faults) == detected
    assert CompiledFaultSimulator(
        circuit, width=WIDTHS[seed % len(WIDTHS)]).detected(
        sequence, faults) == detected


def _stats_key(stats):
    """Everything on ATPGStats that must not depend on the backend."""
    return (stats.total_faults, stats.detected, stats.untestable,
            stats.aborted, stats.collateral, stats.decisions,
            stats.backtracks, stats.sequences_total, stats.sequences)


@pytest.mark.parametrize("kind,seed", [("random", s) for s in range(8)]
                         + [("retimed", s) for s in range(2)]
                         + [("industrial", s) for s in range(2)])
def test_atpg_stats_identical(kind, seed):
    """Whole ATPG runs produce identical statistics on both backends."""
    circuit = _build(kind, seed)
    rows = [run_atpg(circuit, config=ATPGConfig(
                mode="none", backtrack_limit=8, max_frames=4,
                max_faults=24, keep_sequences=True, sim_backend=backend))
            for backend in ("reference", "compiled")]
    assert _stats_key(rows[0]) == _stats_key(rows[1])
