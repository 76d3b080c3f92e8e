"""Differential harness: incremental PODEM engine vs reference engine.

The incremental engine (:mod:`repro.atpg.incremental`) re-implements the
PODEM search state machine with event-driven window updates and a
trail/undo log.  Its contract is *bit-identical results*, so every case
here runs both engines on the same input and requires exact equality of

* per-fault :class:`~repro.atpg.engine.TestResult`\\ s -- status, the
  generated sequence, backtrack/decision counts and the detected-at
  window -- across 200+ generated circuits (plain random, retimed and
  multi-clock-domain industrial-like) in every learn mode;
* whole-run :class:`~repro.atpg.driver.ATPGStats` including collateral
  drops and kept sequences;
* the trailed window state itself: a decide followed by a backtrack
  must restore the exact prior planes (property test).

The canonical-faulty-plane invariant the incremental engine's state
comparisons rely on is pinned down here too (see
``test_faulty_plane_is_canonical``).
"""

import random
import zlib

import pytest

from repro.atpg import (
    IncrementalATPG,
    SequentialATPG,
    collapse_faults,
    make_atpg,
    run_atpg,
)
from repro.atpg.driver import ATPGStats
from repro.circuit import industrial_like, random_circuit, retime_circuit
from repro.core import learn
from repro.flow import ATPGConfig

MODES = ("none", "known", "forbidden")

_SIZES = (
    dict(n_inputs=3, n_outputs=2, n_ffs=2, n_gates=10),
    dict(n_inputs=4, n_outputs=3, n_ffs=4, n_gates=22),
    dict(n_inputs=5, n_outputs=4, n_ffs=6, n_gates=40),
    dict(n_inputs=6, n_outputs=4, n_ffs=8, n_gates=64),
)

#: 204 circuits; each runs one learn mode (rotating), so every mode
#: sees every circuit shape and all three paths of the incremental
#: engine (event wavefront, known-rebuild, forbidden-rebuild).
CASES = ([("random", seed) for seed in range(104)]
         + [("retimed", seed) for seed in range(50)]
         + [("industrial", seed) for seed in range(50)])


def _build(kind, seed):
    if kind == "random":
        params = _SIZES[seed % len(_SIZES)]
        return random_circuit(f"ediff_r{seed}", seed=seed, **params)
    if kind == "retimed":
        params = _SIZES[seed % len(_SIZES)]
        base = random_circuit(f"ediff_b{seed}", seed=seed, **params)
        return retime_circuit(base, moves=1 + seed % 3,
                              name=f"ediff_rt{seed}")
    return industrial_like(f"ediff_i{seed}", n_domains=2 + seed % 3,
                           n_ffs=8 + (seed % 4) * 4,
                           n_gates=50 + (seed % 3) * 20, seed=seed)


def _result_key(result):
    return (result.status, result.sequence, result.backtracks,
            result.decisions, result.frames_used)


@pytest.mark.parametrize("kind,seed", CASES)
def test_engines_identical_per_fault(kind, seed):
    """Both engines emit the same TestResult for every fault."""
    circuit = _build(kind, seed)
    mode = MODES[(zlib.crc32(kind.encode()) + seed) % len(MODES)]
    relations = None
    if mode != "none":
        relations = learn(circuit).relations
    faults = collapse_faults(circuit)
    rng = random.Random(seed)
    if len(faults) > 10:
        faults = rng.sample(faults, 10)
    reference = SequentialATPG(circuit, relations=relations, mode=mode,
                               backtrack_limit=8, max_frames=4)
    incremental = IncrementalATPG(circuit, relations=relations,
                                  mode=mode, backtrack_limit=8,
                                  max_frames=4)
    for fault in faults:
        expect = _result_key(reference.generate(fault))
        got = _result_key(incremental.generate(fault))
        assert got == expect, (mode, fault.describe(circuit))


def _stats_key(stats: ATPGStats):
    return (stats.total_faults, stats.detected, stats.untestable,
            stats.aborted, stats.collateral, stats.decisions,
            stats.backtracks, stats.sequences_total, stats.sequences)


@pytest.mark.parametrize("kind,seed,mode",
                         [(k, s, m)
                          for k, s in (("random", 3), ("random", 7),
                                       ("retimed", 1), ("retimed", 4),
                                       ("industrial", 2),
                                       ("industrial", 5))
                          for m in MODES])
def test_atpg_stats_identical(kind, seed, mode):
    """Whole ATPG runs (with dropping) match stat for stat."""
    circuit = _build(kind, seed)
    learned = learn(circuit) if mode != "none" else None
    rows = {}
    for engine in ("reference", "incremental"):
        rows[engine] = run_atpg(circuit, learned=learned,
                                config=ATPGConfig(
                                    mode=mode, backtrack_limit=8,
                                    max_frames=4, max_faults=20,
                                    keep_sequences=True,
                                    atpg_engine=engine))
    assert _stats_key(rows["reference"]) == _stats_key(rows["incremental"])


def test_make_atpg_factory():
    circuit = _build("random", 0)
    assert isinstance(make_atpg(circuit, engine="reference"),
                      SequentialATPG)
    assert isinstance(make_atpg(circuit, engine="incremental"),
                      IncrementalATPG)
    with pytest.raises(ValueError):
        make_atpg(circuit, engine="turbo")


# ---------------------------------------------------------------------------
# trail / undo property tests
# ---------------------------------------------------------------------------

def _snapshot(state, window):
    return ([list(frame) for frame in state.gv[:window]],
            [dict(frame) for frame in state.fv[:window]],
            [dict(frame) for frame in state.forb[:window]],
            [set(frame) for frame in state.dset[:window]],
            state.conflict)


@pytest.mark.parametrize("kind,seed,mode",
                         [("random", 11, "none"),
                          ("random", 12, "known"),
                          ("industrial", 3, "forbidden"),
                          ("retimed", 9, "none"),
                          ("retimed", 10, "known")])
def test_decide_backtrack_restores_exact_state(kind, seed, mode):
    """decide -> backtrack returns the trailed window bit for bit."""
    circuit = _build(kind, seed)
    relations = learn(circuit).relations if mode != "none" else None
    engine = IncrementalATPG(circuit, relations=relations, mode=mode,
                             backtrack_limit=8, max_frames=4)
    faults = collapse_faults(circuit)[:4]
    rng = random.Random(seed)
    window = 3
    for fault in faults:
        state = engine._prepare(fault, window)
        if state.conflict:
            continue
        baseline = _snapshot(state, window)
        snapshots = [baseline]
        applied = []
        # Random walk of decisions on unassigned PIs (the search never
        # decides on a conflicted state, so neither does the walk)...
        for _step in range(6):
            if state.conflict:
                break
            frame = rng.randrange(window)
            free = [pid for pid in circuit.inputs
                    if (frame, pid) not in engine._assignments]
            if not free:
                break
            pid = rng.choice(free)
            value = rng.randint(0, 1)
            engine._assignments[(frame, pid)] = value
            engine._apply(fault, (frame, pid), value)
            applied.append((frame, pid))
            snapshots.append(_snapshot(state, window))
        # ...then unwind; every pop must restore the exact prior state.
        while applied:
            frame, pid = applied.pop()
            del engine._assignments[(frame, pid)]
            engine._undo()
            snapshots.pop()
            assert _snapshot(state, window) == snapshots[-1]
        assert _snapshot(state, window) == baseline
        # Leave the engine clean for the next fault.
        engine._state = None
        engine._assignments = {}
        engine._trail = []


def test_incremental_state_matches_reference_simulation():
    """After any decide sequence the trailed window equals a from-
    scratch reference simulation of the same assignments."""
    circuit = _build("industrial", 7)
    reference = SequentialATPG(circuit, backtrack_limit=8, max_frames=4)
    engine = IncrementalATPG(circuit, backtrack_limit=8, max_frames=4)
    faults = collapse_faults(circuit)[:6]
    rng = random.Random(0xBEEF)
    window = 3
    for fault in faults:
        state = engine._prepare(fault, window)
        cone = reference._fault_cone(fault)
        for _step in range(5):
            frame = rng.randrange(window)
            free = [pid for pid in circuit.inputs
                    if (frame, pid) not in engine._assignments]
            if not free:
                break
            pid = rng.choice(free)
            value = rng.randint(0, 1)
            engine._assignments[(frame, pid)] = value
            engine._apply(fault, (frame, pid), value)
            oracle = reference._simulate(fault, window,
                                         engine._assignments, cone)
            for f in range(window):
                assert state.gv[f] == oracle.gv[f], (fault, f)
                assert state.fv[f] == oracle.fv[f], (fault, f)
                assert state.forb[f] == oracle.forb[f], (fault, f)
                expect_d = {nid for nid in range(len(circuit.nodes))
                            if oracle.is_d(f, nid)}
                assert state.dset[f] == expect_d, (fault, f)
        engine._state = None
        engine._assignments = {}
        engine._trail = []


# ---------------------------------------------------------------------------
# canonical faulty plane (regression for the fv hygiene bug)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_faulty_plane_is_canonical(seed):
    """``fv`` never keeps an entry equal to the good value.

    Before the fix, entries that became equal to the good value after a
    ``_apply_known`` re-evaluation were never deleted, so the D-frontier
    could walk stale non-differences; the incremental engine's frame
    equality checks also require the canonical form.  Only the faulted
    node itself is pinned (``_force_site`` / stuck FF capture) and may
    coincide with its good value.
    """
    circuit = _build("random", seed + 30)
    relations = learn(circuit).relations
    engine = SequentialATPG(circuit, relations=relations, mode="known",
                            backtrack_limit=8, max_frames=4)
    rng = random.Random(seed)
    window = 3
    for fault in collapse_faults(circuit)[:8]:
        cone = engine._fault_cone(fault)
        assignments = {
            (rng.randrange(window), pid): rng.randint(0, 1)
            for pid in circuit.inputs if rng.random() < 0.5}
        state = engine._simulate(fault, window, assignments, cone)
        for frame in range(window):
            gv = state.gv[frame]
            for nid, value in state.fv[frame].items():
                if nid == fault.node:
                    continue
                assert value != gv[nid], (
                    f"stale fv entry {nid}={value} equals good value "
                    f"at frame {frame} for {fault.describe(circuit)}")
