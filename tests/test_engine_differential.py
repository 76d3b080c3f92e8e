"""Differential harness: incremental PODEM engine vs reference engine.

The incremental engine (:mod:`repro.atpg.incremental`) re-implements the
PODEM search state machine with event-driven window updates and a
trail/undo log.  Its contract is *bit-identical results*, so every case
here runs both engines on the same input and requires exact equality of

* per-fault :class:`~repro.atpg.engine.TestResult`\\ s -- status, the
  generated sequence, backtrack/decision counts and the detected-at
  window -- across 200+ generated circuits (plain random, retimed and
  multi-clock-domain industrial-like) in every learn mode, and on two
  real-sized profiles whose fault cones run much deeper;
* whole-run :class:`~repro.atpg.driver.ATPGStats` including collateral
  drops and kept sequences;
* the trailed window state itself: a decide followed by a backtrack
  must restore the exact prior planes (property test).

The canonical-faulty-plane invariant the incremental engine's state
comparisons rely on is pinned down here too (see
``test_faulty_plane_is_canonical``).
"""

import functools
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
from repro.circuit.gates import ZERO
from repro.core import learn
from repro.flow import ATPGConfig, resolve_circuit

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


def _assert_engines_identical(kind, seed, *, backtrack_limit, max_frames,
                              sample):
    circuit = _build(kind, seed)
    mode = MODES[(zlib.crc32(kind.encode()) + seed) % len(MODES)]
    relations = None
    if mode != "none":
        relations = learn(circuit).relations
    faults = collapse_faults(circuit)
    rng = random.Random(seed)
    if len(faults) > sample:
        faults = rng.sample(faults, sample)
    reference = SequentialATPG(circuit, relations=relations, mode=mode,
                               backtrack_limit=backtrack_limit,
                               max_frames=max_frames)
    incremental = IncrementalATPG(circuit, relations=relations,
                                  mode=mode,
                                  backtrack_limit=backtrack_limit,
                                  max_frames=max_frames)
    for fault in faults:
        expect = _result_key(reference.generate(fault))
        got = _result_key(incremental.generate(fault))
        assert got == expect, (mode, fault.describe(circuit))


@pytest.mark.parametrize("kind,seed", CASES)
def test_engines_identical_per_fault(kind, seed):
    """Both engines emit the same TestResult for every fault."""
    _assert_engines_identical(kind, seed, backtrack_limit=8, max_frames=4,
                              sample=10)


#: Every fourth case, searched deep: at 60 backtracks and 6 frames the
#: decision trails run many levels deep, so the incremental engine's
#: trail-scoped backtrace memo is carried across many decisions and
#: truncated by many backtracks.
DEEP_CASES = CASES[::4]


@pytest.mark.parametrize("kind,seed", DEEP_CASES)
def test_engines_identical_per_fault_deep(kind, seed):
    _assert_engines_identical(kind, seed, backtrack_limit=60,
                              max_frames=6, sample=8)


#: Circuits whose fault cones run far deeper than the generated corpus's:
#: the event wavefront's cone-limited scheduling on a real-sized
#: netlist.  At the default limits nearly every fault there aborts, so
#: the decision and backtrack counts carry the comparison.
LARGE_SPECS = ("like:s5378@0.5", "like:s1423@1")


@functools.lru_cache(maxsize=None)
def _large(spec):
    circuit = resolve_circuit(spec)
    faults = random.Random(1).sample(collapse_faults(circuit), 8)
    return circuit, learn(circuit).relations, faults


@pytest.mark.parametrize("spec,mode", [(s, m) for s in LARGE_SPECS
                                       for m in ("none", "known")])
def test_engines_identical_on_large_circuits(spec, mode):
    """Default limits, 8 collapsed faults: identical TestResults."""
    circuit, relations, faults = _large(spec)
    reference = SequentialATPG(circuit, relations=relations, mode=mode)
    incremental = IncrementalATPG(circuit, relations=relations, mode=mode)
    for fault in faults:
        expect = _result_key(reference.generate(fault))
        got = _result_key(incremental.generate(fault))
        assert got == expect, fault.describe(circuit)


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
def test_atpg_stats_identical(kind, seed, mode, use_oracles):
    """Whole ATPG runs (with dropping) match stat for stat."""
    circuit = _build(kind, seed)
    learned = learn(circuit) if mode != "none" else None
    config = ATPGConfig(mode=mode, backtrack_limit=8, max_frames=4,
                        max_faults=20, keep_sequences=True)
    incremental = run_atpg(circuit, learned=learned, config=config)
    use_oracles(simulator=False)
    reference = run_atpg(circuit, learned=learned, config=config)
    assert _stats_key(reference) == _stats_key(incremental)


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


class _MemoAuditATPG(IncrementalATPG):
    """Audits the backtrace dead-end memo at every target selection.

    Each memo entry is tagged with the assignments in force when it was
    recorded.  An entry is sound for every state that extends those
    assignments (X only refines), so at each later selection the tag
    must be a subset of the current assignments -- an entry recorded
    under a decision that was since popped or flipped must be gone --
    and the entry must still be a dead end for a memo-free backtrace.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tags = {}
        self.audited = 0
        self.carried = 0

    def _next_target(self, state, window, fault):
        current = frozenset(self._assignments.items())
        for key in self._dead:
            tag = self.tags[key]
            assert tag <= current, "memo entry outlived its decision"
            frame, nid = divmod(key, self._idx.n)
            assert self._backtrace(state, frame, nid, ZERO) is None
            self.audited += 1
            self.carried += tag < current
        before = len(self._dead)
        target = super()._next_target(state, window, fault)
        for key in list(self._dead)[before:]:
            self.tags[key] = current
        return target


@pytest.mark.parametrize("kind,seed,mode",
                         [("random", 20, "none"),
                          ("random", 23, "known"),
                          ("industrial", 6, "forbidden"),
                          ("retimed", 13, "none")])
def test_backtrace_memo_is_scoped_to_the_trail(kind, seed, mode):
    """After a backtrack no dead end recorded under the popped or
    flipped decision survives, and results stay the reference's."""
    circuit = _build(kind, seed)
    relations = learn(circuit).relations if mode != "none" else None
    reference = SequentialATPG(circuit, relations=relations, mode=mode,
                               backtrack_limit=60, max_frames=6)
    engine = _MemoAuditATPG(circuit, relations=relations, mode=mode,
                            backtrack_limit=60, max_frames=6)
    backtracks = 0
    for fault in collapse_faults(circuit)[:12]:
        result = engine.generate(fault)
        assert _result_key(result) == _result_key(
            reference.generate(fault)), fault.describe(circuit)
        backtracks += result.backtracks
    # Not vacuous: the searches backtracked, and dead ends recorded at
    # shallower levels were reused deeper in the trail.
    assert backtracks > 0
    assert engine.carried > 0


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
