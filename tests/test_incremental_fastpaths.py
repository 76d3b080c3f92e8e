"""The incremental engine's compiled per-step paths against the reference.

* the fresh-frame kernel (:func:`repro.sim.compiled.compile_frame_kernel`
  behind ``IncrementalATPG._eval_fresh_frame``) equals the reference
  :meth:`SequentialATPG._eval_frame` on both planes, dict order included;
* the reference forbidden-shadow loop never changes anything after its
  first topological pass -- the fact the incremental one-pass shadow
  relies on -- and the incremental state equals a from-scratch
  reference simulation in every learning mode;
* the refutation probe returns the same sequence from both engines, and
  the same sequence in every process.
"""

import json
import os
import random
import subprocess
import sys
import threading
import zlib
from collections import OrderedDict

import pytest

from repro.atpg import (
    IncrementalATPG,
    SequentialATPG,
    collapse_faults,
    incremental,
)
from repro.atpg.engine import _Window
from repro.atpg.faults import full_fault_list
from repro.atpg.incremental import _CircuitIndex
from repro.circuit import CircuitBuilder, figure1, s27
from repro.circuit.gates import ONE, X, ZERO
from repro.core import learn
from repro.sim import FaultSimulator, compiled
from test_engine_differential import CASES as DIFFERENTIAL_CASES
from test_engine_differential import _build as _differential_circuit

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))
MODES = ("none", "known", "forbidden")


def every_gate_type():
    """Every combinational type, one- to three-input forms, TIE feeds,
    FFs fed by multi-fanout nodes (so FF pin faults exist)."""
    b = CircuitBuilder("all_types")
    b.inputs("a", "b", "c")
    b.gate("t0", "tie0")
    b.gate("t1", "tie1")
    b.gate("x2", "xor", "a", "f1")
    b.gate("x3", "xor", "a", "b", "c")
    b.gate("xn2", "xnor", "b", "f2")
    b.gate("xn3", "xnor", "x2", "c", "t1")
    b.gate("x1", "xor", "c")
    b.gate("xn1", "xnor", "a")
    b.gate("a1", "and", "b")
    b.gate("na1", "nand", "f1")
    b.gate("a3", "and", "x3", "t1", "f2")
    b.gate("na3", "nand", "xn2", "b", "c")
    b.gate("o2", "or", "t0", "na3")
    b.gate("no3", "nor", "a3", "x1", "f1")
    b.gate("n1", "not", "no3")
    b.gate("bf", "buf", "xn3")
    b.gate("o1", "or", "xn1")
    b.gate("no1", "nor", "a1")
    b.dff("f1", "bf")
    b.dff("f2", "o2")
    b.dff("f3", "x2")
    b.output("n1", "bf", "na1", "o1", "no1", "f3")
    return b.build()


# ---------------------------------------------------------------------------
# fresh-frame kernel
# ---------------------------------------------------------------------------

def _fresh_frame(circuit, engine, fault, rng):
    """A fresh frame as ``_compute_frame`` builds it: random PI and FF
    values, faulty FF captures only inside the fault cone, the stuck FF
    capture of an FF pin fault, then the site forcing."""
    cone = engine._fault_cone(fault)
    state = _Window(1, len(circuit.nodes))
    gv, fv = state.gv[0], state.fv[0]
    for pid in circuit.inputs:
        gv[pid] = rng.choice((ZERO, ONE, X))
    for fid in circuit.ffs:
        gv[fid] = rng.choice((ZERO, ONE, X))
        if fid in cone and rng.random() < 0.5:
            faulty = rng.choice([v for v in (ZERO, ONE, X)
                                 if v != gv[fid]])
            fv[fid] = faulty
        if fault.pin is not None and fid == fault.node:
            fv[fid] = fault.value
    engine._force_site(fault, gv, fv)
    return state, cone


def _check_kernel(circuit, engine, rounds, seed):
    reference = SequentialATPG(circuit)
    rng = random.Random(seed)
    checked = 0
    for fault in full_fault_list(circuit):
        for _ in range(rounds):
            state, cone = _fresh_frame(circuit, engine, fault, rng)
            gv, fv = list(state.gv[0]), dict(state.fv[0])
            reference._eval_frame(fault, 0, state, cone)
            engine._eval_fresh_frame(fault, gv, fv)
            assert gv == state.gv[0], fault.describe(circuit)
            assert list(fv.items()) == list(state.fv[0].items()), (
                fault.describe(circuit))
            checked += 1
    return checked


def test_every_gate_type_circuit_has_all_fault_kinds():
    circuit = every_gate_type()
    faults = full_fault_list(circuit)
    kinds = {(circuit.nodes[f.node].gate_type.value, f.pin is None)
             for f in faults}
    assert ("input", True) in kinds
    assert ("dff", True) in kinds and ("dff", False) in kinds
    for gate in ("xor", "xnor", "tie0", "tie1"):
        assert (gate, True) in kinds


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
def test_frame_kernel_matches_reference_eval_frame(monkeypatch, chunk):
    """Every fault of every kind, random fresh frames, any chunking."""
    circuit = every_gate_type()
    if chunk is not None:
        monkeypatch.setattr(compiled, "_CHUNK_GATES", chunk)
    engine = IncrementalATPG(circuit)
    engine._idx = _CircuitIndex(circuit)  # compiled under this chunking
    if chunk is not None:
        assert engine._idx.frame_kernel.__name__ == "kernel"  # split
    assert _check_kernel(circuit, engine, rounds=12, seed=chunk or 0) > 0


@pytest.mark.parametrize("kind,seed", [("random", s) for s in range(6)]
                         + [("retimed", 1), ("industrial", 2)])
def test_frame_kernel_matches_reference_on_corpus(monkeypatch, kind, seed):
    circuit = _differential_circuit(kind, seed)
    monkeypatch.setattr(compiled, "_CHUNK_GATES", 5 + seed)
    engine = IncrementalATPG(circuit)
    engine._idx = _CircuitIndex(circuit)
    _check_kernel(circuit, engine, rounds=3, seed=seed)


def test_frame_kernel_is_not_built_with_the_simulator():
    """Only PODEM pays for the frame kernel: the simulator lowering
    (``compile_circuit`` / ``warm_cache``) carries no frame kernel."""
    circuit = _differential_circuit("random", 9)
    lowered = compiled.warm_cache(circuit)
    assert not any("frame" in name for name in vars(lowered))


def test_lean_plane_kernels_are_built_by_fault_simulation(monkeypatch):
    """``warm_cache`` leaves both two-plane variants unbuilt; the first
    fault-simulation run compiles the lean one, and only that one."""
    monkeypatch.setattr(compiled, "_CACHE", OrderedDict())
    circuit = _differential_circuit("random", 9)
    lowered = compiled.warm_cache(circuit)
    assert lowered._plane_kernels is None
    assert lowered._plane_kernels_traced is None
    names = [circuit.nodes[i].name for i in circuit.inputs]
    sequence = [{name: (k + j) % 2 for j, name in enumerate(names)}
                for k in range(4)]
    faults = collapse_faults(circuit)
    got = compiled.CompiledFaultSimulator(circuit).detected(sequence,
                                                            faults)
    assert lowered._plane_kernels is not None
    assert lowered._plane_kernels_traced is None
    assert got == FaultSimulator(circuit).detected(sequence, faults)


def test_circuit_index_built_once_under_concurrent_requests(monkeypatch):
    """The daemon builds indices from request threads: each circuit's
    index (and frame kernel) must be built exactly once and shared."""
    circuits = [_differential_circuit("random", seed) for seed in range(3)]
    built = []

    class CountingIndex(incremental._CircuitIndex):
        def __init__(self, circuit):
            built.append(circuit.fingerprint())
            super().__init__(circuit)

    monkeypatch.setattr(incremental, "_CircuitIndex", CountingIndex)
    monkeypatch.setattr(incremental, "_INDEX_CACHE", OrderedDict())
    seen = {}
    errors = []

    def worker(offset):
        try:
            for step in range(30):
                circuit = circuits[(offset + step) % len(circuits)]
                idx = incremental.circuit_index(circuit)
                seen.setdefault(circuit.fingerprint(), set()).add(id(idx))
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sorted(built) == sorted(c.fingerprint() for c in circuits)
    assert all(len(ids) == 1 for ids in seen.values())


# ---------------------------------------------------------------------------
# forbidden shadow: one pass suffices
# ---------------------------------------------------------------------------

class _PassProbe:
    """Circuit proxy recording the shadow plane when a pass starts.

    The reference forward loop reads ``circuit.topo_order`` once per
    pass, so the snapshots are the plane before pass 1, 2, ...
    """

    def __init__(self, circuit, forb):
        self._circuit = circuit
        self._forb = forb
        self.passes = []

    def __getattr__(self, name):
        return getattr(self._circuit, name)

    @property
    def topo_order(self):
        self.passes.append(dict(self._forb))
        return self._circuit.topo_order


class _ProbedATPG(SequentialATPG):
    """Reference engine asserting its shadow loop settles in one pass."""

    marked = 0

    def _apply_forbidden(self, frame, state):
        circuit = self.circuit
        probe = _PassProbe(circuit, state.forb[frame])
        self.circuit = probe
        try:
            super()._apply_forbidden(frame, state)
        finally:
            self.circuit = circuit
        if probe.passes:
            # Pass 2 (if it ran) saw no change, so the loop stopped.
            assert len(probe.passes) <= 2
            if len(probe.passes) == 2:
                assert probe.passes[1] == state.forb[frame]
                _ProbedATPG.marked += (len(state.forb[frame])
                                       - len(probe.passes[0]))


def test_reference_shadow_loop_settles_after_first_pass():
    _ProbedATPG.marked = 0
    for kind, seed in DIFFERENTIAL_CASES:
        circuit = _differential_circuit(kind, seed)
        relations = learn(circuit).relations
        engine = _ProbedATPG(circuit, relations=relations,
                             mode="forbidden", backtrack_limit=8,
                             max_frames=4)
        faults = collapse_faults(circuit)
        rng = random.Random(zlib.crc32(kind.encode()) + seed)
        for fault in rng.sample(faults, min(2, len(faults))):
            engine.generate(fault)
    # The passes must actually have propagated something.
    assert _ProbedATPG.marked > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind,seed", [("industrial", 7), ("random", 13),
                                       ("retimed", 4)])
def test_incremental_state_matches_reference_in_every_mode(kind, seed,
                                                           mode):
    """After any decide sequence the trailed window of every mode equals
    a from-scratch reference simulation of the same assignments."""
    circuit = _differential_circuit(kind, seed)
    relations = learn(circuit).relations if mode != "none" else None
    reference = SequentialATPG(circuit, relations=relations, mode=mode,
                               backtrack_limit=8, max_frames=4)
    engine = IncrementalATPG(circuit, relations=relations, mode=mode,
                             backtrack_limit=8, max_frames=4)
    rng = random.Random(seed)
    window = 3
    for fault in collapse_faults(circuit)[:6]:
        state = engine._prepare(fault, window)
        cone = reference._fault_cone(fault)
        for _step in range(5):
            if state.conflict:
                break
            frame = rng.randrange(window)
            free = [pid for pid in circuit.inputs
                    if (frame, pid) not in engine._assignments]
            if not free:
                break
            pid = rng.choice(free)
            engine._assignments[(frame, pid)] = rng.randint(0, 1)
            engine._apply(fault, (frame, pid),
                          engine._assignments[(frame, pid)])
            oracle = reference._simulate(fault, window,
                                         engine._assignments, cone)
            assert state.conflict == oracle.conflict
            if oracle.conflict:
                break  # the reference stops mid-window
            for f in range(window):
                assert state.gv[f] == oracle.gv[f], (fault, f)
                assert state.fv[f] == oracle.fv[f], (fault, f)
                assert state.forb[f] == oracle.forb[f], (fault, f)
        engine._state = None
        engine._assignments = {}
        engine._trail = []


# ---------------------------------------------------------------------------
# refutation probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [s27, figure1, every_gate_type,
                                   lambda: _differential_circuit("random", 1)],
                         ids=["s27", "figure1", "all_types", "random1"])
def test_refutation_identical_across_engines(build):
    circuit = build()
    reference = SequentialATPG(circuit, max_frames=3)
    incremental = IncrementalATPG(circuit, max_frames=3)
    outcomes = set()
    for fault in collapse_faults(circuit):
        expect = reference._refute_untestable(fault)
        assert incremental._refute_untestable(fault) == expect, (
            fault.describe(circuit))
        outcomes.add(expect is None)
    assert False in outcomes  # some probe actually detects


_REFUTE_SCRIPT = """
import json
from repro.atpg import IncrementalATPG, full_fault_list
from repro.circuit import figure1, random_circuit
out = []
for circuit in (figure1(), random_circuit("seeded", seed=5, n_inputs=4,
                                          n_outputs=3, n_ffs=4,
                                          n_gates=24)):
    engine = IncrementalATPG(circuit, max_frames=2)
    for fault in full_fault_list(circuit):
        if fault.pin is None:
            out.append([fault.node, fault.value,
                        engine._refute_untestable(fault)])
print(json.dumps(out, sort_keys=True))
"""


def _refute_in_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, "-c", _REFUTE_SCRIPT],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_output_fault_refutation_is_process_independent():
    """The probe seed of an output fault (pin ``None``) must not depend
    on the process: ``hash(None)`` is an address before Python 3.12."""
    first = _refute_in_subprocess()
    assert first and any(seq is not None for _n, _v, seq in first)
    assert _refute_in_subprocess() == first
