"""Sequential test generation: PODEM over an expanding time-frame window.

The generator models the classic HITEC-style search the paper enhances:

* the circuit is unrolled into W time frames; frame-0 state is all-X
  (power-up unknown), so every generated test is self-initializing;
* decisions are made only on primary inputs of some frame (PODEM), values
  are obtained by composite good/faulty 3-valued simulation of the whole
  window, and a backtrack limit bounds the search (the paper's 30/1000);
* the window grows up to ``max_frames``; a fault whose search space is
  exhausted at every window size without hitting the backtrack limit is
  reported untestable (bounded-depth claim, see DESIGN.md).

Learned knowledge plugs in exactly as section 4 of the paper describes:

* ``mode='known'`` -- learned relations are applied as *known-value
  implications*: implied good values are forced during simulation, which
  eliminates decision nodes and kills dead branches sooner;
* ``mode='forbidden'`` -- relations mark *forbidden values* in a shadow
  plane that propagates forward like values (forbidden-0 implies as 1);
  they never force a value but steer backtrace choices to inputs whose
  value is already determined by the invariants, and flag conflicts when
  a simulated value hits a forbidden one;
* tie gates make faults untestable before search (see driver).

Relation warm-up is respected: a relation learned at frame t is only
applied at window frames >= t.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import (
    CONTROLLING_VALUE,
    GateType,
    INVERTING,
    ONE,
    X,
    ZERO,
    eval_gate,
    inv,
)
from ..circuit.netlist import Circuit
from ..core.relations import RelationDB
from .faults import Fault, fault_site_source
from .scoap import Testability, compute_testability

MODES = ("none", "known", "forbidden")

#: The PODEM engines behind :func:`make_atpg`'s ``engine``.
#: ``incremental`` is the event-driven engine every run uses
#: (:mod:`repro.atpg.incremental`); ``reference`` is the original
#: re-simulate-everything loop, kept as the differential oracle that
#: tests reach through ``make_atpg(engine="reference")``.
ATPG_ENGINES = ("reference", "incremental")


def _good_value(t: GateType, fanins: Sequence[int],
                gv: List[int]) -> int:
    """``eval_gate(t, [gv[f] for f in fanins])`` without the list.

    The per-gate fanin comprehension is the single largest allocation in
    the window-simulation hot loop; this reads the value array directly.
    """
    if t is GateType.AND or t is GateType.NAND:
        out = ONE
        for f in fanins:
            v = gv[f]
            if v == ZERO:
                out = ZERO
                break
            if v == X:
                out = X
        if t is GateType.NAND and out != X:
            return 1 - out
        return out
    if t is GateType.OR or t is GateType.NOR:
        out = ZERO
        for f in fanins:
            v = gv[f]
            if v == ONE:
                out = ONE
                break
            if v == X:
                out = X
        if t is GateType.NOR and out != X:
            return 1 - out
        return out
    if t is GateType.NOT:
        v = gv[fanins[0]]
        return v if v == X else 1 - v
    if t is GateType.BUF:
        return gv[fanins[0]]
    if t is GateType.XOR or t is GateType.XNOR:
        out = ZERO
        for f in fanins:
            v = gv[f]
            if v == X:
                return X
            out ^= v
        return (1 - out) if t is GateType.XNOR else out
    if t is GateType.TIE0:
        return ZERO
    if t is GateType.TIE1:
        return ONE
    raise ValueError(f"cannot evaluate gate type {t!r} combinationally")


def _faulty_value(t: GateType, fanins: Sequence[int], gv: List[int],
                  fv: Dict[int, int]) -> int:
    """Faulty-plane gate value: fanin ``f`` reads ``fv.get(f, gv[f])``."""
    if t is GateType.AND or t is GateType.NAND:
        out = ONE
        for f in fanins:
            v = fv.get(f)
            if v is None:
                v = gv[f]
            if v == ZERO:
                out = ZERO
                break
            if v == X:
                out = X
        if t is GateType.NAND and out != X:
            return 1 - out
        return out
    if t is GateType.OR or t is GateType.NOR:
        out = ZERO
        for f in fanins:
            v = fv.get(f)
            if v is None:
                v = gv[f]
            if v == ONE:
                out = ONE
                break
            if v == X:
                out = X
        if t is GateType.NOR and out != X:
            return 1 - out
        return out
    if t is GateType.NOT:
        v = fv.get(fanins[0])
        if v is None:
            v = gv[fanins[0]]
        return v if v == X else 1 - v
    if t is GateType.BUF:
        v = fv.get(fanins[0])
        return gv[fanins[0]] if v is None else v
    if t is GateType.XOR or t is GateType.XNOR:
        out = ZERO
        for f in fanins:
            v = fv.get(f)
            if v is None:
                v = gv[f]
            if v == X:
                return X
            out ^= v
        return (1 - out) if t is GateType.XNOR else out
    if t is GateType.TIE0:
        return ZERO
    if t is GateType.TIE1:
        return ONE
    raise ValueError(f"cannot evaluate gate type {t!r} combinationally")


@dataclass
class TestResult:
    """Outcome of test generation for one fault."""

    status: str  # 'detected' | 'untestable' | 'aborted'
    sequence: List[Dict[str, int]] = field(default_factory=list)
    backtracks: int = 0
    decisions: int = 0
    frames_used: int = 0
    elapsed: float = 0.0


class _Window:
    """Composite-value state of one W-frame simulation."""

    __slots__ = ("gv", "fv", "forb", "conflict")

    def __init__(self, frames: int, n: int):
        self.gv = [[X] * n for _ in range(frames)]
        self.fv: List[Dict[int, int]] = [{} for _ in range(frames)]
        self.forb: List[Dict[int, int]] = [{} for _ in range(frames)]
        self.conflict = False

    def faulty(self, frame: int, nid: int) -> int:
        value = self.fv[frame].get(nid)
        return self.gv[frame][nid] if value is None else value

    def is_d(self, frame: int, nid: int) -> bool:
        g = self.gv[frame][nid]
        f = self.faulty(frame, nid)
        return g != X and f != X and g != f


class SequentialATPG:
    """PODEM-based sequential test generator with optional learning."""

    def __init__(self, circuit: Circuit, *,
                 relations: Optional[RelationDB] = None,
                 mode: str = "none",
                 backtrack_limit: int = 30,
                 max_frames: int = 10):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if mode != "none" and relations is None:
            raise ValueError("learning modes need a relation database")
        self.circuit = circuit
        self.relations = relations
        self.mode = mode
        self.backtrack_limit = backtrack_limit
        self.max_frames = max_frames
        self.testability: Testability = compute_testability(circuit)
        self._n = len(circuit.nodes)
        #: Fault-cone memo: origin node -> {origin} | transitive fanout.
        self._cone_cache: Dict[int, Set[int]] = {}
        # Flat per-node lookups for the backtrace/objective hot paths
        # (enum hashing and property calls dominate them otherwise).
        nodes = circuit.nodes
        self._gt: List[GateType] = [n.gate_type for n in nodes]
        self._fanins_a: List[List[int]] = [n.fanins for n in nodes]
        self._control_a: List[Optional[int]] = [
            CONTROLLING_VALUE.get(n.gate_type) for n in nodes]
        self._invert_a: List[bool] = [
            INVERTING.get(n.gate_type, False) for n in nodes]
        self._is_input_a: List[bool] = [n.is_input for n in nodes]
        self._is_seq_a: List[bool] = [n.is_sequential for n in nodes]
        #: Random probes before accepting an untestable verdict.
        self._refutation_trials = 30

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> TestResult:
        """Try to generate a self-initializing test for ``fault``."""
        start = time.perf_counter()
        budget = [self.backtrack_limit]
        decisions = [0]
        exhausted_all = True
        for window in range(1, self.max_frames + 1):
            outcome, assignments = self._podem(fault, window, budget,
                                               decisions)
            if outcome == "detected":
                return TestResult(
                    status="detected",
                    sequence=self._sequence(assignments, window),
                    backtracks=self.backtrack_limit - budget[0],
                    decisions=decisions[0], frames_used=window,
                    elapsed=time.perf_counter() - start)
            if outcome == "aborted":
                return TestResult(
                    status="aborted",
                    backtracks=self.backtrack_limit - budget[0],
                    decisions=decisions[0], frames_used=window,
                    elapsed=time.perf_counter() - start)
            # else exhausted at this window; try a deeper one
        refutation = self._refute_untestable(fault)
        if refutation is not None:
            return TestResult(
                status="detected", sequence=refutation,
                backtracks=self.backtrack_limit - budget[0],
                decisions=decisions[0], frames_used=len(refutation),
                elapsed=time.perf_counter() - start)
        return TestResult(
            status="untestable" if exhausted_all else "aborted",
            backtracks=self.backtrack_limit - budget[0],
            decisions=decisions[0], frames_used=self.max_frames,
            elapsed=time.perf_counter() - start)

    def _refute_untestable(self, fault: Fault
                           ) -> Optional[List[Dict[str, int]]]:
        """Random-simulation check before an untestable verdict.

        The windowed PODEM sweep is complete only up to ``max_frames``
        and its objective enumeration; a cheap random probe (longer than
        the window) catches residual optimism and, as a bonus, returns a
        working test.  Deterministic per fault, in every process: the
        seed hashes a tuple of ints only (an output fault's ``None`` pin
        maps to -1), and int hashes depend on neither the hash seed nor
        object addresses.
        """
        import random

        pin = -1 if fault.pin is None else fault.pin
        rng = random.Random((fault.node, pin, fault.value,
                             0xA7B6).__hash__())
        names = [self.circuit.nodes[i].name for i in self.circuit.inputs]
        length = 2 * self.max_frames + 4
        for _ in range(self._refutation_trials):
            sequence = [{n: rng.randint(0, 1) for n in names}
                        for _ in range(length)]
            if self._detects(sequence, fault):
                return sequence
        return None

    def _detects(self, sequence: List[Dict[str, int]],
                 fault: Fault) -> bool:
        """Does ``sequence`` detect ``fault``?  (reference simulator)"""
        from ..sim.faultsim import fault_simulate

        return bool(fault_simulate(self.circuit, sequence, [fault]))

    # ------------------------------------------------------------------
    # PODEM core
    # ------------------------------------------------------------------
    def _podem(self, fault: Fault, window: int, budget: List[int],
               decisions: List[int]
               ) -> Tuple[str, Dict[Tuple[int, int], int]]:
        """Run PODEM at fixed window size.

        Returns ('detected' | 'aborted' | 'exhausted', assignments).
        """
        circuit = self.circuit
        fault_cone = self._fault_cone(fault)
        assignments: Dict[Tuple[int, int], int] = {}
        stack: List[Tuple[Tuple[int, int], int, bool]] = []
        while True:
            state = self._simulate(fault, window, assignments, fault_cone)
            step = "decide"
            if state.conflict:
                step = "backtrack"
            elif self._detected(state, window):
                return "detected", assignments
            elif not self._has_potential(state, window, fault):
                step = "backtrack"
            if step == "decide":
                target = self._next_target(state, window, fault)
                if target is None:
                    step = "backtrack"
                else:
                    key, value = target
                    assignments[key] = value
                    stack.append((key, value, False))
                    decisions[0] += 1
                    continue
            # Backtrack.
            flipped = False
            while stack:
                key, value, tried = stack.pop()
                del assignments[key]
                if not tried:
                    budget[0] -= 1
                    if budget[0] < 0:
                        return "aborted", assignments
                    assignments[key] = inv(value)
                    stack.append((key, inv(value), True))
                    flipped = True
                    break
            if not flipped:
                return "exhausted", assignments

    # ------------------------------------------------------------------
    def _fault_cone(self, fault: Fault) -> Set[int]:
        """Nodes whose faulty value may differ from the good value.

        Memoized per origin node: ``generate()`` is called once per fault
        and most faults share an origin with others (0/1 pairs, pin
        faults), so the cone walk would otherwise repeat per fault.
        """
        origin = fault.node
        cone = self._cone_cache.get(origin)
        if cone is None:
            cone = {origin}
            cone.update(self.circuit.transitive_fanout(origin))
            self._cone_cache[origin] = cone
        return cone

    # ------------------------------------------------------------------
    def _simulate(self, fault: Fault, window: int,
                  assignments: Dict[Tuple[int, int], int],
                  fault_cone: Set[int]) -> _Window:
        """Composite 3-valued simulation of the whole window."""
        circuit = self.circuit
        state = _Window(window, self._n)
        relations = self.relations if self.mode != "none" else None
        for frame in range(window):
            gv = state.gv[frame]
            fv = state.fv[frame]
            # Sources: PIs from assignments, FFs from previous frame.
            for pid in circuit.inputs:
                value = assignments.get((frame, pid), X)
                gv[pid] = value
            if frame > 0:
                prev_gv = state.gv[frame - 1]
                prev_fv = state.fv[frame - 1]
                for fid in circuit.ffs:
                    data = circuit.nodes[fid].fanins[0]
                    gv[fid] = prev_gv[data]
                    fdata = prev_fv.get(data)
                    if fdata is not None and fdata != prev_gv[data]:
                        fv[fid] = fdata
                    # A stuck FF data input always captures the stuck value
                    # in the faulty machine (FFs are not in topo order, so
                    # the pin forcing in _eval_frame never sees them).
                    if fault.pin is not None and fid == fault.node:
                        fv[fid] = fault.value
            self._force_site(fault, gv, fv)
            self._eval_frame(fault, frame, state, fault_cone)
            if relations is not None:
                if self.mode == "known":
                    self._apply_known(fault, frame, state, fault_cone)
                else:
                    self._apply_forbidden(frame, state)
                if state.conflict:
                    return state
        return state

    def _force_site(self, fault: Fault, gv: List[int],
                    fv: Dict[int, int]) -> None:
        """Output faults force the faulty plane at the site every frame."""
        if fault.pin is None:
            fv[fault.node] = fault.value

    def _eval_frame(self, fault: Fault, frame: int, state: _Window,
                    fault_cone: Set[int]) -> None:
        """Levelized frame evaluation of both planes.

        The faulty plane is kept *canonical*: an ``fv`` entry exists for
        a re-evaluated gate iff its faulty value differs from the good
        value.  (Historically entries that became equal to the good value
        after a re-evaluation -- e.g. once ``_apply_known`` forced values
        -- were never deleted, so ``_Window.is_d`` and the D-frontier
        walked stale non-differences; the incremental engine's state
        comparisons also rely on this canonical form.)
        """
        circuit = self.circuit
        gv = state.gv[frame]
        fv = state.fv[frame]
        fault_node = fault.node
        fault_pin = fault.pin
        for nid in circuit.topo_order:
            node = circuit.nodes[nid]
            if gv[nid] == X:
                gv[nid] = _good_value(node.gate_type, node.fanins, gv)
            if nid in fault_cone:
                if nid == fault_node:
                    if fault_pin is None:
                        faulty = fault.value
                    else:
                        fanin_faulty = [fv.get(f, gv[f])
                                        for f in node.fanins]
                        fanin_faulty[fault_pin] = fault.value
                        faulty = eval_gate(node.gate_type, fanin_faulty)
                else:
                    faulty = _faulty_value(node.gate_type, node.fanins,
                                           gv, fv)
                if faulty != gv[nid]:
                    fv[nid] = faulty
                elif nid in fv:
                    del fv[nid]

    def _reeval_frame(self, fault: Fault, frame: int, state: _Window,
                      fault_cone: Set[int]) -> bool:
        """Re-run frame evaluation after forcing implied values."""
        before = list(state.gv[frame])
        self._eval_frame(fault, frame, state, fault_cone)
        return state.gv[frame] != before

    # -- learned-knowledge application ---------------------------------
    def _implications_at(self, nid: int, value: int,
                         frame: int) -> Sequence[Tuple[int, int]]:
        """Direct implications of ``nid=value`` valid at ``frame``.

        Indirection point: the reference engine asks the
        :class:`RelationDB` (which filters warm-ups per call); the
        incremental engine overrides this with antecedent-indexed
        per-frame buckets built once, so lookup is O(hits).
        """
        return self.relations.implications_at(nid, value, frame)

    def _apply_known(self, fault: Fault, frame: int, state: _Window,
                     fault_cone: Set[int]) -> None:
        """Force learned implications as known good values (fixpoint)."""
        gv = state.gv[frame]
        fv = state.fv[frame]
        for _round in range(6):
            changed = False
            for nid in range(self._n):
                value = gv[nid]
                if value == X:
                    continue
                for m, u in self._implications_at(nid, value, frame):
                    if gv[m] == X:
                        gv[m] = u
                        if m not in fault_cone:
                            fv.pop(m, None)
                        changed = True
                    elif gv[m] != u:
                        # A learned invariant contradicted: the current
                        # partial assignment is unreachable.
                        state.conflict = True
                        return
            if not changed:
                break
            self._reeval_frame(fault, frame, state, fault_cone)

    def _apply_forbidden(self, frame: int, state: _Window) -> None:
        """Mark and propagate forbidden values in the shadow plane."""
        gv = state.gv[frame]
        forb = state.forb[frame]
        circuit = self.circuit

        def shadow(nid: int) -> int:
            if gv[nid] != X:
                return gv[nid]
            banned = forb.get(nid)
            if banned is not None:
                return inv(banned)
            return X

        # Seed: direct implications of known values.
        for nid in range(self._n):
            value = gv[nid]
            if value == X:
                continue
            for m, u in self._implications_at(nid, value, frame):
                if gv[m] != X:
                    if gv[m] != u:
                        state.conflict = True
                        return
                    continue
                if forb.get(m, inv(u)) != inv(u):
                    state.conflict = True  # both values forbidden
                    return
                forb[m] = inv(u)
        # Shadow state transfer from the previous frame.
        if frame > 0:
            prev_gv = state.gv[frame - 1]
            prev_forb = state.forb[frame - 1]
            for fid in circuit.ffs:
                data = circuit.nodes[fid].fanins[0]
                if gv[fid] != X or prev_gv[data] != X:
                    continue
                banned = prev_forb.get(data)
                if banned is not None and fid not in forb:
                    forb[fid] = banned
        # Forward propagation: forbidden-0 implies as 1, forbidden-1 as 0.
        for _round in range(4):
            changed = False
            for nid in circuit.topo_order:
                if gv[nid] != X or nid in forb:
                    continue
                node = circuit.nodes[nid]
                out = eval_gate(node.gate_type,
                                [shadow(f) for f in node.fanins])
                if out != X:
                    forb[nid] = inv(out)
                    changed = True
            if not changed:
                break

    # -- search guidance -------------------------------------------------
    def _detected(self, state: _Window, window: int) -> bool:
        for frame in range(window):
            for oid in self.circuit.outputs:
                if state.is_d(frame, oid):
                    return True
        return False

    def _activated(self, state: _Window, window: int, fault: Fault
                   ) -> Optional[int]:
        """First frame where the fault is excited, or None."""
        src = fault_site_source(self.circuit, fault)
        for frame in range(window):
            if state.gv[frame][src] == inv(fault.value):
                return frame
        return None

    def _d_frontier(self, state: _Window, window: int, fault: Fault
                    ) -> List[Tuple[int, int]]:
        """(frame, gate) pairs through which a D could still advance."""
        circuit = self.circuit
        out: List[Tuple[int, int]] = []
        src = fault_site_source(circuit, fault)
        for frame in range(window):
            gv = state.gv[frame]
            for nid in range(self._n):
                if not state.is_d(frame, nid):
                    continue
                for fo in circuit.nodes[nid].fanouts:
                    fo_node = circuit.nodes[fo]
                    if fo_node.is_combinational and (
                            gv[fo] == X or state.faulty(frame, fo) == X):
                        out.append((frame, fo))
            # Branch fault: the faulted gate itself is the frontier while
            # its output is still undetermined.
            if fault.pin is not None and gv[src] == inv(fault.value):
                if gv[fault.node] == X or \
                        state.faulty(frame, fault.node) == X:
                    out.append((frame, fault.node))
        return out

    def _has_potential(self, state: _Window, window: int,
                       fault: Fault) -> bool:
        """Can this partial assignment still lead to detection?

        Checks (a) activation achieved or still achievable, and (b) an
        X-path from some fault effect to a PO within the window (a D
        parked at the last frame's FF inputs counts only if the window
        can still grow -- it cannot here, growth is handled by the
        caller trying a larger window).
        """
        circuit = self.circuit
        src = fault_site_source(circuit, fault)
        activated = self._activated(state, window, fault) is not None
        if not activated:
            for frame in range(window):
                if state.gv[frame][src] == X:
                    return True  # activation still possible
            return False
        # X-path check from every D / frontier gate.
        seen: Set[Tuple[int, int]] = set()
        stack: List[Tuple[int, int]] = []
        for frame in range(window):
            for nid in range(self._n):
                if state.is_d(frame, nid):
                    stack.append((frame, nid))
        if fault.pin is not None:
            for frame in range(window):
                if state.gv[frame][src] == inv(fault.value):
                    stack.append((frame, fault.node))
        while stack:
            frame, nid = stack.pop()
            if (frame, nid) in seen:
                continue
            seen.add((frame, nid))
            node = circuit.nodes[nid]
            value_known = (state.gv[frame][nid] != X
                           and state.faulty(frame, nid) != X)
            is_effect = state.is_d(frame, nid)
            if node.is_output and (is_effect or not value_known):
                if is_effect:
                    return True
                if state.gv[frame][nid] == X or \
                        state.faulty(frame, nid) == X:
                    return True
            if value_known and not is_effect:
                continue  # effect cannot pass through a settled non-D
            for fo in node.fanouts:
                fo_node = circuit.nodes[fo]
                if fo_node.is_sequential:
                    if frame + 1 < window:
                        stack.append((frame + 1, fo))
                else:
                    stack.append((frame, fo))
        return False

    def _objectives(self, state: _Window, window: int, fault: Fault):
        """Candidate (frame, node, value) goals, best first.

        Activation goals come before propagation goals; every candidate
        is yielded so the search stays complete when the preferred one
        is unreachable (e.g. its backtrace dies at frame 0).
        """
        circuit = self.circuit
        src = fault_site_source(circuit, fault)
        activated = self._activated(state, window, fault) is not None
        if not activated:
            for frame in range(window):
                if state.gv[frame][src] == X:
                    yield (frame, src, inv(fault.value))
            return
        frontier = self._d_frontier(state, window, fault)
        co = self.testability.co
        frontier.sort(key=lambda fn: (co[fn[1]], fn[0]))
        for frame, gate in frontier:
            node = circuit.nodes[gate]
            control = self._control_a[gate]
            gv = state.gv[frame]
            for pin, fanin in enumerate(node.fanins):
                if fault.pin is not None and gate == fault.node \
                        and pin == fault.pin:
                    continue
                if gv[fanin] == X and not state.is_d(frame, fanin):
                    if control is not None:
                        yield (frame, fanin, inv(control))
                    else:
                        yield (frame, fanin, ZERO)
        # A stuck-at fault is permanent: re-exciting the site in further
        # frames opens propagation windows the first activation frame
        # cannot reach (completeness of the frame sweep depends on this).
        for frame in range(window):
            if state.gv[frame][src] == X:
                yield (frame, src, inv(fault.value))

    def _next_target(self, state: _Window, window: int, fault: Fault
                     ) -> Optional[Tuple[Tuple[int, int], int]]:
        """First backtraceable objective's PI target, or None."""
        for objective in self._objectives(state, window, fault):
            target = self._backtrace(state, *objective)
            if target is not None:
                return target
        return None

    # -- backtrace -------------------------------------------------------
    def _backtrace(self, state: _Window, frame: int, nid: int, value: int
                   ) -> Optional[Tuple[Tuple[int, int], int]]:
        """Walk an objective back to an unassigned PI (PODEM backtrace).

        Unlike textbook combinational backtrace, paths here can genuinely
        die: crossing a sequential element moves one frame earlier and
        falling off frame 0 means the goal needs pre-power-up state.  The
        walk is therefore a depth-first search over alternative inputs
        with memoized dead ends, so a reachable PI is always found when
        one exists (required for sound untestability claims).

        In forbidden mode, inputs whose shadow value already equals the
        needed controlling value are preferred -- the paper's
        decision-selection rule.
        """
        tst = self.testability
        dead: Set[Tuple[int, int]] = set()
        gvs = state.gv
        gt = self._gt
        fanins_a = self._fanins_a
        control_a = self._control_a
        invert_a = self._invert_a
        is_input_a = self._is_input_a
        is_seq_a = self._is_seq_a

        def expand(frame: int, nid: int, value: int
                   ) -> Tuple[int, int, List[int]]:
            """Steps from an X non-input node: the frame and value they
            ask for, and the fanins to try, in order (none: dead end)."""
            fanins = fanins_a[nid]
            if is_seq_a[nid]:
                return frame - 1, value, [fanins[0]] if frame > 0 else []
            t = gt[nid]
            if t is GateType.TIE0 or t is GateType.TIE1:
                return frame, value, []
            if t is GateType.NOT or t is GateType.BUF:
                return (frame, inv(value) if t is GateType.NOT else value,
                        [fanins[0]])
            gv = gvs[frame]
            xs = [f for f in fanins if gv[f] == X]
            if t is GateType.XOR or t is GateType.XNOR:
                parity = value ^ (1 if t is GateType.XNOR else 0)
                for f in fanins:
                    if gv[f] == ONE:
                        parity ^= 1
                return (frame, parity if len(xs) == 1 else ZERO,
                        sorted(xs, key=lambda f: min(tst.cc0[f],
                                                     tst.cc1[f])))
            control = control_a[nid]
            needed = inv(value) if invert_a[nid] else value
            if needed == control:
                # One controlling input suffices: prefer the input the
                # learned invariants already force to the controlling
                # value (forbidden non-controlling), else the easiest;
                # on failure try the alternatives.
                forb = state.forb[frame]
                non_control = inv(control)
                cc = tst.cc0 if control == ZERO else tst.cc1
                return frame, control, sorted(
                    xs, key=lambda f: (forb.get(f) != non_control, cc[f]))
            # All inputs must be non-controlling: attack the hardest
            # first (fail fast), but any input is a legal next step.
            cc = tst.cc0 if control == ONE else tst.cc1
            return frame, inv(control), sorted(xs, key=lambda f: -cc[f])

        # Depth-first search on an explicit stack (a walk spans window x
        # logic depth): an entry is a node still being tried, with the
        # frame and value of its steps and an iterator over the fanins
        # left.  A node whose fanins all fail becomes a dead end.
        stack: List[Tuple[Tuple[int, int], int, int, Iterator[int]]] = []
        step: Optional[Tuple[int, int, int]] = (frame, nid, value)
        while True:
            if step is not None:
                frame, nid, value = step
                # A decided node (possibly by implication) or a known
                # dead end is no step at all.
                if (frame, nid) not in dead and gvs[frame][nid] == X:
                    if is_input_a[nid]:
                        return ((frame, nid), value)
                    to_frame, want, order = expand(frame, nid, value)
                    stack.append(((frame, nid), to_frame, want,
                                  iter(order)))
            if not stack:
                return None
            key, to_frame, want, order = stack[-1]
            fanin = next(order, None)
            if fanin is None:
                stack.pop()
                dead.add(key)
                step = None
            else:
                step = (to_frame, fanin, want)

    # ------------------------------------------------------------------
    def _sequence(self, assignments: Dict[Tuple[int, int], int],
                  window: int) -> List[Dict[str, int]]:
        circuit = self.circuit
        out: List[Dict[str, int]] = []
        for frame in range(window):
            vector = {}
            for pid in circuit.inputs:
                value = assignments.get((frame, pid))
                if value is not None:
                    vector[circuit.nodes[pid].name] = value
            out.append(vector)
        return out


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def make_atpg(circuit: Circuit, *, engine: str = "incremental",
              relations: Optional[RelationDB] = None,
              mode: str = "none", backtrack_limit: int = 30,
              max_frames: int = 10) -> SequentialATPG:
    """Factory over :data:`ATPG_ENGINES`; both share one contract.

    ``incremental`` (:class:`repro.atpg.incremental.IncrementalATPG`)
    produces bit-identical :class:`TestResult`s to ``reference`` -- the
    differential harness in ``tests/test_engine_differential.py`` pins
    that down -- while propagating decisions through the event wavefront
    only and undoing backtracks from a trail.
    """
    if engine == "reference":
        return SequentialATPG(circuit, relations=relations, mode=mode,
                              backtrack_limit=backtrack_limit,
                              max_frames=max_frames)
    if engine == "incremental":
        from .incremental import IncrementalATPG

        return IncrementalATPG(circuit, relations=relations, mode=mode,
                               backtrack_limit=backtrack_limit,
                               max_frames=max_frames)
    raise ValueError(
        f"unknown ATPG engine {engine!r}; expected one of {ATPG_ENGINES}")
