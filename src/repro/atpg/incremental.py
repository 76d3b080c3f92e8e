"""Incremental event-driven PODEM engine.

:class:`IncrementalATPG` is a drop-in replacement for
:class:`~repro.atpg.engine.SequentialATPG` that produces *bit-identical*
:class:`~repro.atpg.engine.TestResult`\\ s (status, sequences,
decision/backtrack counts, detected-at windows) while doing a fraction
of the work per search step.  The reference engine re-simulates the
whole W-frame window from scratch on every decision and every
backtrack; this engine keeps the window state alive across search steps
and moves it incrementally:

* **trail + undo log** -- every decision pushes a trail entry holding
  the pre-decision contents of each frame it touches; backtracking pops
  the trail and reinstalls them instead of re-simulating anything;
* **event wavefront** (``mode='none'``) -- a PI assignment propagates
  through its combinational fanout cone in topological order (a heap of
  topo positions), crosses into later frames only through flip-flops
  whose captured value actually changed, and dies out as soon as no
  frame-boundary value differs.  Each popped gate is recomputed by its
  own exec-generated good-plane and faulty-plane evaluator
  (:func:`repro.sim.compiled.compile_gate_evaluators`, the frame
  kernel's three-valued expressions one gate at a time).  Its work
  follows the decision's cone, which is why it is kept over a
  whole-frame kernel rebuild: that costs the whole circuit per frame
  and loses on large netlists;
* **frame wavefront** (learning modes) -- the learned-implication
  fixpoints (:meth:`_apply_known` / :meth:`_apply_forbidden`) are
  deliberately bounded in rounds, which makes sub-frame increments
  unsound to replay; instead the decision frame and its successors are
  rebuilt from scratch, stopping at the first frame whose flip-flop
  boundary (good value, faulty value, forbidden shadow of every FF data
  input) is unchanged -- frames before the decision and after the dead
  wavefront are never touched.  A rebuilt frame starts with every gate
  X, so both planes come from one exec-generated straight-line kernel
  (:func:`repro.sim.compiled.compile_frame_kernel`: a three-valued
  table lookup per gate, the fault site patched in place, the faulty
  plane then canonicalized over the fault cone); the forbidden shadow
  takes one flat topological pass over the compiled good-plane
  evaluators, and only the ``known`` mode's re-evaluation rounds use
  the event propagation of ``mode='none'``;
* **compiled refutation probe** -- the random probe run before an
  untestable verdict simulates the reference's sequences, in the same
  order, on :class:`~repro.sim.compiled.CompiledFaultSimulator`;
* **O(hits) implication lookup** -- learned relations are applied from
  antecedent-indexed per-frame buckets
  (:meth:`repro.core.relations.RelationDB.frame_index`) instead of
  filtering the adjacency list on every query;
* **maintained D-sets** -- the set of fault-effect nodes per frame is
  updated alongside the planes, so detection checks, the D-frontier and
  the X-path search iterate over actual fault effects instead of
  scanning every node of every frame;
* **trail-scoped backtrace memo** -- a backtrace dead end found while
  selecting one target stays known for every later objective of the
  step and every deeper decision, and is forgotten exactly when the
  decision it was found under is popped (see below);
* **precomputed fanin orders** -- the backtrace visits X fanins in
  per-node orders sorted once per circuit by SCOAP, instead of sorting
  them on every visit.

Correctness leans on two facts.  Three-valued gate evaluation is
*monotone* in the information order (a decision can only refine X to a
known value, never flip a known value), so recomputing exactly the
nodes whose fanin values changed -- in topological order -- reaches the
same fixpoint as full re-evaluation.  And the faulty plane is kept
*canonical* by :meth:`SequentialATPG._eval_frame` (an ``fv`` entry
exists iff faulty differs from good), so frame states are pure
functions of the assignments and compare with ``==``.

Target selection reuses work on the same grounds.  A backtrace walk
that asks ``(frame, node)`` for a value fails exactly when no unassigned
PI can be reached from there through X nodes (one frame back at each
FF, never past frame 0).  That does not depend on the value or on the
objective, and it stays true under every deeper decision, because
three-valued evaluation and the round-bounded implication fixpoints
only refine X.  So :meth:`_podem` keeps one insertion-ordered memo per
window: a decision records the memo size when it is pushed, and popping
the decision truncates the memo back to that mark, so only dead ends
found under the decisions still on the trail survive.  The fanin orders
are exact too: filtering a stable-sorted fanin list by "is X" gives the
order of stable-sorting the X subset, which is what the reference
computes, and the forbidden-mode preference is a stable partition of
that list.

Flat circuit structure (fanin tuples, topo positions, per-node
combinational fanouts, fanout/sequential pairs, output flags, backtrace
step kinds and fanin orders, FF data pairs, the frame kernel and the
per-gate evaluators) is
lowered once per circuit -- reusing
:func:`repro.sim.compiled.compile_circuit`'s cached lowering -- and
shared by every engine instance via a fingerprint-keyed, lock-guarded
cache; only circuits PODEM runs on pay for the compiled code.  Fault cones
ride on the circuit-level ``transitive_fanout`` memo.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import (
    CONTROLLING_VALUE,
    GateType,
    ONE,
    X,
    ZERO,
    eval_gate,
    inv,
)
from ..circuit.netlist import Circuit
from ..core.relations import RelationDB
from ..sim.compiled import (
    CompiledFaultSimulator,
    compile_circuit,
    compile_frame_kernel,
    compile_gate_evaluators,
)
from .engine import SequentialATPG
from .faults import Fault, fault_site_source
from .scoap import compute_testability


#: Backtrace step kinds (:attr:`_CircuitIndex.bt_kind`).
_BT_INPUT, _BT_SEQ, _BT_DEAD, _BT_NOT, _BT_BUF, _BT_XOR, _BT_XNOR, \
    _BT_GATE = range(8)


def _bt_kind(node) -> int:
    """The backtrace step of ``node``, in the reference's test order."""
    if node.is_input:
        return _BT_INPUT
    if node.is_sequential:
        return _BT_SEQ
    t = node.gate_type
    if t is GateType.TIE0 or t is GateType.TIE1:
        return _BT_DEAD
    if t is GateType.NOT:
        return _BT_NOT
    if t is GateType.BUF:
        return _BT_BUF
    if t is GateType.XOR:
        return _BT_XOR
    if t is GateType.XNOR:
        return _BT_XNOR
    return _BT_GATE


class _CircuitIndex:
    """Flat per-circuit structure shared by every incremental engine."""

    __slots__ = ("circuit", "n", "gtype", "fanins", "comb_fanouts",
                 "fanout_pairs", "topo", "topo_pos", "ff_pairs", "inputs",
                 "outputs", "is_output", "is_comb", "bt_kind", "bt_first",
                 "bt_second", "frame_kernel", "good_eval", "faulty_eval")

    def __init__(self, circuit: Circuit):
        cc = compile_circuit(circuit)  # cached opcode/fanin lowering
        nodes = circuit.nodes
        self.circuit = circuit
        self.n = cc.n
        self.gtype = [node.gate_type for node in nodes]
        self.fanins: List[Tuple[int, ...]] = [None] * cc.n
        for _op, nid, fis in cc.schedule:
            self.fanins[nid] = fis
        for node in nodes:  # PIs/FFs (not in the schedule)
            if self.fanins[node.nid] is None:
                self.fanins[node.nid] = tuple(node.fanins)
        self.comb_fanouts: List[Tuple[int, ...]] = [
            tuple(fo for fo in node.fanouts
                  if nodes[fo].is_combinational)
            for node in nodes]
        #: Every fanout with its "is sequential" flag (X-path search).
        self.fanout_pairs: List[Tuple[Tuple[int, bool], ...]] = [
            tuple((fo, nodes[fo].is_sequential) for fo in node.fanouts)
            for node in nodes]
        #: Gate ids in topological order, and each gate's position there.
        self.topo: Tuple[int, ...] = cc.gate_nids
        self.topo_pos = [0] * cc.n
        for pos, nid in enumerate(self.topo):
            self.topo_pos[nid] = pos
        #: (FF output nid, FF data-input nid) in circuit FF order.
        self.ff_pairs: Tuple[Tuple[int, int], ...] = tuple(
            zip(cc.ffs, cc.ff_data))
        self.inputs = cc.inputs
        self.outputs = frozenset(cc.outputs)
        self.is_output: List[bool] = [n.is_output for n in nodes]
        self.is_comb: List[bool] = [n.is_combinational for n in nodes]
        # Backtrace fanin orders: the reference sorts the X fanins by a
        # static SCOAP key on every visit; filtering a stable-sorted
        # fanin list by "is X" gives exactly that order.  ``bt_first``
        # serves XOR/XNOR (easiest first) and the gates whose objective
        # needs one controlling input (easiest first), ``bt_second`` the
        # gates that need every input non-controlling (hardest first).
        tst = compute_testability(circuit)
        cc0, cc1 = tst.cc0, tst.cc1
        self.bt_kind: List[int] = [_bt_kind(node) for node in nodes]
        self.bt_first: List[Tuple[int, ...]] = [()] * cc.n
        self.bt_second: List[Tuple[int, ...]] = [()] * cc.n
        for nid, kind in enumerate(self.bt_kind):
            fanins = self.fanins[nid]
            if kind == _BT_XOR or kind == _BT_XNOR:
                self.bt_first[nid] = tuple(sorted(
                    fanins, key=lambda f: min(cc0[f], cc1[f])))
            elif kind == _BT_GATE:
                control = CONTROLLING_VALUE[self.gtype[nid]]
                easy = cc0 if control == ZERO else cc1
                hard = cc0 if control == ONE else cc1
                self.bt_first[nid] = tuple(sorted(
                    fanins, key=lambda f: easy[f]))
                self.bt_second[nid] = tuple(sorted(
                    fanins, key=lambda f: -hard[f]))
        #: Fresh-frame good/faulty evaluation (see ``_eval_fresh_frame``)
        #: and the per-gate evaluators of the event wavefront, from the
        #: same three-valued tables; compiled here rather than with the
        #: simulator kernels so that only circuits PODEM actually runs
        #: on pay for them.
        self.frame_kernel = compile_frame_kernel(cc.schedule)
        self.good_eval, self.faulty_eval = compile_gate_evaluators(
            cc.schedule, cc.n)


_INDEX_CACHE: "OrderedDict[str, _CircuitIndex]" = OrderedDict()
_INDEX_CAP = 128
#: Serializes the LRU: ``repro serve`` runs PODEM from concurrent
#: request threads, and a miss exec-compiles the frame kernel.
_INDEX_LOCK = threading.Lock()


def circuit_index(circuit: Circuit) -> _CircuitIndex:
    """Lower (or fetch) the flat index, keyed on the fingerprint.

    Thread-safe like :func:`repro.sim.compiled.compile_circuit`:
    concurrent callers for one circuit build its index exactly once.
    """
    key = circuit.fingerprint()
    with _INDEX_LOCK:
        hit = _INDEX_CACHE.get(key)
        if hit is not None:
            _INDEX_CACHE.move_to_end(key)
            return hit
        idx = _CircuitIndex(circuit)
        _INDEX_CACHE[key] = idx
        while len(_INDEX_CACHE) > _INDEX_CAP:
            _INDEX_CACHE.popitem(last=False)
        return idx


class _IncWindow:
    """Persistent window state, duck-typed to the reference ``_Window``.

    Adds per-frame D-sets (node ids where :meth:`is_d` holds) that the
    engine maintains alongside the planes.
    """

    __slots__ = ("gv", "fv", "forb", "dset", "conflict")

    def __init__(self):
        self.gv: List[List[int]] = []
        self.fv: List[Dict[int, int]] = []
        self.forb: List[Dict[int, int]] = []
        self.dset: List[Set[int]] = []
        self.conflict = False

    def add_frame(self, n: int) -> None:
        self.gv.append([X] * n)
        self.fv.append({})
        self.forb.append({})
        self.dset.append(set())

    def faulty(self, frame: int, nid: int) -> int:
        value = self.fv[frame].get(nid)
        return self.gv[frame][nid] if value is None else value

    def is_d(self, frame: int, nid: int) -> bool:
        g = self.gv[frame][nid]
        f = self.faulty(frame, nid)
        return g != X and f != X and g != f


class _TrailEntry:
    """Undo record of one decision: pre-decision frame contents."""

    __slots__ = ("frames",)

    def __init__(self):
        #: frame index -> (gv list, fv dict, forb dict, dset set).
        self.frames: Dict[int, Tuple[list, dict, dict, set]] = {}


class IncrementalATPG(SequentialATPG):
    """Event-driven PODEM over a trailed window state.

    Same constructor, same :meth:`generate` contract and bit-identical
    results as :class:`SequentialATPG`; see the module docstring for
    what moves incrementally.  Every run uses this engine; the
    reference engine remains the differential oracle, reached through
    ``make_atpg(engine="reference")``.
    """

    def __init__(self, circuit: Circuit, *,
                 relations: Optional[RelationDB] = None,
                 mode: str = "none",
                 backtrack_limit: int = 30,
                 max_frames: int = 10):
        super().__init__(circuit, relations=relations, mode=mode,
                         backtrack_limit=backtrack_limit,
                         max_frames=max_frames)
        self._idx = circuit_index(circuit)
        self._state: Optional[_IncWindow] = None
        self._state_fault: Optional[Fault] = None
        self._assignments: Dict[Tuple[int, int], int] = {}
        self._trail: List[_TrailEntry] = []
        #: Backtrace dead ends of the running search, keyed
        #: ``frame * n + nid`` in insertion order (trail-scoped by
        #: :meth:`_podem`).
        self._dead: Dict[int, None] = {}
        #: Fault origin -> its cone's gates in topological order.
        self._cone_gates_cache: Dict[int, Tuple[int, ...]] = {}
        #: frame -> (its implication buckets, their antecedent node ids
        #: ascending); rebuilt if the relation database changes them.
        self._antecedents: Dict[int, Tuple[dict, Tuple[int, ...]]] = {}
        self._refuter: Optional[CompiledFaultSimulator] = None

    # ------------------------------------------------------------------
    # shared-structure overrides
    # ------------------------------------------------------------------
    def _implications_at(self, nid: int, value: int,
                         frame: int) -> Sequence[Tuple[int, int]]:
        return self.relations.frame_index(frame).get((nid, value), ())

    def _detects(self, sequence: List[Dict[str, int]],
                 fault: Fault) -> bool:
        """Refutation probe on the compiled fault simulator."""
        if self._refuter is None:
            self._refuter = CompiledFaultSimulator(self.circuit, width=1)
        return bool(self._refuter.detected(sequence, [fault]))

    # ------------------------------------------------------------------
    # PODEM core: identical control flow, incremental state
    # ------------------------------------------------------------------
    def _podem(self, fault: Fault, window: int, budget: List[int],
               decisions: List[int]
               ) -> Tuple[str, Dict[Tuple[int, int], int]]:
        state = self._prepare(fault, window)
        assignments = self._assignments
        # The backtrace dead-end memo lives with the trail: each stack
        # entry keeps the memo size at its push, and popping the entry
        # drops every dead end recorded since (see the module docstring).
        dead = self._dead = {}
        stack: List[Tuple[Tuple[int, int], int, bool, int]] = []
        while True:
            step = "decide"
            if state.conflict:
                step = "backtrack"
            elif self._detected(state, window):
                return "detected", dict(assignments)
            elif not self._has_potential(state, window, fault):
                step = "backtrack"
            if step == "decide":
                target = self._next_target(state, window, fault)
                if target is None:
                    step = "backtrack"
                else:
                    key, value = target
                    assignments[key] = value
                    stack.append((key, value, False, len(dead)))
                    decisions[0] += 1
                    self._apply(fault, key, value)
                    continue
            # Backtrack: pop the trail instead of re-simulating.
            flipped = False
            while stack:
                key, value, tried, mark = stack.pop()
                del assignments[key]
                self._undo()
                while len(dead) > mark:
                    dead.popitem()
                if not tried:
                    budget[0] -= 1
                    if budget[0] < 0:
                        return "aborted", dict(assignments)
                    assignments[key] = inv(value)
                    stack.append((key, inv(value), True, mark))
                    self._apply(fault, key, inv(value))
                    flipped = True
                    break
            if not flipped:
                return "exhausted", dict(assignments)

    # ------------------------------------------------------------------
    # window lifecycle
    # ------------------------------------------------------------------
    def _prepare(self, fault: Fault, window: int) -> _IncWindow:
        """Baseline (assignment-free) state for ``window`` frames.

        Reused across the growing-window sweep of one ``generate()``
        call: an exhausted search pops its whole trail, so the state is
        back at the baseline and window growth just appends frames.  A
        different fault -- or a stale mid-search state from an early
        ``detected``/``aborted`` return -- forces a rebuild.
        """
        state = self._state
        if (state is None or self._state_fault != fault
                or self._trail or self._assignments):
            self._assignments = {}
            self._trail = []
            state = _IncWindow()
            self._state = state
            self._state_fault = fault
        while len(state.gv) < window:
            frame = len(state.gv)
            state.add_frame(self._n)
            # Past a baseline conflict the reference leaves frames
            # fresh-X (it returns early); mirror that.
            if not state.conflict:
                self._compute_frame(fault, frame, state)
        return state

    def _compute_frame(self, fault: Fault, frame: int,
                       state: _IncWindow) -> None:
        """The reference ``_simulate`` frame body, on persistent state."""
        circuit = self.circuit
        cone = self._fault_cone(fault)
        assignments = self._assignments
        gv = state.gv[frame]
        fv = state.fv[frame]
        for pid in circuit.inputs:
            gv[pid] = assignments.get((frame, pid), X)
        if frame > 0:
            prev_gv = state.gv[frame - 1]
            prev_fv = state.fv[frame - 1]
            for fid, data in self._idx.ff_pairs:
                gv[fid] = prev_gv[data]
                fdata = prev_fv.get(data)
                if fdata is not None and fdata != prev_gv[data]:
                    fv[fid] = fdata
                if fault.pin is not None and fid == fault.node:
                    fv[fid] = fault.value
        self._force_site(fault, gv, fv)
        self._eval_fresh_frame(fault, gv, fv)
        if self.mode != "none":
            if self.mode == "known":
                self._apply_known(fault, frame, state, cone)
            else:
                self._apply_forbidden(frame, state)
        self._refresh_dset(state, frame)

    def _eval_fresh_frame(self, fault: Fault, gv: List[int],
                          fv: Dict[int, int]) -> None:
        """:meth:`SequentialATPG._eval_frame` of a fresh frame, compiled.

        Precondition: every gate of the frame is still X (sources, FF
        captures and the site forcing are in place) -- true of every
        frame :meth:`_compute_frame` builds, and what lets the kernel
        assign values instead of merging them.  The kernel computes the
        good plane and a full faulty list (fault site patched in place);
        the faulty plane is then canonicalized over the fault cone in
        topological order, exactly as the reference does.
        """
        fl = list(gv)
        for nid, value in fv.items():
            fl[nid] = value
        self._idx.frame_kernel(gv, fl, fault.node, self._site_fix(fault))
        for nid in self._cone_gates(fault):
            value = fl[nid]
            if value != gv[nid]:
                fv[nid] = value
            elif nid in fv:
                del fv[nid]

    def _site_fix(self, fault: Fault):
        """The kernel's ``fix``: faulty value of the faulted gate."""
        value = fault.value
        if fault.pin is None:
            return lambda *_fanins: value
        gtype = self._idx.gtype[fault.node]
        pin = fault.pin

        def fix(*fanins: int) -> int:
            values = list(fanins)
            values[pin] = value
            return eval_gate(gtype, values)
        return fix

    def _cone_gates(self, fault: Fault) -> Tuple[int, ...]:
        """Gates of the fault cone in topological order (memoized)."""
        gates = self._cone_gates_cache.get(fault.node)
        if gates is None:
            cone = self._fault_cone(fault)
            gates = tuple(nid for nid in self.circuit.topo_order
                          if nid in cone)
            self._cone_gates_cache[fault.node] = gates
        return gates

    def _refresh_dset(self, state: _IncWindow, frame: int) -> None:
        """Rebuild one frame's D-set from its canonical faulty plane."""
        gv = state.gv[frame]
        state.dset[frame] = {
            nid for nid, f in state.fv[frame].items()
            if f != X and gv[nid] != X and f != gv[nid]}

    def _update_dset(self, state: _IncWindow, frame: int,
                     nid: int) -> None:
        f = state.fv[frame].get(nid)
        if f is not None and f != X and state.gv[frame][nid] != X \
                and f != state.gv[frame][nid]:
            state.dset[frame].add(nid)
        else:
            state.dset[frame].discard(nid)

    # ------------------------------------------------------------------
    # decide / undo
    # ------------------------------------------------------------------
    def _save_copy(self, entry: _TrailEntry, frame: int) -> None:
        """Snapshot a frame into the trail before in-place mutation."""
        if frame not in entry.frames:
            state = self._state
            entry.frames[frame] = (list(state.gv[frame]),
                                   dict(state.fv[frame]),
                                   dict(state.forb[frame]),
                                   set(state.dset[frame]))

    def _apply(self, fault: Fault, key: Tuple[int, int],
               value: int) -> None:
        """Propagate one new PI assignment through the event wavefront."""
        state = self._state
        frame, pid = key
        entry = _TrailEntry()
        self._trail.append(entry)
        if self.mode == "none":
            self._save_copy(entry, frame)
            state.gv[frame][pid] = value
            self._update_dset(state, frame, pid)
            self._propagate(fault, frame, (pid,), entry)
        else:
            self._rebuild(fault, frame, entry)

    def _undo(self) -> None:
        """Pop one decision: reinstall every frame it touched."""
        entry = self._trail.pop()
        state = self._state
        for frame, (gv, fv, forb, dset) in entry.frames.items():
            state.gv[frame] = gv
            state.fv[frame] = fv
            state.forb[frame] = forb
            state.dset[frame] = dset
        state.conflict = False

    # ------------------------------------------------------------------
    # mode 'none': in-frame event propagation
    # ------------------------------------------------------------------
    def _propagate_frame(self, fault: Fault, state: _IncWindow,
                         frame: int, seeds, self_seeds=()) -> None:
        """In-frame event-driven recompute in topological order.

        ``seeds`` are nodes whose value changed (their combinational
        fanouts are scheduled); ``self_seeds`` are combinational nodes
        that must be recomputed themselves (a node forced by a learned
        implication needs its own faulty-plane entry re-normalized, just
        as the reference's full re-evaluation pass would).
        """
        idx = self._idx
        cone = self._fault_cone(fault)
        tp = idx.topo_pos
        topo = idx.topo
        good_eval = idx.good_eval
        faulty_eval = idx.faulty_eval
        comb_fanouts = idx.comb_fanouts
        fault_node = fault.node
        fault_pin = fault.pin
        heappush = heapq.heappush
        heappop = heapq.heappop
        gv = state.gv[frame]
        fv = state.fv[frame]
        dset = state.dset[frame]
        # The heap holds topological positions: a gate's position orders
        # it, and ``topo`` maps it back to the gate.
        heap: List[int] = []
        pushed: Set[int] = set()
        for s in self_seeds:
            if s not in pushed:
                pushed.add(s)
                heappush(heap, tp[s])
        for s in seeds:
            for fo in comb_fanouts[s]:
                if fo not in pushed:
                    pushed.add(fo)
                    heappush(heap, tp[fo])
        while heap:
            nid = topo[heappop(heap)]
            changed = False
            old_g = gv[nid]
            if old_g == X:
                good = good_eval[nid](gv)
                if good != X:
                    gv[nid] = good
                    changed = True
            if nid in cone:
                g_now = gv[nid]
                old_entry = fv.get(nid)
                old_eff = old_g if old_entry is None else old_entry
                if nid == fault_node:
                    if fault_pin is None:
                        faulty = fault.value
                    else:
                        vals = [fv.get(f, gv[f])
                                for f in idx.fanins[nid]]
                        vals[fault_pin] = fault.value
                        faulty = eval_gate(idx.gtype[nid], vals)
                else:
                    faulty = faulty_eval[nid](gv, fv)
                if faulty != g_now:
                    fv[nid] = faulty
                elif old_entry is not None:
                    del fv[nid]
                if faulty != old_eff:
                    changed = True
                if g_now != X and faulty != X and faulty != g_now:
                    dset.add(nid)
                else:
                    dset.discard(nid)
            if changed:
                for fo in comb_fanouts[nid]:
                    if fo not in pushed:
                        pushed.add(fo)
                        heappush(heap, tp[fo])

    def _propagate(self, fault: Fault, frame: int, seeds, entry) -> None:
        """Event-driven update from changed sources, frames forward.

        ``seeds`` are source nodes (the assigned PI, then changed FF
        outputs) of ``frame`` whose good value changed.  Affected
        combinational nodes are recomputed in topological order; a frame
        boundary is crossed only through FFs whose captured (good,
        faulty) pair differs, and the sweep stops at the first boundary
        with no change.
        """
        state = self._state
        idx = self._idx
        window = len(state.gv)
        fault_node = fault.node
        while True:
            self._propagate_frame(fault, state, frame, seeds)
            gv = state.gv[frame]
            fv = state.fv[frame]
            # Frame boundary: carry changed FF captures into the next
            # frame; the wavefront dies when nothing changed.
            nxt = frame + 1
            if nxt >= window:
                return
            changed_ffs: List[int] = []
            next_gv = state.gv[nxt]
            next_fv = state.fv[nxt]
            for fid, data in idx.ff_pairs:
                new_g = gv[data]
                fdata = fv.get(data)
                new_f = fdata if (fdata is not None
                                  and fdata != new_g) else None
                if fid == fault_node:
                    # A faulted FF's plane is pinned every frame: pin
                    # faults at the capture (stuck D input), output
                    # faults by ``_force_site``.
                    new_f = fault.value
                if new_g != next_gv[fid] or new_f != next_fv.get(fid):
                    self._save_copy(entry, nxt)
                    next_gv[fid] = new_g
                    if new_f is None:
                        next_fv.pop(fid, None)
                    else:
                        next_fv[fid] = new_f
                    self._update_dset(state, nxt, fid)
                    changed_ffs.append(fid)
            if not changed_ffs:
                return
            frame = nxt
            seeds = changed_ffs

    # ------------------------------------------------------------------
    # learning modes: frame-wavefront rebuild
    # ------------------------------------------------------------------
    def _rebuild(self, fault: Fault, start: int, entry) -> None:
        """Rebuild frames ``start..`` until the FF boundary is stable.

        The learned-implication fixpoints are round-bounded, so replaying
        them on partial deltas is unsound; each affected frame is
        recomputed from scratch instead.  Frames whose predecessor
        boundary (FF data good/faulty/forbidden triple) is unchanged are
        provably identical and are left untouched.
        """
        state = self._state
        n = self._n
        for frame in range(start, len(state.gv)):
            if frame > start and not self._boundary_changed(entry, frame):
                return
            entry.frames.setdefault(
                frame, (state.gv[frame], state.fv[frame],
                        state.forb[frame], state.dset[frame]))
            state.gv[frame] = [X] * n
            state.fv[frame] = {}
            state.forb[frame] = {}
            state.dset[frame] = set()
            self._compute_frame(fault, frame, state)
            if state.conflict:
                return

    def _boundary_changed(self, entry: _TrailEntry, frame: int) -> bool:
        """Did any FF-visible value of ``frame - 1`` change?"""
        old_gv, old_fv, old_forb, _dset = entry.frames[frame - 1]
        state = self._state
        new_gv = state.gv[frame - 1]
        new_fv = state.fv[frame - 1]
        new_forb = state.forb[frame - 1]
        for _fid, data in self._idx.ff_pairs:
            if old_gv[data] != new_gv[data] \
                    or old_fv.get(data) != new_fv.get(data) \
                    or old_forb.get(data) != new_forb.get(data):
                return True
        return False

    # ------------------------------------------------------------------
    # learned-knowledge application over the frame buckets
    # ------------------------------------------------------------------
    def _apply_known(self, fault: Fault, frame: int, state: _IncWindow,
                     fault_cone) -> None:
        """Reference fixpoint with O(hits) lookup and event re-evals.

        Same rounds, same application order, same conflicts as
        :meth:`SequentialATPG._apply_known`; the per-round full-frame
        re-evaluation is replaced by event propagation seeded at exactly
        the nodes the round forced (monotone, so the fixpoint each round
        reaches is identical), and implication lookup comes from the
        antecedent-indexed per-frame buckets.
        """
        buckets = self.relations.frame_index(frame)
        if not buckets:
            return
        gv = state.gv[frame]
        fv = state.fv[frame]
        bucket_get = buckets.get
        is_comb = self._idx.is_comb
        antecedents = self._antecedents_at(frame)
        for _round in range(6):
            changed = False
            forced: List[int] = []
            for nid in antecedents:
                value = gv[nid]
                if value == X:
                    continue
                implications = bucket_get((nid, value))
                if implications is None:
                    continue
                for m, u in implications:
                    if gv[m] == X:
                        gv[m] = u
                        if m not in fault_cone:
                            fv.pop(m, None)
                        forced.append(m)
                        changed = True
                    elif gv[m] != u:
                        state.conflict = True
                        return
            if not changed:
                break
            self._propagate_frame(
                fault, state, frame, forced,
                self_seeds=[m for m in forced if is_comb[m]])

    def _antecedents_at(self, frame: int) -> Tuple[int, ...]:
        """Node ids with an implication valid at ``frame``, ascending.

        Scanning these instead of every node keeps the reference's
        application order: a node contributes one bucket (the one of its
        current value), and nodes are visited by id.
        """
        buckets = self.relations.frame_index(frame)
        memo = self._antecedents.get(frame)
        if memo is None or memo[0] is not buckets:
            memo = (buckets, tuple(sorted({nid for nid, _value
                                           in buckets})))
            self._antecedents[frame] = memo
        return memo[1]

    def _apply_forbidden(self, frame: int, state: _IncWindow) -> None:
        """Reference shadow marking with a one-pass forward propagation.

        Seeding and the FF transfer match
        :meth:`SequentialATPG._apply_forbidden` step for step.  Its
        forward loop then repeats a topological pass up to four times,
        but forbidden values only grow from X and a frame's logic is
        acyclic, so every gate already sees its fanins' final shadow
        values in the first pass and later passes mark nothing; one pass
        over a flat shadow list gives the same plane.  With nothing
        seeded or transferred the pass cannot mark anything (the shadow
        equals the good plane) and is skipped.
        """
        gv = state.gv[frame]
        forb = state.forb[frame]
        buckets = self.relations.frame_index(frame)
        if buckets:
            bucket_get = buckets.get
            for nid in self._antecedents_at(frame):
                value = gv[nid]
                if value == X:
                    continue
                implications = bucket_get((nid, value))
                if implications is None:
                    continue
                for m, u in implications:
                    if gv[m] != X:
                        if gv[m] != u:
                            state.conflict = True
                            return
                        continue
                    banned = inv(u)
                    if forb.get(m, banned) != banned:
                        state.conflict = True  # both values forbidden
                        return
                    forb[m] = banned
        if frame > 0:
            prev_forb = state.forb[frame - 1]
            if prev_forb:
                prev_gv = state.gv[frame - 1]
                for fid, data in self._idx.ff_pairs:
                    if gv[fid] != X or prev_gv[data] != X:
                        continue
                    banned = prev_forb.get(data)
                    if banned is not None and fid not in forb:
                        forb[fid] = banned
        if not forb:
            return
        # Shadow plane: good value, else the complement of the banned one.
        shadow = list(gv)
        for nid, banned in forb.items():
            shadow[nid] = inv(banned)
        good_eval = self._idx.good_eval
        for nid in self._idx.topo:
            if shadow[nid] != X:
                continue
            out = good_eval[nid](shadow)
            if out != X:
                forb[nid] = inv(out)
                shadow[nid] = out

    # ------------------------------------------------------------------
    # search guidance over maintained D-sets and flat index arrays
    # ------------------------------------------------------------------
    def _detected(self, state: _IncWindow, window: int) -> bool:
        outputs = self._idx.outputs
        for frame in range(window):
            dset = state.dset[frame]
            if dset and not outputs.isdisjoint(dset):
                return True
        return False

    def _activated(self, state: _IncWindow, window: int, fault: Fault
                   ) -> Optional[int]:
        src = fault_site_source(self.circuit, fault)
        excite = inv(fault.value)
        gvs = state.gv
        for frame in range(window):
            if gvs[frame][src] == excite:
                return frame
        return None

    def _d_frontier(self, state: _IncWindow, window: int, fault: Fault
                    ) -> List[Tuple[int, int]]:
        comb_fanouts = self._idx.comb_fanouts
        out: List[Tuple[int, int]] = []
        src = fault_site_source(self.circuit, fault)
        site = fault.node
        pin_fault = fault.pin is not None
        excite = inv(fault.value)
        for frame in range(window):
            gv = state.gv[frame]
            fv = state.fv[frame]
            for nid in sorted(state.dset[frame]):
                for fo in comb_fanouts[nid]:
                    # Faulty value X: good X, or an X entry in ``fv``.
                    if gv[fo] == X or fv.get(fo) == X:
                        out.append((frame, fo))
            if pin_fault and gv[src] == excite and (
                    gv[site] == X or fv.get(site) == X):
                out.append((frame, site))
        return out

    def _has_potential(self, state: _IncWindow, window: int,
                       fault: Fault) -> bool:
        src = fault_site_source(self.circuit, fault)
        excite = inv(fault.value)
        gvs = state.gv
        if self._activated(state, window, fault) is None:
            for frame in range(window):
                if gvs[frame][src] == X:
                    return True
            return False
        # X-path check seeded from the maintained D-sets (reachability,
        # so traversal order does not affect the verdict).
        fvs = state.fv
        dsets = state.dset
        is_output = self._idx.is_output
        fanout_pairs = self._idx.fanout_pairs
        seen: Set[Tuple[int, int]] = set()
        stack: List[Tuple[int, int]] = []
        for frame in range(window):
            for nid in dsets[frame]:
                stack.append((frame, nid))
        if fault.pin is not None:
            for frame in range(window):
                if gvs[frame][src] == excite:
                    stack.append((frame, fault.node))
        while stack:
            item = stack.pop()
            if item in seen:
                continue
            seen.add(item)
            frame, nid = item
            if nid not in dsets[frame]:
                good = gvs[frame][nid]
                if good != X and fvs[frame].get(nid, good) != X:
                    continue  # effect cannot pass through a settled non-D
            if is_output[nid]:
                return True  # a fault effect, or a still-X output
            for fo, sequential in fanout_pairs[nid]:
                if not sequential:
                    stack.append((frame, fo))
                elif frame + 1 < window:
                    stack.append((frame + 1, fo))
        return False

    def _objectives(self, state: _IncWindow, window: int, fault: Fault):
        src = fault_site_source(self.circuit, fault)
        excite = inv(fault.value)
        gvs = state.gv
        if self._activated(state, window, fault) is not None:
            frontier = self._d_frontier(state, window, fault)
            co = self.testability.co
            frontier.sort(key=lambda fn: (co[fn[1]], fn[0]))
            fanins = self._idx.fanins
            control_a = self._control_a
            # The faulted pin of a branch fault is never an objective.
            skip_gate = fault.node if fault.pin is not None else -1
            for frame, gate in frontier:
                control = control_a[gate]
                want = ZERO if control is None else 1 - control
                gv = gvs[frame]
                for pin, fanin in enumerate(fanins[gate]):
                    # An X fanin carries no fault effect (``is_d`` needs
                    # a binary good value).
                    if gv[fanin] == X and not (gate == skip_gate
                                               and pin == fault.pin):
                        yield (frame, fanin, want)
        for frame in range(window):
            if gvs[frame][src] == X:
                yield (frame, src, excite)

    def _next_target(self, state: _IncWindow, window: int, fault: Fault
                     ) -> Optional[Tuple[Tuple[int, int], int]]:
        dead = self._dead
        for frame, nid, value in self._objectives(state, window, fault):
            target = self._backtrace(state, frame, nid, value, dead)
            if target is not None:
                return target
        return None

    def _backtrace(self, state: _IncWindow, frame: int, nid: int,
                   value: int, dead: Optional[Dict[int, None]] = None
                   ) -> Optional[Tuple[Tuple[int, int], int]]:
        """:meth:`SequentialATPG._backtrace` over flat index arrays.

        Same walk, same fanin order, same target.  ``dead`` is the
        dead-end memo (keys ``frame * n + nid``); :meth:`_next_target`
        passes the search's trail-scoped memo, and without one the
        memo lasts for this call only, as in the reference.
        """
        if dead is None:
            dead = {}
        idx = self._idx
        n = idx.n
        gvs = state.gv
        forbs = state.forb
        kind_a = idx.bt_kind
        fanins_a = idx.fanins
        first_a = idx.bt_first
        second_a = idx.bt_second
        control_a = self._control_a
        invert_a = self._invert_a

        def expand(frame: int, nid: int, value: int
                   ) -> Tuple[int, int, List[int]]:
            """Steps from an X non-input node: the frame and value they
            ask for, and the fanins to try, in order (none: dead end)."""
            kind = kind_a[nid]
            gv = gvs[frame]
            if kind == _BT_GATE:
                control = control_a[nid]
                needed = 1 - value if invert_a[nid] else value
                if needed == control:
                    # One controlling input suffices: inputs the learned
                    # invariants force to it (forbidden non-controlling)
                    # first, each part easiest first.
                    xs = [f for f in first_a[nid] if gv[f] == X]
                    forb = forbs[frame]
                    if forb and len(xs) > 1:
                        non_control = 1 - control
                        xs = ([f for f in xs
                               if forb.get(f) == non_control]
                              + [f for f in xs
                                 if forb.get(f) != non_control])
                    return frame, control, xs
                # Every input non-controlling: hardest first.
                return (frame, 1 - control,
                        [f for f in second_a[nid] if gv[f] == X])
            if kind == _BT_SEQ:
                return (frame - 1, value,
                        [fanins_a[nid][0]] if frame > 0 else [])
            if kind == _BT_NOT or kind == _BT_BUF:
                return (frame, 1 - value if kind == _BT_NOT else value,
                        [fanins_a[nid][0]])
            if kind == _BT_XOR or kind == _BT_XNOR:
                xs = [f for f in first_a[nid] if gv[f] == X]
                parity = value ^ (1 if kind == _BT_XNOR else 0)
                for f in fanins_a[nid]:
                    if gv[f] == ONE:
                        parity ^= 1
                return frame, parity if len(xs) == 1 else ZERO, xs
            return frame, value, []  # _BT_DEAD: a TIE gate

        # The reference's depth-first walk on an explicit stack: an entry
        # is a node still being tried, with the frame and value of its
        # steps and an iterator over the fanins left.
        stack: List[Tuple[int, int, int, Iterator[int]]] = []
        step: Optional[Tuple[int, int, int]] = (frame, nid, value)
        while True:
            if step is not None:
                frame, nid, value = step
                key = frame * n + nid
                # Already decided (possibly by implication), or a known
                # dead end: no step at all.
                if key not in dead and gvs[frame][nid] == X:
                    if kind_a[nid] == _BT_INPUT:
                        return ((frame, nid), value)
                    to_frame, want, order = expand(frame, nid, value)
                    stack.append((key, to_frame, want, iter(order)))
            if not stack:
                return None
            key, to_frame, want, order = stack[-1]
            fanin = next(order, None)
            if fanin is None:
                stack.pop()
                dead[key] = None
                step = None
            else:
                step = (to_frame, fanin, want)
