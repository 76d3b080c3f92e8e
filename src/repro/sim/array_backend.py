"""Vectorized array-kernel simulation backend ("array").

The compiled backend (:mod:`repro.sim.compiled`) removed per-gate
*dispatch* but still executes one straight-line Python statement per
gate, so its hot loops stay bytecode-bound.  This module lowers the same
flat opcode/fanin schedule one step further, into a **levelized,
opcode-grouped** form evaluated with whole-matrix bitwise operations:

* two-plane values live in an ``(n_nodes + 2, n_words)`` matrix of
  unsigned 64-bit words -- ``m0`` rows say "this machine sees 0",
  ``m1`` rows "sees 1", neither means X (exactly the packed encoding of
  :mod:`repro.sim.faultsim`) -- with fault-batch machines as bit
  columns;
* every gate of one opcode inside one topological level advances in a
  single vectorized statement (a gather over the group's fanin index
  matrix, a bitwise reduction, a scatter), so one step moves an entire
  fault batch per *opcode group* instead of per gate;
* the two extra matrix rows are constant pads -- a stuck-0 row and a
  stuck-1 row -- letting groups of mixed fanin count pad short gates
  with the opcode's neutral element (1 for AND-reduction, 0 for
  OR/XOR-reduction).

The word matrices are ``numpy.uint64`` arrays, so this backend needs
``numpy`` (the ``repro[fast]`` extra).  Without it the factories
(:func:`repro.sim.compiled.make_fault_simulator`,
:func:`repro.sim.resident.make_resident_dropper`) resolve ``array`` to
the compiled backend, whose results are identical by contract.

Like the other backends, detection sets and every downstream
:class:`~repro.atpg.driver.ATPGStats` field are bit-identical by
contract; ``tests/test_backend_differential.py`` pits all three against
each other across the generated corpus and word widths.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from .compiled import (
    CompiledCircuit,
    OP_AND, OP_BUF, OP_NAND, OP_NOR, OP_NOT, OP_OR, OP_TIE0, OP_TIE1,
    OP_XNOR, OP_XOR,
    compile_circuit,
)

__all__ = ["HAVE_NUMPY", "ArrayCircuit", "ArrayFaultSimulator",
           "array_form"]

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy leg
    _np = None

#: True when numpy is importable, i.e. the array backend can run here.
HAVE_NUMPY = _np is not None

#: Default machines per batch.  Matrix op cost is dominated by per-call
#: overhead at these sizes, so the backend gets faster per fault the
#: wider the batch.
DEFAULT_NUMPY_WIDTH = 4096

#: Injection plans retained per simulator instance (LRU).  ATPG fault
#: grading re-runs ``detected()`` over the same fault list for every
#: candidate sequence, so a handful of batch plans covers the whole
#: campaign; the cap only matters when callers stream arbitrary batches.
PLAN_CACHE_CAP = 32


#: Gate pins beyond a gate's fanin count are padded with the opcode's
#: neutral row so one index matrix covers a whole mixed-fanin group.
_AND_LIKE = (OP_AND, OP_NAND)
_OR_LIKE = (OP_OR, OP_NOR)
_XOR_LIKE = (OP_XOR, OP_XNOR)


class _Group:
    """All gates of one opcode inside one topological level."""

    __slots__ = ("op", "out", "max_fanin", "F2")

    def __init__(self, op: int, out, max_fanin: int, F2):
        self.op = op
        self.out = out          # output node ids (np.intp array)
        self.max_fanin = max_fanin
        self.F2 = F2            # (max_fanin, n_gates) intp index matrix


class ArrayCircuit:
    """Levelized, opcode-grouped lowering of one compiled circuit.

    Two extra plane rows follow the real nodes: row ``zero_row`` is a
    constant logic-0 (``m0`` all ones), row ``one_row`` a constant
    logic-1 -- the padding targets for short fanin tuples and the value
    source for TIE gates.
    """

    def __init__(self, cc: CompiledCircuit):
        self.cc = cc
        self.zero_row = cc.n
        self.one_row = cc.n + 1
        self.rows = cc.n + 2
        #: Topological level of every scheduled gate (sources are 0).
        self.gate_level: Dict[int, int] = {}
        #: fanin tuple per scheduled gate (pin-fault re-evaluation).
        self.fanins: Dict[int, Tuple[int, ...]] = {}
        self.tie0: List[int] = []
        self.tie1: List[int] = []
        #: nid -> (level index, group index, row inside the group), so a
        #: batch can turn its hot-gate set into per-group patch tables.
        self.gate_pos: Dict[int, Tuple[int, int, int]] = {}
        per_level: Dict[int, Dict[int, List[Tuple[int, Tuple[int, ...]]]]] = {}
        for op, nid, fis in cc.schedule:
            self.fanins[nid] = fis
            if op == OP_TIE0:
                self.tie0.append(nid)
                self.gate_level[nid] = 0
                continue
            if op == OP_TIE1:
                self.tie1.append(nid)
                self.gate_level[nid] = 0
                continue
            level = 1 + max((self.gate_level.get(f, 0) for f in fis),
                            default=0)
            self.gate_level[nid] = level
            per_level.setdefault(level, {}).setdefault(op, []).append(
                (nid, fis))
        #: One list of groups per level, in ascending level order.
        self.levels: List[List[_Group]] = []
        for li, level in enumerate(sorted(per_level)):
            groups = []
            for gi, (op, gates) in enumerate(
                    sorted(per_level[level].items())):
                pad = (self.one_row if op in _AND_LIKE else self.zero_row)
                max_fanin = max(len(fis) for _nid, fis in gates)
                out = [nid for nid, _fis in gates]
                for row, nid in enumerate(out):
                    self.gate_pos[nid] = (li, gi, row)
                fanin = [[(fis[j] if j < len(fis) else pad)
                          for _nid, fis in gates]
                         for j in range(max_fanin)]
                groups.append(_Group(
                    op, _np.asarray(out, dtype=_np.intp), max_fanin,
                    _np.asarray(fanin, dtype=_np.intp)))
            self.levels.append(groups)


# ----------------------------------------------------------------------
# lowering cache (piggybacks on the compiled-circuit LRU: one array
# form per live CompiledCircuit, same fingerprint keying and lifetime)
# ----------------------------------------------------------------------
_FORM_LOCK = threading.Lock()


def array_form(circuit: Circuit) -> ArrayCircuit:
    """Fetch (or build) the array lowering for a frozen circuit."""
    cc = compile_circuit(circuit)
    form = getattr(cc, "_array_form", None)
    if form is None:
        with _FORM_LOCK:
            form = getattr(cc, "_array_form", None)
            if form is None:
                form = ArrayCircuit(cc)
                cc._array_form = form
    return form


# ----------------------------------------------------------------------
# word helpers
# ----------------------------------------------------------------------
def _int_to_words(value: int, words: int):
    """Pack a bigint mask into little-endian 64-bit word rows."""
    raw = value.to_bytes(words * 8, "little")
    return _np.frombuffer(raw, dtype="<u8").astype(_np.uint64)


# ----------------------------------------------------------------------
# per-batch fault aggregation
# ----------------------------------------------------------------------
class _BatchForces:
    """Bigint force masks of one packed fault batch.

    Mirrors the aggregation of
    :meth:`repro.sim.compiled.CompiledFaultSimulator.run_batch`: each
    machine carries exactly one fault, so a bit lands in at most one of
    (zero-mask, one-mask) per node, pin faults fold into per-(gate, pin)
    bit groups, faults on PIs / FF outputs apply before gate evaluation
    and a stuck FF data input acts at the frame boundary.
    """

    __slots__ = ("src", "ff", "out_zero", "out_one", "pin_groups", "hot")

    def __init__(self, cc: CompiledCircuit, batch: List):
        out_zero: Dict[int, int] = {}
        out_one: Dict[int, int] = {}
        pin_bits: Dict[Tuple[int, int], List[int]] = {}
        for i, fault in enumerate(batch):
            if fault.pin is None:
                target = out_zero if fault.value == ZERO else out_one
                target[fault.node] = target.get(fault.node, 0) | (1 << i)
            else:
                group = pin_bits.setdefault((fault.node, fault.pin),
                                            [0, 0])
                group[0 if fault.value == ZERO else 1] |= 1 << i
        pin_groups: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for (nid, pin), (z, o) in pin_bits.items():
            pin_groups.setdefault(nid, []).append((pin, z, o, z | o))
        source_set = set(cc.inputs) | set(cc.ffs)
        #: (nid, zero bits, one bits) forced onto PI / FF-output planes.
        self.src = [(nid, out_zero.get(nid, 0), out_one.get(nid, 0))
                    for nid in sorted(
                        (set(out_zero) | set(out_one)) & source_set)]
        #: FF position -> (zero bits, one bits) stuck D inputs.
        self.ff: List[Tuple[int, int, int]] = []
        for j, fid in enumerate(cc.ffs):
            groups = pin_groups.pop(fid, None)
            if groups is not None:
                z = o = 0
                for _pin, gz, go, _all in groups:
                    z |= gz
                    o |= go
                self.ff.append((j, z, o))
        self.out_zero = out_zero
        self.out_one = out_one
        self.pin_groups = pin_groups
        #: Gates needing a mid-schedule patch after their level runs.
        self.hot = (((set(out_zero) | set(out_one)) - source_set)
                    | set(pin_groups))


class _NumpyPlan:
    """Precompiled numpy injection tables for one fault batch.

    Everything the numpy run loop needs that depends only on the
    (circuit, fault-batch) pair and not on the input sequence: splice
    tables, virtual-branch routing, batch-local fanin index overrides
    and the packed-word constants.  All members are read-only during
    evaluation -- the run loop only ever assigns *into* the plane
    matrices it allocates per call -- which is what makes the plan safe
    to cache on the simulator and reuse across ``detected()`` calls.
    """

    __slots__ = ("width", "words", "full_int", "fullw", "forces",
                 "src_patch", "ff_patch", "tie_splices", "level_virt",
                 "level_out", "f2_overrides", "n_virt")


class ArrayFaultSimulator:
    """Whole-circuit array-kernel sequential fault simulator.

    Same contract as :class:`repro.sim.faultsim.FaultSimulator` and
    :class:`repro.sim.compiled.CompiledFaultSimulator` -- identical
    detection sets on any (sequence, faults) input, per-batch fault
    dropping included.  ``width=None`` picks
    :data:`DEFAULT_NUMPY_WIDTH`.  Needs numpy; build it through
    :func:`~repro.sim.compiled.make_fault_simulator` to fall back to the
    compiled backend when numpy is absent.
    """

    def __init__(self, circuit: Circuit, width: Optional[int] = None):
        if not HAVE_NUMPY:
            raise ValueError(
                "the array backend needs numpy; install the repro[fast] "
                "extra or use make_fault_simulator(backend='array')")
        if width is None:
            width = DEFAULT_NUMPY_WIDTH
        if width < 1:
            raise ValueError(f"word width must be >= 1, got {width}")
        self.circuit = circuit
        self.width = width
        self.compiled = compile_circuit(circuit)
        self.array = array_form(circuit)
        #: (node, pin, value)-keyed LRU of injection plans; see
        #: :meth:`_plan_for`.  Hit/miss counters feed the resident
        #: dropper's stats and the cache tests.
        self._plan_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    def detected(self, sequence: Sequence[Dict[str, int]],
                 faults: Sequence) -> Set[int]:
        """Indices (into ``faults``) detected by ``sequence``."""
        sequence = list(sequence)
        if not faults or not sequence:
            return set()
        good_frames = self._good_output_frames(sequence)
        hit: Set[int] = set()
        for start in range(0, len(faults), self.width):
            plan = self._plan_for(list(faults[start:start + self.width]))
            for local in self._run_plan(sequence, plan, good_frames):
                hit.add(start + local)
        return hit

    # ------------------------------------------------------------------
    def _good_output_frames(self, sequence: Sequence[Dict[str, int]]
                            ) -> List[List[int]]:
        """Fault-free 3-valued output values, one list per frame.

        One scalar machine through the compiled plane kernels -- shared
        verbatim with the compiled backend so the good machine can never
        disagree between them.
        """
        cc = self.compiled
        m0 = [0] * cc.n
        m1 = [0] * cc.n
        s0 = [0] * len(cc.ffs)
        s1 = [0] * len(cc.ffs)
        frames: List[List[int]] = []
        for vector in sequence:
            get = vector.get
            for nid, name in cc.input_pairs:
                value = get(name, X)
                if value == ZERO:
                    m0[nid], m1[nid] = 1, 0
                elif value == ONE:
                    m0[nid], m1[nid] = 0, 1
                else:
                    m0[nid], m1[nid] = 0, 0
            for j, fid in enumerate(cc.ffs):
                m0[fid], m1[fid] = s0[j], s1[j]
            cc.eval_planes(m0, m1, 1)
            frames.append([ZERO if m0[oid] else (ONE if m1[oid] else X)
                           for oid in cc.outputs])
            for j, src in enumerate(cc.ff_data):
                s0[j], s1[j] = m0[src], m1[src]
        return frames

    # ------------------------------------------------------------------
    # injection-plan cache
    # ------------------------------------------------------------------
    def _plan_for(self, batch: List):
        """The injection plan for one fault batch, LRU-cached.

        ATPG fault grading calls :meth:`detected` once per candidate
        sequence over the *same* fault list, so the batch slices -- and
        therefore the splice tables, virtual-branch routing and fanin
        overrides, which depend only on each fault's (node, pin, value)
        identity -- repeat exactly.  Rebuilding them per call is pure
        overhead; this returns the cached :class:`_NumpyPlan` instead.
        """
        key = tuple((fault.node, fault.pin, fault.value)
                    for fault in batch)
        plan = self._plan_cache.get(key)
        if plan is not None:
            self._plan_cache.move_to_end(key)
            self.plan_cache_hits += 1
            return plan
        self.plan_cache_misses += 1
        plan = self._build_plan(batch)
        self._plan_cache[key] = plan
        while len(self._plan_cache) > PLAN_CACHE_CAP:
            self._plan_cache.popitem(last=False)
        return plan

    # ------------------------------------------------------------------
    def _build_plan(self, batch: List) -> _NumpyPlan:
        np = _np
        cc = self.compiled
        ac = self.array
        plan = _NumpyPlan()
        width = len(batch)
        words = (width + 63) >> 6
        full_int = (1 << width) - 1
        forces = _BatchForces(cc, batch)
        fullw = _int_to_words(full_int, words)

        def to_words(mask: int):
            return _int_to_words(mask, words)

        # --- vectorized fault-injection tables -------------------------
        # Per-gate fixups priced per *call* would dominate here (unlike
        # the compiled backend's bigint fix, a tiny numpy op costs
        # microseconds), so every injection becomes a row-indexed masked
        # splice: ``plane[rows] = (plane[rows] & K) | V``, a constant
        # number of numpy statements per force family per frame,
        # whatever the fault count.
        def splice_table(entries):
            """[(row, z, o), ...] -> (rows, K, Z, O) numpy tables."""
            rows = np.asarray([row for row, _z, _o in entries],
                              dtype=np.intp)
            K = np.stack([to_words(full_int & ~(z | o))
                          for _row, z, o in entries])
            Z = np.stack([to_words(z) for _row, z, _o in entries])
            O = np.stack([to_words(o) for _row, _z, o in entries])
            return rows, K, Z, O

        src_patch = (splice_table(forces.src) if forces.src else None)
        ff_patch = (splice_table(forces.ff) if forces.ff else None)
        # A faulted (gate, pin) becomes a *virtual branch row* appended
        # after the real nodes: the faulty gate's fanin index is
        # redirected to it in a batch-local copy of the group's index
        # matrix, and the row's value -- the source plane with the
        # faulted machines' columns stuck -- is refreshed by one splice
        # per level each frame, just before that level evaluates.  The
        # splice patches only the faulted machines' bit columns, so
        # every other machine (and every other consumer of the source
        # line) sees the clean value.  Output-stuck gates are spliced
        # in place, once per level, right after their level evaluates
        # and before any consumer level reads them.
        tie_hot: List[Tuple[int, int, int]] = []
        virt_by_level: Dict[int, List] = {}
        out_by_level: Dict[int, List] = {}
        f2_overrides: Dict[Tuple[int, int], object] = {}
        tie_set = set(ac.tie0) | set(ac.tie1)
        n_virt = 0
        for nid in sorted(forces.hot):
            if nid in tie_set:
                # Constant planes, never re-evaluated: splice once
                # after allocation (TIEs carry no pin faults).
                tie_hot.append((nid, forces.out_zero.get(nid, 0),
                                forces.out_one.get(nid, 0)))
                continue
            li, gi, row = ac.gate_pos[nid]
            pgroups = forces.pin_groups.get(nid)
            if pgroups:
                fis = ac.fanins[nid]
                for pin, z, o, _bits in pgroups:
                    dst = ac.rows + n_virt
                    n_virt += 1
                    virt_by_level.setdefault(li, []).append(
                        (fis[pin], dst, z, o))
                    F2b = f2_overrides.get((li, gi))
                    if F2b is None:
                        F2b = ac.levels[li][gi].F2.copy()
                        f2_overrides[(li, gi)] = F2b
                    F2b[pin, row] = dst
            z = forces.out_zero.get(nid, 0)
            o = forces.out_one.get(nid, 0)
            if z or o:
                out_by_level.setdefault(li, []).append((nid, z, o))
        level_virt = {}
        for li, entries in virt_by_level.items():
            src_idx = np.asarray([s for s, _d, _z, _o in entries],
                                 dtype=np.intp)
            dst_idx = np.asarray([d for _s, d, _z, _o in entries],
                                 dtype=np.intp)
            _rows, K, Z, O = splice_table(
                [(0, z, o) for _s, _d, z, o in entries])
            level_virt[li] = (src_idx, dst_idx, K, Z, O)
        level_out = {li: splice_table(entries)
                     for li, entries in out_by_level.items()}

        plan.width = width
        plan.words = words
        plan.full_int = full_int
        plan.fullw = fullw
        plan.forces = forces
        plan.src_patch = src_patch
        plan.ff_patch = ff_patch
        plan.tie_splices = [
            (nid, to_words(z), to_words(o),
             ~(_int_to_words(z | o, words)))
            for nid, z, o in tie_hot]
        plan.level_virt = level_virt
        plan.level_out = level_out
        plan.f2_overrides = f2_overrides
        plan.n_virt = n_virt
        return plan

    def _run_plan(self, sequence: Sequence[Dict[str, int]],
                  plan: "_NumpyPlan", good_frames: List[List[int]],
                  pre_det=None) -> Set[int]:
        """Run one prebuilt injection plan over a sequence.

        ``pre_det`` (a words-long uint64 row) pre-seeds the detection
        mask: those machine columns are treated as already decided, so
        they are never reported again and the all-detected early exit
        fires as soon as every *other* machine has shown its fault.
        This is the resident dropper's column compaction -- dropped
        faults keep their column but cost nothing and cannot resurface.
        """
        np = _np
        cc = self.compiled
        ac = self.array
        words = plan.words
        fullw = plan.fullw
        src_patch = plan.src_patch
        ff_patch = plan.ff_patch
        level_virt = plan.level_virt
        level_out = plan.level_out
        f2_overrides = plan.f2_overrides
        n_virt = plan.n_virt

        M0 = np.zeros((ac.rows + n_virt, words), dtype=np.uint64)
        M1 = np.zeros((ac.rows + n_virt, words), dtype=np.uint64)
        M0[ac.zero_row] = fullw
        M1[ac.one_row] = fullw
        for nid in ac.tie0:
            M0[nid] = fullw
        for nid in ac.tie1:
            M1[nid] = fullw
        for nid, zw, ow, keep in plan.tie_splices:
            M0[nid] = (M0[nid] & keep) | zw
            M1[nid] = (M1[nid] & keep) | ow

        n_ffs = len(cc.ffs)
        if n_ffs:
            ff_idx = np.asarray(cc.ffs, dtype=np.intp)
            ffd_idx = np.asarray(cc.ff_data, dtype=np.intp)
            s0 = np.zeros((n_ffs, words), dtype=np.uint64)
            s1 = np.zeros((n_ffs, words), dtype=np.uint64)
        detected: Set[int] = set()
        det = (np.zeros(words, dtype=np.uint64) if pre_det is None
               else pre_det.copy())
        for frame, vector in enumerate(sequence):
            get = vector.get
            for nid, name in cc.input_pairs:
                value = get(name, X)
                if value == ZERO:
                    M0[nid] = fullw
                    M1[nid] = 0
                elif value == ONE:
                    M0[nid] = 0
                    M1[nid] = fullw
                else:
                    M0[nid] = 0
                    M1[nid] = 0
            if n_ffs:
                M0[ff_idx] = s0
                M1[ff_idx] = s1
            # Faults on PIs / FF outputs apply before gate evaluation.
            if src_patch is not None:
                rows, K, Z, O = src_patch
                M0[rows] = (M0[rows] & K) | Z
                M1[rows] = (M1[rows] & K) | O
            for li, groups in enumerate(ac.levels):
                lv = level_virt.get(li)
                if lv is not None:
                    src_idx, dst_idx, K, Z, O = lv
                    M0[dst_idx] = (M0[src_idx] & K) | Z
                    M1[dst_idx] = (M1[src_idx] & K) | O
                for gi, g in enumerate(groups):
                    _eval_group(g, M0, M1,
                                   f2_overrides.get((li, gi)))
                lo = level_out.get(li)
                if lo is not None:
                    rows, K, Z, O = lo
                    M0[rows] = (M0[rows] & K) | Z
                    M1[rows] = (M1[rows] & K) | O
            # Detection at primary outputs against the good machine.
            # ``& fullw`` guards the verdict against ghost columns of a
            # partial final batch; the planes are provably confined to
            # live machines, but a detection must never depend on that
            # proof staying true.
            good = good_frames[frame]
            for k, oid in enumerate(cc.outputs):
                gv = good[k]
                if gv == X:
                    continue
                row = M1[oid] if gv == ZERO else M0[oid]
                diff = row & ~det & fullw
                if diff.any():
                    det = det | diff
                    for w in np.flatnonzero(diff):
                        bits = int(diff[w])
                        base = int(w) << 6
                        while bits:
                            low = bits & -bits
                            detected.add(base + low.bit_length() - 1)
                            bits ^= low
            if np.array_equal(det, fullw):
                # Per-batch fault dropping: every machine already showed
                # its fault; later frames cannot change the verdict.
                break
            # Frame boundary: FFs capture their (possibly stuck) D input.
            if n_ffs:
                s0 = M0[ffd_idx]
                s1 = M1[ffd_idx]
                if ff_patch is not None:
                    rows, K, Z, O = ff_patch
                    s0[rows] = (s0[rows] & K) | Z
                    s1[rows] = (s1[rows] & K) | O
        return detected


# ----------------------------------------------------------------------
# group evaluator
# ----------------------------------------------------------------------
def _eval_group(g: _Group, M0, M1, F2=None) -> None:
    """Advance every gate of one opcode group in a few matrix ops.

    ``F2`` overrides the group's fanin index matrix (a batch-local copy
    with faulted pins redirected to virtual branch rows); the clean
    matrix is used when it is None.
    """
    np = _np
    op = g.op
    # One 3D gather per plane: (max_fanin, n_gates, n_words).
    if F2 is None:
        F2 = g.F2
    G0 = M0[F2]
    G1 = M1[F2]
    if op in _AND_LIKE:
        a = np.bitwise_or.reduce(G0, axis=0)
        b = np.bitwise_and.reduce(G1, axis=0)
        if op == OP_NAND:
            a, b = b, a
    elif op in _OR_LIKE:
        a = np.bitwise_and.reduce(G0, axis=0)
        b = np.bitwise_or.reduce(G1, axis=0)
        if op == OP_NOR:
            a, b = b, a
    elif op == OP_NOT:
        a, b = G1[0], G0[0]
    elif op == OP_BUF:
        a, b = G0[0], G1[0]
    else:
        # XOR / XNOR: pairwise 3-valued chain; X (neither bit) stays X.
        a, b = G0[0], G1[0]
        for j in range(1, g.max_fanin):
            f0, f1 = G0[j], G1[j]
            a, b = (a & f0) | (b & f1), (a & f1) | (b & f0)
        if op == OP_XNOR:
            a, b = b, a
    M0[g.out] = a
    M1[g.out] = b

