"""Compiled levelized simulation backend.

:class:`CompiledCircuit` lowers a frozen :class:`~repro.circuit.netlist.
Circuit` into flat, topo-ordered arrays -- an integer-opcode gate
schedule with contiguous fanin id tuples plus PI/FF/PO maps -- and then
*compiles* that schedule to straight-line Python (the classic
"compiled-code simulation" move of ATPG systems): one generated
statement per gate, ``exec``-ed once and cached, so the hot loops carry
no per-gate dispatch, no dict lookups and no tuple traffic.  Lowering is
cached process-wide, keyed on :meth:`Circuit.fingerprint`, so repeated
simulator construction over the same netlist is free.

Two evaluators ride on the lowered form:

* :meth:`CompiledCircuit.simulate_patterns` -- packed binary pattern
  simulation, bit-for-bit compatible with
  :func:`repro.sim.parallel.simulate_patterns` (used for learning
  signatures);
* :class:`CompiledFaultSimulator` -- two-plane ``(m0, m1)``
  three-valued, fault-parallel sequential simulation with per-batch
  fault dropping, detection-set compatible with
  :class:`repro.sim.faultsim.FaultSimulator`.

Lowering compiles the pattern kernels only.  The two-plane kernels
come in a lean variant (the fault simulator's) and a traced one
(learning's); :meth:`CompiledCircuit.eval_planes` compiles each the
first time it runs, so a circuit pays only for the variant its
requests use.  A third generator, :func:`compile_frame_kernel`, emits
the incremental PODEM engine's scalar three-valued frame evaluation;
that engine compiles it on demand.  Simulator lowering and
:func:`warm_cache` pay for none of these.

The reference implementations stay in :mod:`repro.sim.parallel` /
:mod:`repro.sim.faultsim`; the differential test harness pits the two
against each other (``tests/test_backend_differential.py``).

Caveat: the cache assumes circuits are not mutated after ``freeze()``.
A circuit edited in place after compilation must be re-frozen (which
changes its fingerprint via the rewired fanins) before re-simulation.

The cache is also *per-process* state: generated kernels are never
pickled across processes.  A spawn-started worker of a parallel suite
run begins cold; a fork-started worker inherits only what the parent
had compiled before the fork.  Either way each worker warms its own
cache (see :func:`warm_cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import GateType, ONE, X, ZERO, eval_gate
from ..circuit.netlist import Circuit
from .faultsim import FaultSimulator

#: The simulation backends behind the ``backend`` argument of the
#: factories (:func:`make_fault_simulator`, the resident dropper,
#: learning): this module's kernels, which every run uses, and the
#: reference interpreters that tests keep as the oracle.
SIM_BACKENDS = ("reference", "compiled")

#: Integer opcodes of the lowered gate schedule.
OP_AND, OP_NAND, OP_OR, OP_NOR, OP_NOT, OP_BUF, OP_XOR, OP_XNOR, \
    OP_TIE0, OP_TIE1 = range(10)

_OPCODE_OF = {
    GateType.AND: OP_AND, GateType.NAND: OP_NAND,
    GateType.OR: OP_OR, GateType.NOR: OP_NOR,
    GateType.NOT: OP_NOT, GateType.BUF: OP_BUF,
    GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR,
    GateType.TIE0: OP_TIE0, GateType.TIE1: OP_TIE1,
}

#: Generated statements per kernel function; very large circuits are
#: split into several functions called in sequence so no single code
#: object grows pathological.
_CHUNK_GATES = 4000


def _join(template: str, operator: str, fanins: Sequence[int]) -> str:
    return operator.join(template.format(f) for f in fanins)


def _pattern_lines(op: int, nid: int, fis: Tuple[int, ...]) -> List[str]:
    """Statements computing the packed binary mask of one gate."""
    if op == OP_AND:
        return [f" v[{nid}] = " + _join("v[{}]", " & ", fis)]
    if op == OP_NAND:
        return [f" v[{nid}] = full ^ (" + _join("v[{}]", " & ", fis) + ")"]
    if op == OP_OR:
        return [f" v[{nid}] = " + _join("v[{}]", " | ", fis)]
    if op == OP_NOR:
        return [f" v[{nid}] = full ^ (" + _join("v[{}]", " | ", fis) + ")"]
    if op == OP_NOT:
        return [f" v[{nid}] = full ^ v[{fis[0]}]"]
    if op == OP_BUF:
        return [f" v[{nid}] = v[{fis[0]}]"]
    if op == OP_XOR:
        return [f" v[{nid}] = " + _join("v[{}]", " ^ ", fis)]
    if op == OP_XNOR:
        return [f" v[{nid}] = full ^ (" + _join("v[{}]", " ^ ", fis) + ")"]
    if op == OP_TIE0:
        return [f" v[{nid}] = 0"]
    if op == OP_TIE1:
        return [f" v[{nid}] = full"]
    raise AssertionError(op)


def _plane_lines(op: int, nid: int, fis: Tuple[int, ...]) -> List[str]:
    """Statements computing the two-plane (m0, m1) value of one gate.

    Planes live in local variables ``a<nid>`` (the 0-plane) and
    ``b<nid>`` (the 1-plane) so the generated code runs on LOAD_FAST /
    STORE_FAST instead of list subscripts.  Bit semantics match
    :func:`repro.sim.faultsim._eval_planes`: bit set in the 0-plane
    means that machine sees 0, in the 1-plane 1, neither means X.
    """
    zeros = _join("a{}", " | ", fis)    # some fanin is 0
    ones = _join("b{}", " & ", fis)     # every fanin is 1
    anyone = _join("b{}", " | ", fis)   # some fanin is 1
    allzero = _join("a{}", " & ", fis)  # every fanin is 0
    if op == OP_AND:
        return [f" a{nid} = {zeros}", f" b{nid} = {ones}"]
    if op == OP_NAND:
        return [f" a{nid} = {ones}", f" b{nid} = {zeros}"]
    if op == OP_OR:
        return [f" a{nid} = {allzero}", f" b{nid} = {anyone}"]
    if op == OP_NOR:
        return [f" a{nid} = {anyone}", f" b{nid} = {allzero}"]
    if op == OP_NOT:
        return [f" a{nid} = b{fis[0]}", f" b{nid} = a{fis[0]}"]
    if op == OP_BUF:
        return [f" a{nid} = a{fis[0]}", f" b{nid} = b{fis[0]}"]
    if op in (OP_XOR, OP_XNOR):
        # Pairwise 3-valued XOR chain; X (neither bit) stays X.
        lines = [f" t0 = a{fis[0]}", f" t1 = b{fis[0]}"]
        for f in fis[1:]:
            lines.append(f" t0, t1 = (t0 & a{f}) | (t1 & b{f}), "
                         f"(t0 & b{f}) | (t1 & a{f})")
        if op == OP_XNOR:
            lines += [f" a{nid} = t1", f" b{nid} = t0"]
        else:
            lines += [f" a{nid} = t0", f" b{nid} = t1"]
        return lines
    if op == OP_TIE0:
        return [f" a{nid} = full", f" b{nid} = 0"]
    if op == OP_TIE1:
        return [f" a{nid} = 0", f" b{nid} = full"]
    raise AssertionError(op)


def _table2(gate_type: GateType) -> Tuple[Tuple[int, ...], ...]:
    """Three-valued truth table ``t[a][b]`` of a two-input gate."""
    return tuple(tuple(eval_gate(gate_type, (a, b)) for b in (ZERO, ONE, X))
                 for a in (ZERO, ONE, X))


#: Three-valued lookup tables of the frame kernels, bound as default
#: arguments (so the generated code reads them with LOAD_FAST).  An
#: n-input gate chains the associative base table over its first n-1
#: fanins and applies the gate's own table to the last one.
_FRAME_TABLES = {
    "A": _table2(GateType.AND), "NA": _table2(GateType.NAND),
    "O": _table2(GateType.OR), "NO": _table2(GateType.NOR),
    "XO": _table2(GateType.XOR), "XN": _table2(GateType.XNOR),
    "N": tuple(eval_gate(GateType.NOT, (v,)) for v in (ZERO, ONE, X)),
}

#: opcode -> (base table, final table) of the chained n-input form.
_FRAME_CHAIN = {
    OP_AND: ("A", "A"), OP_NAND: ("A", "NA"),
    OP_OR: ("O", "O"), OP_NOR: ("O", "NO"),
    OP_XOR: ("XO", "XO"), OP_XNOR: ("XO", "XN"),
}


def _frame_expr(op: int, fis: Tuple[int, ...], operand: str) -> str:
    """Three-valued value of one gate; ``operand.format(f)`` reads fanin
    ``f`` (a local such as ``"g{}"``, or a list/dict read)."""
    if op == OP_TIE0:
        return str(ZERO)
    if op == OP_TIE1:
        return str(ONE)
    if op == OP_BUF:
        return operand.format(fis[0])
    if op == OP_NOT:
        return f"N[{operand.format(fis[0])}]"
    base, final = _FRAME_CHAIN[op]
    if len(fis) == 1:  # one-input AND/OR/XOR is a buffer, its dual NOT
        first = operand.format(fis[0])
        return first if base == final else f"N[{first}]"
    expr = operand.format(fis[0])
    for f in fis[1:-1]:
        expr = f"{base}[{expr}][{operand.format(f)}]"
    return f"{final}[{expr}][{operand.format(fis[-1])}]"


def _frame_lines(op: int, nid: int, fis: Tuple[int, ...]) -> List[str]:
    """Statements computing the good and faulty value of one gate.

    The good value lands in ``gv``, the faulty one in ``fl``; at the
    fault site (``site == nid``) the faulty value is replaced by
    ``fix(*faulty fanin values)``.
    """
    fanin_args = ", ".join(f"f{f}" for f in fis)
    return [f" gv[{nid}] = g{nid} = {_frame_expr(op, fis, 'g{}')}",
            f" fl[{nid}] = f{nid} = fix({fanin_args}) if site == {nid} "
            f"else {_frame_expr(op, fis, 'f{}')}"]


def compile_frame_kernel(schedule) -> Callable:
    """exec a straight-line three-valued kernel over the gate schedule.

    The returned ``kernel(gv, fl, site, fix)`` evaluates every gate of
    one time frame on two full-length value lists: ``gv`` (good machine)
    and ``fl`` (faulty machine), both preloaded with PI/FF values (0, 1
    or X).  Gate values are *assigned*, never merged, so the caller must
    hand in fresh frames whose gates are all X -- the precondition under
    which this equals a levelized re-evaluation.  ``fix`` patches the
    faulty value of gate ``site`` mid-schedule (pass a non-gate id, e.g.
    -1, for none).  Long schedules are split into ``_CHUNK_GATES``
    functions like the other kernels.
    """
    params = ", ".join(f"{name}={name}" for name in _FRAME_TABLES)
    kernels: List[Callable] = []
    for start in range(0, len(schedule), _CHUNK_GATES):
        chunk = schedule[start:start + _CHUNK_GATES]
        computed = {nid for _op, nid, _f in chunk}
        reads = {f for _op, _nid, fis in chunk for f in fis}
        name = f"_frame_kernel_{start}"
        lines = [f"def {name}(gv, fl, site, fix, {params}):"]
        for nid in sorted(reads - computed):
            lines.append(f" g{nid} = gv[{nid}]; f{nid} = fl[{nid}]")
        for op, nid, fis in chunk:
            lines.extend(_frame_lines(op, nid, fis))
        if len(lines) == 1:
            lines.append(" pass")
        namespace: Dict[str, object] = dict(_FRAME_TABLES)
        exec(compile("\n".join(lines), "<repro.sim.compiled:frame>",
                     "exec"), namespace)
        kernels.append(namespace[name])
    if len(kernels) == 1:
        return kernels[0]

    def kernel(gv, fl, site, fix):
        for part in kernels:
            part(gv, fl, site, fix)

    return kernel


def compile_gate_evaluators(schedule, n: int
                            ) -> Tuple[List[Optional[Callable]],
                                       List[Optional[Callable]]]:
    """exec one three-valued evaluator per plane for every scheduled gate.

    Returns ``(good, faulty)``, lists indexed by node id (None off the
    schedule): ``good[nid](gv)`` is the gate's value over the value list
    ``gv``, ``faulty[nid](gv, fv)`` its value when fanin ``f`` reads
    ``fv.get(f, gv[f])`` (a sparse faulty plane over a good one).  The
    expressions are :func:`compile_frame_kernel`'s, over the same
    ``_FRAME_TABLES`` (here module globals of the generated code), so an
    event-driven evaluator that recomputes one gate at a time shares the
    kernel's gate semantics.  Long schedules compile in ``_CHUNK_GATES``
    pieces.
    """
    good: List[Optional[Callable]] = [None] * n
    faulty: List[Optional[Callable]] = [None] * n
    for start in range(0, len(schedule), _CHUNK_GATES):
        chunk = schedule[start:start + _CHUNK_GATES]
        lines = ["G = ("]
        faulty_lines = ["F = ("]
        for op, _nid, fis in chunk:
            lines.append(f" lambda gv: {_frame_expr(op, fis, 'gv[{}]')},")
            faulty_lines.append(
                " lambda gv, fv: "
                f"{_frame_expr(op, fis, 'fv.get({0}, gv[{0}])')},")
        namespace: Dict[str, object] = dict(_FRAME_TABLES)
        exec(compile("\n".join(lines + [")"] + faulty_lines + [")"]),
                     "<repro.sim.compiled:gate>", "exec"), namespace)
        for (_op, nid, _fis), g, f in zip(chunk, namespace["G"],
                                          namespace["F"]):
            good[nid] = g
            faulty[nid] = f
    return good, faulty


def _compile_pattern_kernels(schedule) -> List[Callable]:
    """exec straight-line packed-binary kernels over the gate schedule."""
    kernels: List[Callable] = []
    for start in range(0, len(schedule), _CHUNK_GATES):
        chunk = schedule[start:start + _CHUNK_GATES]
        name = f"_pattern_kernel_{start}"
        lines = [f"def {name}(v, full):"]
        for op, nid, fis in chunk:
            lines.extend(_pattern_lines(op, nid, fis))
        if len(lines) == 1:
            lines.append(" pass")
        namespace: Dict[str, object] = {}
        exec(compile("\n".join(lines), "<repro.sim.compiled:pattern>",
                     "exec"), namespace)
        kernels.append(namespace[name])
    return kernels


def _compile_plane_kernels(schedule, keep: Set[int],
                           trace: bool) -> List[Callable]:
    """exec straight-line two-plane kernels over the gate schedule.

    Each gate is followed by ``if nid in hot: fix(nid, planes, fanin
    planes...)`` so a fault simulator can patch values mid-schedule; the
    clean path pays one set-membership test per gate.  Planes are local
    variables; chunk preambles load what a chunk reads but does not
    compute from the ``m0``/``m1`` arrays, epilogues store what later
    chunks or the caller (``keep``: POs, FF data inputs) need.  With
    ``trace`` every computed plane is stored back -- the diagnostic
    variant behind the ``on_frame`` hook.
    """
    chunks = [schedule[start:start + _CHUNK_GATES]
              for start in range(0, len(schedule), _CHUNK_GATES)]
    read_by_later: List[Set[int]] = [set() for _ in chunks]
    seen: Set[int] = set()
    for index in range(len(chunks) - 1, -1, -1):
        read_by_later[index] = set(seen)
        for _op, _nid, fis in chunks[index]:
            seen.update(fis)
    kernels: List[Callable] = []
    for index, chunk in enumerate(chunks):
        computed = {nid for _op, nid, _f in chunk}
        reads = {f for _op, _nid, fis in chunk for f in fis}
        name = f"_plane_kernel_{index}"
        lines = [f"def {name}(m0, m1, full, hot, fix):"]
        for nid in sorted(reads - computed):
            lines.append(f" a{nid} = m0[{nid}]; b{nid} = m1[{nid}]")
        for op, nid, fis in chunk:
            lines.extend(_plane_lines(op, nid, fis))
            fanin_args = "".join(f", a{f}, b{f}" for f in fis)
            lines.append(f" if {nid} in hot: a{nid}, b{nid} = "
                         f"fix({nid}, a{nid}, b{nid}{fanin_args})")
        stores = computed if trace else (
            computed & (keep | read_by_later[index]))
        for nid in sorted(stores):
            lines.append(f" m0[{nid}] = a{nid}; m1[{nid}] = b{nid}")
        if len(lines) == 1:
            lines.append(" pass")
        namespace: Dict[str, object] = {}
        exec(compile("\n".join(lines), "<repro.sim.compiled:plane>",
                     "exec"), namespace)
        kernels.append(namespace[name])
    return kernels


class CompiledCircuit:
    """Flat lowered form of one frozen circuit plus its compiled kernels.

    Build via :func:`compile_circuit` (cached); direct construction
    always re-lowers and re-compiles.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.fingerprint = circuit.fingerprint()
        self.n = len(circuit.nodes)
        #: Topo-ordered gate schedule: (opcode, nid, fanin ids).
        self.schedule: List[Tuple[int, int, Tuple[int, ...]]] = [
            (_OPCODE_OF[circuit.nodes[nid].gate_type], nid,
             tuple(circuit.nodes[nid].fanins))
            for nid in circuit.topo_order]
        #: Opcode per node id (None for PIs and sequential elements).
        self.opcode: List[Optional[int]] = [None] * self.n
        for op, nid, _fis in self.schedule:
            self.opcode[nid] = op
        #: (nid, name) of every primary input, in circuit order.
        self.input_pairs: Tuple[Tuple[int, str], ...] = tuple(
            (nid, circuit.nodes[nid].name) for nid in circuit.inputs)
        self.inputs: Tuple[int, ...] = tuple(circuit.inputs)
        self.ffs: Tuple[int, ...] = tuple(circuit.ffs)
        #: D-input node id of each FF, aligned with :attr:`ffs`.
        self.ff_data: Tuple[int, ...] = tuple(
            circuit.nodes[fid].fanins[0] for fid in circuit.ffs)
        self.outputs: Tuple[int, ...] = tuple(circuit.outputs)
        scheduled = {nid for _op, nid, _f in self.schedule}
        self.gate_nids: Tuple[int, ...] = tuple(
            nid for _op, nid, _f in self.schedule)
        #: PI/FF sources the schedule actually reads (missing ones must
        #: raise ``KeyError``, like the reference pattern simulator).
        self.required_sources: Tuple[int, ...] = tuple(sorted(
            {f for _op, _nid, fis in self.schedule for f in fis}
            - scheduled))
        #: Planes the fault simulator reads back out of a frame.
        self._keep = set(self.outputs) | set(self.ff_data)
        self._pattern_kernels = _compile_pattern_kernels(self.schedule)
        # Two-plane kernels compile on first use (:meth:`eval_planes`):
        # fault simulation runs the lean variant, learning the traced one.
        self._plane_kernels: Optional[List[Callable]] = None
        self._plane_kernels_traced: Optional[List[Callable]] = None

    # ------------------------------------------------------------------
    def simulate_patterns(self, source_masks: Dict[int, int],
                          width: int) -> Dict[int, int]:
        """Packed binary pattern evaluation of all combinational gates.

        Drop-in for :func:`repro.sim.parallel.simulate_patterns`:
        identical masks, identical ``KeyError`` on a missing source.
        """
        full = (1 << width) - 1
        v = [0] * self.n
        for nid in self.required_sources:
            v[nid] = source_masks[nid]
        for kernel in self._pattern_kernels:
            kernel(v, full)
        masks = dict(source_masks)
        for nid in self.gate_nids:
            masks[nid] = v[nid]
        return masks

    def eval_planes(self, m0: List[int], m1: List[int], full: int,
                    hot=frozenset(), fix=None, trace: bool = False
                    ) -> None:
        """Run the two-plane kernel over preloaded PI/FF planes.

        ``m0``/``m1`` are length-``n`` lists holding PI and FF planes;
        ``hot`` names gates whose value must be patched mid-schedule by
        ``fix(nid, plane0, plane1, *fanin_planes)`` (fault injection).
        The lean kernels store back only primary-output and FF-data
        planes; ``trace`` switches to variants storing every node's
        planes (learning, diagnostics, property tests).  Each variant
        is compiled the first time it runs; two threads racing on a
        cold variant may both compile it, and either result serves.
        """
        if trace:
            if self._plane_kernels_traced is None:
                self._plane_kernels_traced = _compile_plane_kernels(
                    self.schedule, self._keep, trace=True)
            kernels = self._plane_kernels_traced
        else:
            if self._plane_kernels is None:
                self._plane_kernels = _compile_plane_kernels(
                    self.schedule, self._keep, trace=False)
            kernels = self._plane_kernels
        for kernel in kernels:
            kernel(m0, m1, full, hot, fix)


# ----------------------------------------------------------------------
# process-wide lowering cache
# ----------------------------------------------------------------------
_CACHE: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
_CACHE_CAP = 256
#: Serializes cache access: the ``repro serve`` daemon compiles from
#: concurrent request threads, and without the lock two threads could
#: exec-compile the same circuit twice (wasted work) or interleave the
#: OrderedDict LRU bookkeeping mid-update.
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower (or fetch) the compiled form, keyed on the fingerprint.

    Thread-safe: concurrent callers for the same circuit compile it
    exactly once and share the kernels (they are stateless after
    construction; per-run state lives in the simulator objects).
    """
    global _CACHE_HITS, _CACHE_MISSES
    key = circuit.fingerprint()
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE.move_to_end(key)
            _CACHE_HITS += 1
            return hit
        # Compile inside the lock: correctness does not require it, but
        # a duplicate exec-compile is pure waste and compilation is
        # milliseconds.
        compiled = CompiledCircuit(circuit)
        _CACHE[key] = compiled
        _CACHE_MISSES += 1
        while len(_CACHE) > _CACHE_CAP:
            _CACHE.popitem(last=False)
        return compiled


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of this process's kernel cache."""
    with _CACHE_LOCK:
        return {"entries": len(_CACHE), "hits": _CACHE_HITS,
                "misses": _CACHE_MISSES}


def clear_compile_cache() -> None:
    """Drop every cached lowering (tests, memory pressure)."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def warm_cache(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` and compile its pattern kernels in *this* process.

    The two-plane and frame kernels are not built here: each compiles
    the first time a request runs it (see the module docstring).

    The lowering cache is plain module state and therefore per-process:
    the exec-generated kernels are never pickled across a suite pool
    (:mod:`repro.flow.parallel_suite`).  A spawn-started worker begins
    with an empty cache; a fork-started worker inherits only what the
    parent had compiled before the pool started.  Workers call this
    once per assigned circuit so lowering happens up front rather than
    inside the first pipeline stage; in an already-warm process it is a
    cache hit and free.
    """
    return compile_circuit(circuit)


# ----------------------------------------------------------------------
# fault-parallel sequential simulation
# ----------------------------------------------------------------------
class CompiledFaultSimulator:
    """Bit-parallel sequential fault simulator over the compiled form.

    Same contract as :class:`repro.sim.faultsim.FaultSimulator` -- same
    detection sets on any (sequence, faults) input -- plus per-batch
    fault dropping: a batch whose machines are all detected stops
    simulating remaining frames.
    """

    def __init__(self, circuit: Circuit, width: int = 128):
        if width < 1:
            raise ValueError(f"word width must be >= 1, got {width}")
        self.circuit = circuit
        self.width = width
        self.compiled = compile_circuit(circuit)

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
            batch = list(faults[start:start + self.width])
            for local in self.run_batch(sequence, batch, good_frames):
                hit.add(start + local)
        return hit

    # ------------------------------------------------------------------
    def _good_output_frames(self, sequence: Sequence[Dict[str, int]]
                            ) -> List[List[int]]:
        """Fault-free 3-valued output values, one list per frame."""
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
    def run_batch(self, sequence: Sequence[Dict[str, int]],
                  batch: List, good_frames: List[List[int]],
                  on_frame=None) -> Set[int]:
        """Simulate one packed batch; returns detected local indices.

        ``on_frame(frame, m0, m1, detected_mask)`` is a diagnostic hook
        (property tests assert plane invariants through it); it receives
        snapshots after the frame's detection pass.
        """
        cc = self.compiled
        width = len(batch)
        full = (1 << width) - 1
        # Aggregate forces: each machine carries exactly one fault, so a
        # bit lands in at most one of (zero-mask, one-mask) per node and
        # pin faults fold into per-(gate, pin) bit groups.
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
        #: gate nid -> [(pin, zero bits, one bits, all bits), ...]
        pin_groups: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for (nid, pin), (z, o) in pin_bits.items():
            pin_groups.setdefault(nid, []).append((pin, z, o, z | o))
        source_set = set(cc.inputs) | set(cc.ffs)
        src_forces = [(nid, out_zero.get(nid, 0), out_one.get(nid, 0))
                      for nid in sorted(
                          (set(out_zero) | set(out_one)) & source_set)]
        # FF pin faults act at the frame boundary (the D input is stuck).
        ff_forces: Dict[int, Tuple[int, int]] = {}
        for fid in cc.ffs:
            groups = pin_groups.pop(fid, None)
            if groups is not None:
                z = o = 0
                for _pin, gz, go, _all in groups:
                    z |= gz
                    o |= go
                ff_forces[fid] = (z, o)
        # Mid-schedule hooks: gates carrying an output or a pin fault.
        hot = frozenset(
            ((set(out_zero) | set(out_one)) - source_set)
            | set(pin_groups))
        m0 = [0] * cc.n
        m1 = [0] * cc.n

        opcodes = cc.opcode

        def fix(nid: int, c0: int, c1: int, *fp: int) -> Tuple[int, int]:
            """Patch a just-evaluated gate for its faulty machines.

            ``(c0, c1)`` is the clean value, ``fp`` the fanin planes
            interleaved ``(a0, b0, a1, b1, ...)``.  Pin faults
            re-evaluate the gate bit-parallel with the stuck pin's plane
            patched -- inlined per opcode family -- then splice only the
            faulty machines' bits: column-for-column what the reference
            backend derives one machine at a time.
            """
            groups = pin_groups.get(nid)
            if groups is not None:
                op = opcodes[nid]
                end = len(fp)
                for pin, z, o, bits in groups:
                    keep = ~(z | o)
                    pi = pin << 1
                    if op < 4:  # AND / NAND / OR / NOR
                        and_like = op < 2
                        r0 = 0 if and_like else full
                        r1 = full if and_like else 0
                        for i in range(0, end, 2):
                            f0 = fp[i]
                            f1 = fp[i + 1]
                            if i == pi:
                                f0 = (f0 & keep) | z
                                f1 = (f1 & keep) | o
                            if and_like:
                                r0 |= f0
                                r1 &= f1
                            else:
                                r0 &= f0
                                r1 |= f1
                        if op == OP_NAND or op == OP_NOR:
                            r0, r1 = r1, r0
                    elif op < 6:  # NOT / BUF
                        r0 = (fp[0] & keep) | z
                        r1 = (fp[1] & keep) | o
                        if op == OP_NOT:
                            r0, r1 = r1, r0
                    else:  # XOR / XNOR (TIE gates carry no pin faults)
                        r0, r1 = full, 0
                        for i in range(0, end, 2):
                            f0 = fp[i]
                            f1 = fp[i + 1]
                            if i == pi:
                                f0 = (f0 & keep) | z
                                f1 = (f1 & keep) | o
                            r0, r1 = (r0 & f0) | (r1 & f1), \
                                (r0 & f1) | (r1 & f0)
                        if op == OP_XNOR:
                            r0, r1 = r1, r0
                    c0 = (c0 & ~bits) | (r0 & bits)
                    c1 = (c1 & ~bits) | (r1 & bits)
            z = out_zero.get(nid)
            o = out_one.get(nid)
            if z is not None or o is not None:
                z = z or 0
                o = o or 0
                keep = ~(z | o)
                c0 = (c0 & keep) | z
                c1 = (c1 & keep) | o
            return c0, c1

        s0 = [0] * len(cc.ffs)
        s1 = [0] * len(cc.ffs)
        detected: Set[int] = set()
        detected_mask = 0
        for frame, vector in enumerate(sequence):
            get = vector.get
            for nid, name in cc.input_pairs:
                value = get(name, X)
                if value == ZERO:
                    m0[nid], m1[nid] = full, 0
                elif value == ONE:
                    m0[nid], m1[nid] = 0, full
                else:
                    m0[nid], m1[nid] = 0, 0
            for j, fid in enumerate(cc.ffs):
                m0[fid], m1[fid] = s0[j], s1[j]
            # Faults on PIs / FF outputs apply before gate evaluation.
            for nid, z, o in src_forces:
                keep = ~(z | o)
                m0[nid] = (m0[nid] & keep) | z
                m1[nid] = (m1[nid] & keep) | o
            cc.eval_planes(m0, m1, full, hot, fix,
                           trace=on_frame is not None)
            # Detection at primary outputs against the good machine.
            good = good_frames[frame]
            for k, oid in enumerate(cc.outputs):
                gv = good[k]
                if gv == X:
                    continue
                diff = (m1[oid] if gv == ZERO else m0[oid]) & ~detected_mask
                if diff:
                    detected_mask |= diff
                    while diff:
                        low = diff & -diff
                        detected.add(low.bit_length() - 1)
                        diff ^= low
            if on_frame is not None:
                on_frame(frame, list(m0), list(m1), detected_mask)
            if detected_mask == full:
                # Per-batch fault dropping: every machine already showed
                # its fault; later frames cannot change the verdict.
                break
            # Frame boundary: FFs capture their (possibly stuck) D input.
            for j, fid in enumerate(cc.ffs):
                src = cc.ff_data[j]
                a0, a1 = m0[src], m1[src]
                force = ff_forces.get(fid)
                if force is not None:
                    z, o = force
                    keep = ~(z | o)
                    a0 = (a0 & keep) | z
                    a1 = (a1 & keep) | o
                s0[j], s1[j] = a0, a1
        return detected


def make_fault_simulator(circuit: Circuit, width: Optional[int] = None,
                         backend: str = "compiled"):
    """Factory over :data:`SIM_BACKENDS`; all share one contract.

    ``width=None`` picks the default batch width of 128.  Safe because
    detection sets are width-independent: each fault occupies its own
    machine, so batch packing never changes a verdict.
    """
    if backend == "compiled":
        return CompiledFaultSimulator(
            circuit, width=128 if width is None else width)
    if backend == "reference":
        return FaultSimulator(
            circuit, width=128 if width is None else width)
    raise ValueError(
        f"unknown sim backend {backend!r}; expected one of {SIM_BACKENDS}")
