"""Sequential stuck-at fault simulation, bit-parallel over faults.

Machine *i* of a packed word is the circuit with fault *i* injected; all
machines simulate the same test sequence from the all-X power-up state.
Three-valued signals are carried in two planes ``(m0, m1)`` -- bit i of
``m0`` set means machine i sees 0, bit i of ``m1`` means 1, neither means
X.  Python's big integers give an arbitrary word width.

Detection is the classic hard criterion: at some primary output in some
frame the good value and the faulty value are both known and differ.  The
good machine is simulated once (scalarly) and shared across batches.

Faults are duck-typed: any object with ``node`` (node id), ``pin``
(``None`` for an output/stem fault, else the fanin position for a branch
fault) and ``value`` (the stuck-at value) works; see
:class:`repro.atpg.faults.Fault`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..circuit.gates import GateType, ONE, X, ZERO, eval_gate
from ..circuit.netlist import Circuit
from .eventsim import simulate_sequence

Plane = Tuple[int, int]


def _const_planes(value: int, full: int) -> Plane:
    if value == ZERO:
        return (full, 0)
    if value == ONE:
        return (0, full)
    return (0, 0)


def _eval_planes(gate_type: GateType, fanins: List[Plane],
                 full: int) -> Plane:
    """Bit-parallel three-valued gate evaluation."""
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        a0, a1 = 0, full
        for m0, m1 in fanins:
            a0 |= m0
            a1 &= m1
        return (a1, a0) if gate_type is GateType.NAND else (a0, a1)
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        a0, a1 = full, 0
        for m0, m1 in fanins:
            a0 &= m0
            a1 |= m1
        return (a1, a0) if gate_type is GateType.NOR else (a0, a1)
    if gate_type is GateType.NOT:
        m0, m1 = fanins[0]
        return (m1, m0)
    if gate_type is GateType.BUF:
        return fanins[0]
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        a0, a1 = full, 0
        for m0, m1 in fanins:
            n0 = (a0 & m0) | (a1 & m1)
            n1 = (a0 & m1) | (a1 & m0)
            a0, a1 = n0, n1
        return (a1, a0) if gate_type is GateType.XNOR else (a0, a1)
    if gate_type is GateType.TIE0:
        return (full, 0)
    if gate_type is GateType.TIE1:
        return (0, full)
    raise AssertionError(f"unexpected gate type {gate_type}")


class FaultSimulator:
    """Bit-parallel sequential fault simulator for one circuit."""

    def __init__(self, circuit: Circuit, width: int = 128):
        if width < 1:
            raise ValueError(f"word width must be >= 1, got {width}")
        self.circuit = circuit
        self.width = width

    # ------------------------------------------------------------------
    def detected(self, sequence: Sequence[Dict[str, int]],
                 faults: Sequence) -> Set[int]:
        """Indices (into ``faults``) detected by ``sequence``.

        An empty fault list or an empty sequence detects nothing (and
        skips the good-machine simulation).
        """
        sequence = list(sequence)
        if not faults or not sequence:
            return set()
        good_frames = simulate_sequence(self.circuit, sequence)
        hit: Set[int] = set()
        for start in range(0, len(faults), self.width):
            batch = list(faults[start:start + self.width])
            for local in self._run_batch(sequence, batch, good_frames):
                hit.add(start + local)
        return hit

    # ------------------------------------------------------------------
    def _run_batch(self, sequence: Sequence[Dict[str, int]],
                   batch: List, good_frames: List[Dict[str, int]]
                   ) -> Set[int]:
        circuit = self.circuit
        # The word width is the *live* batch length, never the
        # configured ``self.width``: the last batch of a fault list is
        # usually narrower, and sizing ``full`` to it means the two
        # planes carry no ghost machines (bits beyond the live fault
        # count) that could leak into detection or the all-detected
        # drop test below.  ``tests/test_backend_edges.py``
        # (test_partial_final_batch_*) holds every backend to this.
        width = len(batch)
        full = (1 << width) - 1
        out_faults: Dict[int, List[Tuple[int, int]]] = {}
        pin_faults: Dict[int, List[Tuple[int, int, int]]] = {}
        for i, fault in enumerate(batch):
            if fault.pin is None:
                out_faults.setdefault(fault.node, []).append((i, fault.value))
            else:
                pin_faults.setdefault(fault.node, []).append(
                    (i, fault.pin, fault.value))
        state: Dict[int, Plane] = {}
        detected: Set[int] = set()
        detected_mask = 0
        name_of = [n.name for n in circuit.nodes]
        for frame, vector in enumerate(sequence):
            planes: Dict[int, Plane] = {}
            for pid in circuit.inputs:
                value = vector.get(name_of[pid], X)
                planes[pid] = _const_planes(value, full)
            for fid in circuit.ffs:
                planes[fid] = state.get(fid, (0, 0))
            # Faults on PIs / FF outputs apply before gate evaluation.
            for nid in list(circuit.inputs) + list(circuit.ffs):
                if nid in out_faults:
                    planes[nid] = self._force(planes[nid], out_faults[nid])
            for nid in circuit.topo_order:
                node = circuit.nodes[nid]
                fanin_planes = [planes[f] for f in node.fanins]
                value = _eval_planes(node.gate_type, fanin_planes, full)
                if nid in pin_faults:
                    value = self._pin_fixup(node, fanin_planes, value,
                                            pin_faults[nid])
                if nid in out_faults:
                    value = self._force(value, out_faults[nid])
                planes[nid] = value
            # Detection at primary outputs.
            good = good_frames[frame]
            for oid in circuit.outputs:
                gv = good[name_of[oid]]
                if gv == X:
                    continue
                m0, m1 = planes[oid]
                diff = m1 if gv == ZERO else m0
                bits = diff & ~detected_mask
                detected_mask |= bits
                while bits:
                    low = bits & -bits
                    detected.add(low.bit_length() - 1)
                    bits ^= low
            # Frame boundary.  A stuck FF data input (FFs are not in the
            # topo order) captures the stuck value in its machine.
            next_state: Dict[int, Plane] = {}
            for fid in circuit.ffs:
                plane = planes[circuit.nodes[fid].fanins[0]]
                if fid in pin_faults:
                    plane = self._force(
                        plane, [(i, v) for i, _p, v in pin_faults[fid]])
                next_state[fid] = plane
            state = next_state
        return detected

    @staticmethod
    def _force(plane: Plane, forces: List[Tuple[int, int]]) -> Plane:
        m0, m1 = plane
        for bit_index, value in forces:
            bit = 1 << bit_index
            if value == ZERO:
                m0 |= bit
                m1 &= ~bit
            else:
                m1 |= bit
                m0 &= ~bit
        return (m0, m1)

    def _pin_fixup(self, node, fanin_planes: List[Plane], value: Plane,
                   pins: List[Tuple[int, int, int]]) -> Plane:
        """Re-evaluate a gate scalarly for machines with branch faults."""
        m0, m1 = value
        for bit_index, pin, forced in pins:
            bit = 1 << bit_index
            scalar = []
            for idx, (f0, f1) in enumerate(fanin_planes):
                if idx == pin:
                    scalar.append(forced)
                elif f0 & bit:
                    scalar.append(ZERO)
                elif f1 & bit:
                    scalar.append(ONE)
                else:
                    scalar.append(X)
            out = eval_gate(node.gate_type, scalar)
            m0 &= ~bit
            m1 &= ~bit
            if out == ZERO:
                m0 |= bit
            elif out == ONE:
                m1 |= bit
        return (m0, m1)


def fault_simulate(circuit: Circuit, sequence: Sequence[Dict[str, int]],
                   faults: Sequence, width: int = 128) -> Set[int]:
    """Convenience wrapper: indices of ``faults`` detected by ``sequence``."""
    return FaultSimulator(circuit, width=width).detected(sequence, faults)


def fault_coverage(circuit: Circuit,
                   sequences: Iterable[Sequence[Dict[str, int]]],
                   faults: Sequence, backend: str = "reference") -> float:
    """Fraction of ``faults`` detected by any of the ``sequences``.

    Grades through the resident dropper, so each sequence is simulated
    against the faults still undetected.  ``backend='compiled'`` uses
    the straight-line kernels of :mod:`repro.sim.compiled`; coverage is
    identical either way.
    """
    from .resident import make_resident_dropper

    dropper = make_resident_dropper(circuit, faults, range(len(faults)),
                                    backend=backend)
    detected = sum(len(dropper.drop(sequence)) for sequence in sequences)
    return detected / len(faults) if faults else 1.0
