"""Sound structural untestability screen, run before PODEM.

FIRES's fault-independent idea (Iyer, Long and Abramovici, DAC 1996)
applied to this repository's test model: every test starts from the
all-X power-up state and a fault counts as detected only when a primary
output shows a known good value and the opposite known faulty value.

One fixpoint per call computes, for every node, the set of binary
good-machine values it can ever show from all-X (:func:`value_sets`):

* primary inputs can show 0 and 1, constant cells their constant;
* sequential elements start empty (power-up X) and collect every value
  their data input can show;
* gates follow the three-valued rules over sets: AND can show 0 when
  some input can, and 1 when every input can; XOR is known only when
  every input is, and can show every parity of the inputs' values;
* a learned tie to ``v`` narrows its node to ``{v}`` in every frame.
  That holds for any warm-up ``w``: had some frame ``t`` shown ``not v``
  from all-X, the same vectors applied after any ``w``-frame prefix
  would show it again at frame ``w + t`` (a known state only refines
  all-X), breaking the tie.

The sets over-approximate every value the good machine can reach, so a
fault is untestable (:func:`screen_untestable`) when either

* **excitation fails** -- its site can never show the value opposite to
  the stuck value (the faulty machine then only ever refines the good
  one, so no output can disagree); or
* **propagation fails** -- no path from the fault to a primary output,
  through gates and sequential elements, has side inputs that can all
  be non-controlling.  A known difference crosses a gate only when, in
  one of the two machines, every other input is non-controlling; a side
  input outside the fault's fanout cone carries the same value in both
  machines, so it must be able to show the non-controlling value.  Side
  inputs *inside* the cone may differ between the machines and never
  block: treating them as blocking is FIRES's reconvergence defect.

A collapsed representative is untestable when any member of its
equivalence class is.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import (
    CONTROLLED_RESPONSE,
    CONTROLLING_VALUE,
    GateType,
    ONE,
    ZERO,
)
from ..circuit.netlist import Circuit
from .faults import Fault, fault_site_source

#: Value-set bits: the good machine can show 0, can show 1.
CAN0 = 1 << ZERO
CAN1 = 1 << ONE
BOTH = CAN0 | CAN1


def _swap(bits: int) -> int:
    return ((bits & CAN0) << 1) | ((bits & CAN1) >> 1)


def _eval_set(gate_type: GateType, fanin_sets: List[int]) -> int:
    """The values a gate can show, given its inputs' value sets."""
    controlling = CONTROLLING_VALUE.get(gate_type)
    if controlling is not None:
        response = CONTROLLED_RESPONSE[gate_type]
        out = 0
        if any(bits >> controlling & 1 for bits in fanin_sets):
            out |= 1 << response
        if all(bits >> (1 - controlling) & 1 for bits in fanin_sets):
            out |= 1 << (1 - response)
        return out
    if gate_type in (GateType.XOR, GateType.XNOR):
        out = CAN0
        for bits in fanin_sets:
            out = (bits if out & CAN0 else 0) | \
                (_swap(bits) if out & CAN1 else 0)
        return _swap(out) if gate_type is GateType.XNOR else out
    if gate_type is GateType.NOT:
        return _swap(fanin_sets[0])
    if gate_type is GateType.BUF:
        return fanin_sets[0]
    if gate_type is GateType.TIE0:
        return CAN0
    if gate_type is GateType.TIE1:
        return CAN1
    raise AssertionError(f"unexpected gate type {gate_type}")


def value_sets(circuit: Circuit, ties=None) -> List[int]:
    """Per node, the bits of the good values it can ever show from all-X.

    ``ties`` (a :class:`repro.core.ties.TieSet`, optional) narrows each
    tied node to its tie value.  The fixpoint is event-driven: a node is
    re-evaluated only when an input's set grew, and a set grows at most
    twice, so the cost is linear in the number of edges.
    """
    nodes = circuit.nodes
    allowed = [BOTH] * len(nodes)
    if ties is not None:
        for tie in ties.all():
            allowed[tie.nid] = 1 << tie.value
    sets = [0] * len(nodes)
    level = circuit.level
    queue: List = []
    queued: Set[int] = set()

    def grow(nid: int, bits: int) -> None:
        bits &= allowed[nid]
        if bits & ~sets[nid]:
            sets[nid] |= bits
            for fo in nodes[nid].fanouts:
                if fo not in queued:
                    queued.add(fo)
                    heapq.heappush(queue, (level[fo], fo))

    for pid in circuit.inputs:
        grow(pid, BOTH)
    for node in nodes:
        if node.gate_type in (GateType.TIE0, GateType.TIE1):
            grow(node.nid, _eval_set(node.gate_type, []))
    while queue:
        _level, nid = heapq.heappop(queue)
        queued.discard(nid)
        node = nodes[nid]
        if node.is_sequential:
            grow(nid, sets[node.fanins[0]])
        else:
            grow(nid, _eval_set(node.gate_type,
                                [sets[f] for f in node.fanins]))
    return sets


def screen_untestable(circuit: Circuit, faults: Sequence[Fault],
                      classes=None, ties=None) -> List[int]:
    """Indices of ``faults`` the screen proves untestable.

    ``classes`` (from :func:`repro.atpg.faults.collapse_with_classes`)
    maps a representative to its equivalence class; ``ties`` narrows the
    value sets (see :func:`value_sets`).
    """
    nodes = circuit.nodes
    sets = value_sets(circuit, ties)
    # The values a side input must be able to show for a gate to pass a
    # difference: the non-controlling one, or (XOR, and single-input
    # cells, which have no side input) any known value.
    need = [BOTH if node.gate_type not in CONTROLLING_VALUE
            else 1 << (1 - CONTROLLING_VALUE[node.gate_type])
            for node in nodes]
    observable: Dict[Tuple[int, Optional[int]], bool] = {}

    def reaches_output(start: int, pin: Optional[int]) -> bool:
        """Can a difference at ``start`` (entering on ``pin`` for a
        branch fault) cross to a primary output?"""
        cone = set(circuit.transitive_fanout(start))
        cone.add(start)

        def passes(nid: int, skip: Optional[int] = None) -> bool:
            want = need[nid]
            return all(src in cone or sets[src] & want
                       for i, src in enumerate(nodes[nid].fanins)
                       if i != skip)

        if pin is not None and not passes(start, pin):
            return False
        seen = {start}
        stack = [start]
        while stack:
            nid = stack.pop()
            if nodes[nid].is_output:
                return True
            for fo in nodes[nid].fanouts:
                if fo not in seen and passes(fo):
                    seen.add(fo)
                    stack.append(fo)
        return False

    def untestable(fault: Fault) -> bool:
        site = fault_site_source(circuit, fault)
        if not sets[site] & (1 << (1 - fault.value)):
            return True
        key = (fault.node, fault.pin)
        if key not in observable:
            observable[key] = reaches_output(fault.node, fault.pin)
        return not observable[key]

    return [index for index, fault in enumerate(faults)
            if any(untestable(member) for member in
                   (classes.get(fault, [fault]) if classes else [fault]))]
