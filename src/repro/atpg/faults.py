"""Stuck-at fault model, fault universe and equivalence collapsing.

A fault is stuck-at-``value`` either on a node's output (``pin is None``;
for fanout stems this is the stem fault) or on one input pin of a gate (a
fanout-branch fault).  The uncollapsed universe has one output fault pair
per node and one input fault pair per gate pin on nodes with fanout > 1.

Equivalence collapsing uses the classic structural rules:

* a single-input gate's input faults are equivalent to output faults
  (through the inversion parity of NOT/BUF);
* for AND/NAND (OR/NOR), every input stuck-at the controlling value is
  equivalent to the output stuck at the controlled response;
* a fanout-free gate input fault is equivalent to the fault on the
  driving node's output.  A primary output is never fanout-free: its
  faults are observed at the output itself, so they keep their own
  class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import (
    CONTROLLED_RESPONSE,
    CONTROLLING_VALUE,
    GateType,
    ONE,
    ZERO,
)
from ..circuit.netlist import Circuit


@dataclass(frozen=True)
class Fault:
    """One stuck-at fault."""

    node: int
    pin: Optional[int]
    value: int

    def describe(self, circuit: Circuit) -> str:
        name = circuit.nodes[self.node].name
        if self.pin is None:
            return f"{name} s-a-{self.value}"
        src = circuit.nodes[circuit.nodes[self.node].fanins[self.pin]].name
        return f"{name}.in{self.pin}({src}) s-a-{self.value}"


def full_fault_list(circuit: Circuit) -> List[Fault]:
    """The uncollapsed stuck-at universe.

    Output faults on every node that drives something or is a primary
    output; branch (input-pin) faults on every gate/FF input whose driver
    has fanout greater than one (otherwise the branch is equivalent to
    the driver's output fault).
    """
    faults: List[Fault] = []
    for node in circuit.nodes:
        if node.fanouts or node.is_output:
            faults.append(Fault(node.nid, None, ZERO))
            faults.append(Fault(node.nid, None, ONE))
    for node in circuit.nodes:
        for pin, src in enumerate(node.fanins):
            if len(circuit.nodes[src].fanouts) > 1:
                faults.append(Fault(node.nid, pin, ZERO))
                faults.append(Fault(node.nid, pin, ONE))
    return faults


class _UnionFind:
    def __init__(self):
        self.parent: Dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def collapse_faults(circuit: Circuit,
                    faults: Optional[Sequence[Fault]] = None
                    ) -> List[Fault]:
    """Equivalence-collapse the fault universe.

    Returns one representative per equivalence class, preferring output
    faults (they simulate fastest) and lower node ids for determinism.
    """
    return collapse_with_classes(circuit, faults)[0]


def collapse_with_classes(circuit: Circuit,
                          faults: Optional[Sequence[Fault]] = None
                          ) -> Tuple[List[Fault], Dict[Fault, List[Fault]]]:
    """Collapse and also return representative -> class members.

    The class map matters for analyses that prove *one member*
    untestable (tie gates prove ``G s-a-v`` untestable; the class
    representative may be an equivalent branch fault elsewhere).
    """
    if faults is None:
        faults = full_fault_list(circuit)
    uf = _UnionFind()
    fault_set = set(faults)

    def merge(f1: Fault, f2: Fault) -> None:
        if f1 in fault_set and f2 in fault_set:
            uf.union(f1, f2)

    outputs = set(circuit.outputs)

    def fanout_free(nid: int) -> bool:
        return len(circuit.nodes[nid].fanouts) == 1 and nid not in outputs

    for node in circuit.nodes:
        t = node.gate_type
        if t in (GateType.NOT, GateType.BUF):
            src = node.fanins[0]
            invert = t is GateType.NOT
            for v in (ZERO, ONE):
                out_v = (1 - v) if invert else v
                out = Fault(node.nid, None, out_v)
                if fanout_free(src):
                    merge(Fault(src, None, v), out)
                else:
                    merge(Fault(node.nid, 0, v), out)
        elif t in CONTROLLING_VALUE:
            c = CONTROLLING_VALUE[t]
            response = CONTROLLED_RESPONSE[t]
            out = Fault(node.nid, None, response)
            for pin, src in enumerate(node.fanins):
                if fanout_free(src):
                    merge(Fault(src, None, c), out)
                else:
                    merge(Fault(node.nid, pin, c), out)
    groups: Dict = {}
    for fault in faults:
        groups.setdefault(uf.find(fault), []).append(fault)
    collapsed = []
    classes: Dict[Fault, List[Fault]] = {}
    for members in groups.values():
        members.sort(key=lambda f: (f.pin is not None, f.node,
                                    f.pin if f.pin is not None else -1,
                                    f.value))
        collapsed.append(members[0])
        classes[members[0]] = members
    collapsed.sort(key=lambda f: (f.node,
                                  -1 if f.pin is None else f.pin, f.value))
    return collapsed, classes


def fault_site_source(circuit: Circuit, fault: Fault) -> int:
    """The node whose *value* must differ to excite the fault."""
    if fault.pin is None:
        return fault.node
    return circuit.nodes[fault.node].fanins[fault.pin]

