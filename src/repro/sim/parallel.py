"""Bit-parallel pattern simulation of the combinational logic.

Used for gate-equivalence candidate identification (paper section 3.1):
N random binary patterns are applied to the pseudo-primary inputs (PIs and
FF outputs) and every gate's response signature is computed with bitwise
operations, N patterns at a time.  Python's arbitrary-precision integers
make the word width a free parameter.

Values here are strictly binary -- X plays no role because equivalence is
a property of the Boolean functions.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit


def simulate_patterns(circuit: Circuit,
                      source_masks: Dict[int, int],
                      width: int) -> Dict[int, int]:
    """Evaluate all combinational gates over packed binary patterns.

    ``source_masks`` maps every PI and FF-output node id to an N-bit mask
    (bit i = value of that signal in pattern i).  Returns masks for every
    node.  Raises ``KeyError`` if a needed source is missing.
    """
    full = (1 << width) - 1
    masks: Dict[int, int] = dict(source_masks)
    for nid in circuit.topo_order:
        node = circuit.nodes[nid]
        t = node.gate_type
        if t is GateType.TIE0:
            masks[nid] = 0
            continue
        if t is GateType.TIE1:
            masks[nid] = full
            continue
        fanin_masks = [masks[f] for f in node.fanins]
        if t is GateType.AND or t is GateType.NAND:
            acc = full
            for m in fanin_masks:
                acc &= m
            masks[nid] = (acc ^ full) if t is GateType.NAND else acc
        elif t is GateType.OR or t is GateType.NOR:
            acc = 0
            for m in fanin_masks:
                acc |= m
            masks[nid] = (acc ^ full) if t is GateType.NOR else acc
        elif t is GateType.NOT:
            masks[nid] = fanin_masks[0] ^ full
        elif t is GateType.BUF:
            masks[nid] = fanin_masks[0]
        elif t is GateType.XOR or t is GateType.XNOR:
            acc = 0
            for m in fanin_masks:
                acc ^= m
            masks[nid] = (acc ^ full) if t is GateType.XNOR else acc
        else:  # pragma: no cover - topo_order holds only combinational
            raise AssertionError(f"unexpected gate in topo order: {node}")
    return masks


def random_source_masks(circuit: Circuit, width: int,
                        rng: Optional[random.Random] = None
                        ) -> Dict[int, int]:
    """Random packed patterns for every PI and FF output."""
    rng = rng or random.Random(0x5E0)
    masks = {}
    for nid in list(circuit.inputs) + list(circuit.ffs):
        masks[nid] = rng.getrandbits(width)
    return masks


def signatures(circuit: Circuit, width: int = 256,
               rng: Optional[random.Random] = None,
               backend: str = "reference") -> Dict[int, int]:
    """Random-pattern signature of every node (PIs/FFs included).

    ``backend='compiled'`` evaluates through the straight-line kernels
    of :mod:`repro.sim.compiled`; masks are bit-identical either way.
    """
    rng = rng or random.Random(20260611)
    source = random_source_masks(circuit, width, rng)
    if backend == "compiled":
        from .compiled import compile_circuit

        return compile_circuit(circuit).simulate_patterns(source, width)
    if backend != "reference":
        from .compiled import SIM_BACKENDS

        raise ValueError(f"unknown sim backend {backend!r}; "
                         f"expected one of {SIM_BACKENDS}")
    return simulate_patterns(circuit, source, width)


def exhaustive_masks(variables: Sequence[int], width: int
                     ) -> Dict[int, int]:
    """Packed truth-table columns: pattern i assigns bit i of each var.

    ``width`` must be ``2 ** len(variables)``; variable j's mask has bit i
    set iff (i >> j) & 1.  Used for exact equivalence verification over a
    small support.  Each mask is built in closed form: with ``b = 2 ** j``
    it repeats ``b`` zeros then ``b`` ones, i.e. the block
    ``((1 << b) - 1) << b`` times the repunit ``full // ((1 << 2b) - 1)``
    that places one copy every ``2b`` bits.
    """
    assert width == 1 << len(variables)
    full = (1 << width) - 1
    masks = {}
    for j, var in enumerate(variables):
        b = 1 << j
        masks[var] = (full // ((1 << 2 * b) - 1)) * (((1 << b) - 1) << b)
    return masks


def pack_patterns(circuit: Circuit,
                  vectors: List[Dict[str, int]]) -> Dict[int, int]:
    """Pack explicit binary vectors (by signal name) into source masks."""
    masks: Dict[int, int] = {nid: 0
                             for nid in list(circuit.inputs) + list(circuit.ffs)}
    for i, vec in enumerate(vectors):
        for name, value in vec.items():
            nid = circuit.nid(name)
            if value:
                masks[nid] |= 1 << i
    return masks
