"""Retiming transformation.

Backward retiming moves a register from a gate's output to its inputs:

    F = DFF(G),  G = g(a, b)   ==>   Fa = DFF(a), Fb = DFF(b), F' = g(Fa, Fb)

The transformed circuit is sequentially equivalent (one-cycle latency of G
is preserved) but the new registers jointly encode strictly more state
bits than the one they replace, so many of their combinations never occur:
retiming lowers the density of encoding.  Reference [9] of the paper shows
this is what makes sequential ATPG blow up on retimed circuits, and the
paper's Table 5 retimed rows (s510jcsrre etc.) are exactly such circuits.

``retime_circuit`` applies ``moves`` backward-retiming steps to the FFs
with the widest data cones, mirroring how aggressive min-period retiming
spreads registers into random logic.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .builder import CircuitBuilder
from .gates import GateType
from .netlist import Circuit


def retime_backward(circuit: Circuit, ff_name: str,
                    new_name: Optional[str] = None) -> Circuit:
    """Move one FF backward across its driving gate.

    The FF must be driven by a multi-input combinational gate whose fanins
    are not the FF itself (no self-loop).  Returns a new frozen circuit.
    """
    ff = circuit.node(ff_name)
    if not ff.is_sequential:
        raise ValueError(f"{ff_name} is not a sequential element")
    driver = circuit.nodes[ff.fanins[0]]
    if not driver.is_combinational or driver.gate_type in (
            GateType.TIE0, GateType.TIE1):
        raise ValueError(
            f"{ff_name} driver {driver.name} is not a movable gate")
    if ff.nid in driver.fanins:
        raise ValueError(f"{ff_name} has a combinational self-loop driver")
    out_name = new_name or (circuit.name + f"_rt_{ff_name}")
    b = CircuitBuilder(out_name)
    b.inputs(*[circuit.nodes[i].name for i in circuit.inputs])
    # New registers, one per driver fanin (shared fanins share a register).
    reg_of = {}
    for fi in dict.fromkeys(driver.fanins):
        reg_name = f"{ff.name}_r{len(reg_of)}"
        reg_of[fi] = reg_name
        b.dff(reg_name, circuit.nodes[fi].name,
              clock=ff.clock, phase=ff.phase)
    for fid in circuit.ffs:
        node = circuit.nodes[fid]
        if fid == ff.nid:
            continue
        b.dff(node.name, circuit.nodes[node.fanins[0]].name,
              gate_type=node.gate_type, clock=node.clock, phase=node.phase,
              set_kind=node.set_kind, reset_kind=node.reset_kind,
              num_ports=node.num_ports)
    for nid in circuit.topo_order:
        node = circuit.nodes[nid]
        b.gate(node.name, node.gate_type,
               *[circuit.nodes[f].name for f in node.fanins])
    # The retimed FF's output is re-created combinationally from the new
    # registers; every old reference to the FF keeps its name.
    b.gate(ff.name, driver.gate_type,
           *[reg_of[fi] for fi in driver.fanins])
    b.output(*[circuit.nodes[o].name for o in circuit.outputs])
    return b.build()


def retimable_ffs(circuit: Circuit) -> List[str]:
    """FF names eligible for :func:`retime_backward`, widest driver first."""
    out = []
    for fid in circuit.ffs:
        ff = circuit.nodes[fid]
        driver = circuit.nodes[ff.fanins[0]]
        if (driver.is_combinational
                and driver.gate_type not in (GateType.TIE0, GateType.TIE1)
                and ff.nid not in driver.fanins
                and len(driver.fanins) >= 2):
            out.append((len(driver.fanins), ff.name))
    return [name for _w, name in sorted(out, reverse=True)]


def retime_circuit(circuit: Circuit, moves: int = 3,
                   seed: Optional[int] = None,
                   name: Optional[str] = None) -> Circuit:
    """Apply several backward-retiming moves.

    Picks the widest-fanin retimable FFs (shuffled when ``seed`` is given)
    so each move maximally dilutes the state encoding.  Stops early if the
    circuit runs out of retimable FFs.
    """
    current = circuit
    rng = random.Random(seed) if seed is not None else None
    for step in range(moves):
        candidates = retimable_ffs(current)
        if not candidates:
            break
        if rng is not None:
            rng.shuffle(candidates)
        target = candidates[0]
        current = retime_backward(
            current, target,
            new_name=(name or circuit.name + "_retimed")
            if step == moves - 1 else None)
    if name is not None and current.name != name:
        current.name = name
    return current
