"""Combinationally equivalent gate identification (paper section 3.1).

Three-valued simulation cannot see through re-structured logic: in the
paper's Figure 1, injecting F2=0 sets G4=AND(F1,F2) to 0 but leaves the
restructured G2 at X.  Knowing G2 == G4 lets the simulator copy the value
and learn extra relations.

Candidates come from bit-parallel random-pattern signatures over the
combinational logic (FF outputs as pseudo-inputs); a candidate pair is
accepted only after *exact* verification by exhaustive enumeration over
the union of the two input supports (skipped, i.e. rejected, when the
support exceeds ``max_support`` -- soundness is never traded for yield,
since every learned relation must hold on the real circuit).
Complemented pairs (a == NOT b) are detected and used the same way.
The exhaustive truth-table columns come in closed form from
:func:`repro.sim.parallel.exhaustive_masks` (one bigint expression per
variable), so verification costs the cone evaluation alone.

The multiple-node phase couples the classes into simulation: a value
on one member is copied to every member.  The batched compiled path of
:mod:`repro.core.multi_node` reaches the same values as the event
simulator by re-running each frame with every class's union planes
patched onto its members until no member gains a bit.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from ..sim.eventsim import Coupling
from ..sim.parallel import exhaustive_masks, signatures
from .ties import TieSet


def eval_cone(circuit: Circuit, targets: List[int],
              source_masks: Dict[int, int], width: int) -> Dict[int, int]:
    """Evaluate only the cones of ``targets`` over packed patterns.

    ``source_masks`` must cover every PI/FF feeding the cones.  Constant
    gates evaluate naturally.
    """
    cone = set()
    for target in targets:
        cone.update(circuit.combinational_fanin_cone(target))
    masks = dict(source_masks)
    full = (1 << width) - 1
    for nid in circuit.topo_order:
        if nid not in cone or nid in masks:
            continue
        node = circuit.nodes[nid]
        t = node.gate_type
        if t is GateType.TIE0:
            masks[nid] = 0
            continue
        if t is GateType.TIE1:
            masks[nid] = full
            continue
        fanin_masks = [masks[f] for f in node.fanins]
        if t is GateType.AND:
            acc = full
            for m in fanin_masks:
                acc &= m
        elif t is GateType.NAND:
            acc = full
            for m in fanin_masks:
                acc &= m
            acc ^= full
        elif t is GateType.OR:
            acc = 0
            for m in fanin_masks:
                acc |= m
        elif t is GateType.NOR:
            acc = 0
            for m in fanin_masks:
                acc |= m
            acc ^= full
        elif t is GateType.NOT:
            acc = fanin_masks[0] ^ full
        elif t is GateType.BUF:
            acc = fanin_masks[0]
        elif t is GateType.XOR or t is GateType.XNOR:
            acc = 0
            for m in fanin_masks:
                acc ^= m
            if t is GateType.XNOR:
                acc ^= full
        else:  # pragma: no cover
            raise AssertionError(t)
        masks[nid] = acc
    return masks


def verify_pair(circuit: Circuit, a: int, b: int,
                max_support: int = 14) -> Optional[int]:
    """Exact equivalence check of two combinational nodes.

    Returns 0 for equal, 1 for complementary, ``None`` for not equivalent
    or support too large to verify.
    """
    support = sorted(set(circuit.cone_support(a)) |
                     set(circuit.cone_support(b)))
    if len(support) > max_support:
        return None
    width = 1 << len(support)
    masks = eval_cone(circuit, [a, b],
                      exhaustive_masks(support, width), width)
    full = (1 << width) - 1
    if masks[a] == masks[b]:
        return 0
    if masks[a] == masks[b] ^ full:
        return 1
    return None


def find_equivalences(circuit: Circuit, ties: Optional[TieSet] = None,
                      *, width: int = 256, max_support: int = 14,
                      rng: Optional[random.Random] = None,
                      backend: str = "reference"
                      ) -> Dict[int, Tuple[int, int]]:
    """Equivalence classes over combinational gates.

    Returns the :attr:`repro.sim.eventsim.Coupling.equiv` mapping
    ``nid -> (class id, polarity)``.  Tied gates are excluded (they are
    constants, handled by the tie mechanism); classes with a single member
    are dropped.  ``backend`` selects the signature simulator (the
    candidate buckets are bit-identical either way); exact verification
    stays on the cone-limited evaluator regardless.
    """
    rng = rng or random.Random(987654321)
    sigs = signatures(circuit, width, rng, backend=backend)
    full = (1 << width) - 1
    tied = set(ties.combinational()) if ties is not None else set()
    buckets: Dict[int, List[int]] = {}
    for node in circuit.nodes:
        if not node.is_combinational:
            continue
        if node.gate_type in (GateType.TIE0, GateType.TIE1):
            continue
        if node.nid in tied:
            continue
        sig = sigs[node.nid]
        if sig == 0 or sig == full:
            # Constant under random patterns but not a proven tie; the
            # tie machinery owns constants, skip here.
            continue
        buckets.setdefault(min(sig, sig ^ full), []).append(node.nid)
    parent: Dict[int, int] = {}
    polarity: Dict[int, int] = {}

    def find(x: int) -> Tuple[int, int]:
        if parent[x] == x:
            return x, 0
        root, pol = find(parent[x])
        parent[x] = root
        polarity[x] ^= pol
        return root, polarity[x]

    def union(x: int, y: int, pol_xy: int) -> None:
        rx, px = find(x)
        ry, py = find(y)
        if rx == ry:
            return
        parent[ry] = rx
        polarity[ry] = px ^ py ^ pol_xy

    for members in buckets.values():
        if len(members) < 2:
            continue
        for nid in members:
            parent.setdefault(nid, nid)
            polarity.setdefault(nid, 0)
        rep = members[0]
        for other in members[1:]:
            verdict = verify_pair(circuit, rep, other,
                                  max_support=max_support)
            if verdict is not None:
                union(rep, other, verdict)
    # Emit classes with >= 2 members.
    classes: Dict[int, List[int]] = {}
    for nid in parent:
        root, _pol = find(nid)
        classes.setdefault(root, []).append(nid)
    out: Dict[int, Tuple[int, int]] = {}
    class_id = 0
    for root, members in sorted(classes.items()):
        if len(members) < 2:
            continue
        for nid in members:
            _r, pol = find(nid)
            out[nid] = (class_id, pol)
        class_id += 1
    return out


def coupling_from(ties: TieSet,
                  equiv: Optional[Dict[int, Tuple[int, int]]] = None
                  ) -> Coupling:
    """Bundle learned ties and equivalences for the simulator."""
    return Coupling(ties=dict(ties.combinational()),
                    equiv=dict(equiv or {})).finalize()
