"""Multiple-node learning (paper section 3.1, second phase).

Single-node learning misses relations needing several simultaneous
assignments.  For every (node, value) the first phase recorded *all* its
justifications -- each (stem, stem-value, offset) that produced it.  By
the contrapositive law the complementary node value implies the
complement of every justifying stem value at the corresponding earlier
frame.  Injecting that whole assignment set and simulating forward
yields new same-frame relations between the target and everything set at
the final frame, and a simulation conflict proves the target node *tied*
(the paper's G15 walkthrough).

This phase runs with the :class:`~repro.sim.eventsim.Coupling` carrying
phase-one ties and gate equivalences, which is what lets it find
relations like F3=0 -> F1=0 in Figure 1.

The simulator's coupling is frozen when it is built, so targets cannot
affect each other: the phase plans every target's injections, simulates
the runnable ones, then adds ties and relations in target order.  Two
execution paths simulate and produce identical results:

* the **reference path** (``backend='reference'``) runs each target
  through :class:`~repro.sim.eventsim.FrameSimulator`, the oracle;
* the **batched path** (``backend='compiled'``, the default) groups the
  targets by final frame ``t_max`` and runs up to
  :data:`~repro.core.single_node.DEFAULT_COMPILED_BATCH` of them as bit
  columns of one compiled two-plane run
  (:meth:`repro.sim.compiled.CompiledCircuit.eval_planes`).  Injections
  on PIs and FFs are preloaded; tie constants and injections on gates
  are OR-ed into the gate's planes by the kernel's ``fix`` hook.  Gate
  equivalences are applied as a fixpoint: each frame is re-run with
  every class's union planes patched onto its members until no member
  gains a bit -- the propagation rules are monotone, so this is the
  event simulator's fixpoint.  A column conflicts when some node holds
  both planes at some frame, which is exactly when the event simulator
  meets a contradiction.

Both paths relate the target to the final frame's values in ascending
node id, so the order of relations in the database does not depend on
the path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..circuit.gates import ZERO, inv
from ..sim.compiled import SIM_BACKENDS, compile_circuit
from ..sim.eventsim import FrameSimulator
from .relations import RelationDB
from .single_node import (
    DEFAULT_COMPILED_BATCH,
    SingleNodeData,
    ff_transfer_allow,
)
from .ties import TieSet

#: frame -> (node, value) assignments of one target's premise.
Injections = Dict[int, List[Tuple[int, int]]]

#: A runnable target: (node, value, injections, t_max).
Run = Tuple[int, int, Injections, int]

#: One equivalence class: every (member, polarity), then the members
#: whose values reach their classmates.
EquivClass = Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]


@dataclass
class MultiNodeStats:
    """Bookkeeping for reports and tests."""

    targets_run: int = 0
    targets_skipped: int = 0
    relations_added: int = 0
    ties_found: int = 0
    conflicts: List[Tuple[int, int]] = field(default_factory=list)


def build_injections(justifications: List[Tuple[int, int, int]],
                     target: Tuple[int, int],
                     max_frames: int
                     ) -> Optional[Tuple[Injections, int]]:
    """Contrapositive assignment set for one target.

    Returns ``(injections, t_max)`` where ``injections[frame]`` lists
    (node, value) pairs, including the target itself at ``t_max``; or
    ``None`` when the justification offsets exceed the frame budget.
    Returns ``t_max = -1`` sentinel (with empty injections) when two
    justifications contradict each other -- the target is then tied
    outright (both stem values produce it, the single-node tie criterion
    seen from the other side).
    """
    nid, value = target
    offsets = [t for _s, _v, t in justifications]
    t_max = max(offsets)
    if t_max >= max_frames:
        justifications = [j for j in justifications if j[2] < max_frames]
        if not justifications:
            return None
        t_max = max(t for _s, _v, t in justifications)
    by_frame: Dict[int, Dict[int, int]] = {}
    for stem, stem_value, offset in justifications:
        frame = t_max - offset
        frame_map = by_frame.setdefault(frame, {})
        want = inv(stem_value)
        if frame_map.setdefault(stem, want) != want:
            return {}, -1  # contradictory requirements: target is tied
    target_map = by_frame.setdefault(t_max, {})
    if target_map.setdefault(nid, inv(value)) != inv(value):
        return {}, -1
    injections = {frame: sorted(mapping.items())
                  for frame, mapping in by_frame.items()}
    return injections, t_max


def run_multi_node(simulator: FrameSimulator, data: SingleNodeData,
                   db: RelationDB, ties: TieSet, *,
                   max_frames: int = 50,
                   min_justifications: int = 1,
                   max_targets: Optional[int] = None,
                   store_gate_gate: bool = False,
                   backend: str = "compiled") -> MultiNodeStats:
    """Run multiple-node learning over every justified (node, value).

    ``backend`` selects the execution path ('compiled' batches the
    targets, 'reference' runs the event simulator per target); learned
    relations, ties and stats are identical for both.
    """
    if backend not in SIM_BACKENDS:
        raise ValueError(f"unknown sim backend {backend!r}; "
                         f"expected one of {SIM_BACKENDS}")
    stats = MultiNodeStats()
    constants = simulator._constants
    targets = [(key, justs) for key, justs in data.justifications.items()
               if len(justs) >= min_justifications
               and key[0] not in constants and key[0] not in ties]
    # Richest justification sets first: they reach furthest.
    targets.sort(key=lambda item: -len(item[1]))
    if max_targets is not None:
        stats.targets_skipped += max(0, len(targets) - max_targets)
        targets = targets[:max_targets]
    plan = [(nid, value, justifications,
             build_injections(justifications, (nid, value), max_frames))
            for (nid, value), justifications in targets]
    runs: List[Run] = [(nid, value, built[0], built[1])
                       for nid, value, _j, built in plan
                       if built is not None and built[1] >= 0]
    if backend == "reference":
        outcomes = _reference_outcomes(simulator, runs, store_gate_gate)
    else:
        outcomes = _batched_outcomes(simulator, runs, store_gate_gate)
    pending = iter(outcomes)
    for nid, value, justifications, built in plan:
        if built is None:
            stats.targets_skipped += 1
            continue
        t_max = built[1]
        if t_max < 0:
            if ties.add(nid, value, sequential=True, phase="multi",
                        warmup=max(t for _s, _v, t in justifications)):
                stats.ties_found += 1
            continue
        stats.targets_run += 1
        related = next(pending)
        if related is None:
            # The premise nid=inv(value) is contradictory: tied to value.
            if ties.add(nid, value, sequential=t_max >= 1, phase="multi",
                        warmup=t_max):
                stats.ties_found += 1
                stats.conflicts.append((nid, value))
            continue
        for m, u in related:
            if db.add(nid, inv(value), m, u, source="multi",
                      sequential=t_max >= 1, warmup=t_max):
                stats.relations_added += 1
    return stats


def _related(final: Iterable[Tuple[int, int]], run: Run,
             constants: Dict[int, int], is_ff: List[bool],
             store_gate_gate: bool) -> List[Tuple[int, int]]:
    """The final-frame values (ascending node id) to relate the target to.

    Skips the target, constants and the final frame's other injections;
    without ``store_gate_gate`` a gate target relates to FFs only.
    """
    nid, _value, injections, t_max = run
    injected = {m for m, _u in injections[t_max]}
    keep_gates = store_gate_gate or is_ff[nid]
    return [(m, u) for m, u in final
            if m != nid and m not in constants and m not in injected
            and (keep_gates or is_ff[m])]


def _reference_outcomes(simulator: FrameSimulator, runs: List[Run],
                        store_gate_gate: bool
                        ) -> List[Optional[List[Tuple[int, int]]]]:
    """Per run: its related values, or ``None`` on a conflict."""
    is_ff = simulator.circuit.ff_mask()
    out: List[Optional[List[Tuple[int, int]]]] = []
    for run in runs:
        injections, t_max = run[2], run[3]
        # The target sits at t_max, the last frame, so the run never
        # stops early without a conflict.
        result = simulator.run(injections, max_frames=t_max + 1,
                               stop_on_repeat=False)
        if result.conflict is not None:
            out.append(None)
            continue
        out.append(_related(sorted(result.frames[t_max].items()), run,
                            simulator._constants, is_ff, store_gate_gate))
    return out


# ----------------------------------------------------------------------
# batched targets over the compiled two-plane evaluator
# ----------------------------------------------------------------------
def _batched_outcomes(simulator: FrameSimulator, runs: List[Run],
                      store_gate_gate: bool
                      ) -> List[Optional[List[Tuple[int, int]]]]:
    """Same as :func:`_reference_outcomes`, batched targets per run."""
    circuit = simulator.circuit
    cc = compile_circuit(circuit)
    constants = simulator._constants
    ff_allow = ff_transfer_allow(simulator, cc)
    coupling = simulator.coupling
    # Per class: every member with its polarity, and the members whose
    # value reaches their classmates -- a constant never does (the event
    # simulator seeds constants without pushing them to classmates).
    classes: List[EquivClass] = []
    for members in coupling._members.values():
        if len(members) < 2:
            continue
        pairs = [(m, coupling.equiv[m][1]) for m in members]
        classes.append((pairs, [p for p in pairs if p[0] not in constants]))
    by_depth: Dict[int, List[int]] = {}
    for index, run in enumerate(runs):
        by_depth.setdefault(run[3], []).append(index)
    is_ff = circuit.ff_mask()
    out: List[Optional[List[Tuple[int, int]]]] = [None] * len(runs)
    for t_max, indices in sorted(by_depth.items()):
        for start in range(0, len(indices), DEFAULT_COMPILED_BATCH):
            chunk = indices[start:start + DEFAULT_COMPILED_BATCH]
            batch = [runs[i] for i in chunk]
            finals = _run_batch(cc, batch, t_max, constants, ff_allow,
                                classes, is_ff, store_gate_gate)
            for index, run, final in zip(chunk, batch, finals):
                if final is not None:
                    out[index] = _related(final, run, constants, is_ff,
                                          store_gate_gate)
    return out


def _run_batch(cc, batch: List[Run], t_max: int,
               constants: Dict[int, int],
               ff_allow: List[Tuple[bool, bool]],
               classes: List[EquivClass], is_ff: List[bool],
               store_gate_gate: bool
               ) -> List[Optional[List[Tuple[int, int]]]]:
    """Final-frame values per column (ascending node id), None on conflict.

    Reads gate values only for the ``keeps_gates`` columns, whose
    target :func:`_related` lets relate to gates (``store_gate_gate`` or
    an FF target); the other columns get FF values only.  ``_related``
    applies the same rule again, so this only saves extraction work
    (about 40 % of the phase on ``learn_large``).
    """
    n = cc.n
    k = len(batch)
    full = (1 << k) - 1
    # forced[frame][nid] = [0-plane bits, 1-plane bits] of the columns
    # assigning nid at that frame.
    forced: List[Dict[int, List[int]]] = [{} for _ in range(t_max + 1)]
    keeps_gates = 0
    for i, (nid, _value, injections, _t) in enumerate(batch):
        bit = 1 << i
        if store_gate_gate or is_ff[nid]:
            keeps_gates |= bit
        for frame, pairs in injections.items():
            slot = forced[frame]
            for node, value in pairs:
                planes = slot.get(node)
                if planes is None:
                    planes = slot[node] = [0, 0]
                planes[value] |= bit
    is_source = [op is None for op in cc.opcode]
    m0 = [0] * n
    m1 = [0] * n
    n_ffs = len(cc.ffs)
    s0 = [0] * n_ffs
    s1 = [0] * n_ffs
    live = full
    active: Dict[int, Tuple[int, int]] = {}

    def fix(nid: int, c0: int, c1: int, *_fp: int) -> Tuple[int, int]:
        z, o = active[nid]
        return c0 | z, c1 | o

    for frame in range(t_max + 1):
        base: Dict[int, Tuple[int, int]] = {
            nid: (z & live, o & live)
            for nid, (z, o) in forced[frame].items()}
        for nid, value in constants.items():
            z, o = base.get(nid, (0, 0))
            base[nid] = (z | live, o) if value == ZERO else (z, o | live)
        patches: Dict[int, Tuple[int, int]] = {}
        while True:
            active = dict(base)
            for nid, (z, o) in patches.items():
                have = active.get(nid)
                active[nid] = (z, o) if have is None else (
                    have[0] | z, have[1] | o)
            for nid in cc.inputs:
                m0[nid] = m1[nid] = 0
            for j, fid in enumerate(cc.ffs):
                m0[fid] = s0[j]
                m1[fid] = s1[j]
            for nid, (z, o) in active.items():
                if is_source[nid]:
                    m0[nid] |= z
                    m1[nid] |= o
            cc.eval_planes(m0, m1, full, active, fix, trace=True)
            patches = _class_patches(classes, m0, m1)
            if patches is None:
                break
        # Only a forced node can hold both planes first: unforced
        # planes are evaluated from consistent fanins.
        for nid in active:
            live &= ~(m0[nid] & m1[nid])
        if frame < t_max:
            for j, data in enumerate(cc.ff_data):
                allow0, allow1 = ff_allow[j]
                s0[j] = m0[data] & live if allow0 else 0
                s1[j] = m1[data] & live if allow1 else 0
    finals: List[Optional[List[Tuple[int, int]]]] = [
        [] if live >> i & 1 else None for i in range(k)]
    for nid in range(n) if keeps_gates else sorted(cc.ffs):
        if nid in constants:
            continue
        known = (m0[nid] | m1[nid]) & live
        if not is_ff[nid]:
            known &= keeps_gates
        zplane = m0[nid]
        while known:
            low = known & -known
            known ^= low
            finals[low.bit_length() - 1].append(
                (nid, 0 if zplane & low else 1))
    return finals


def _class_patches(classes: List[EquivClass], m0: List[int], m1: List[int]
                   ) -> Optional[Dict[int, Tuple[int, int]]]:
    """Union planes of every class onto its members; None when closed.

    Returns ``None`` when no member would gain a bit, i.e. the planes
    already satisfy every equivalence.
    """
    patches: Dict[int, Tuple[int, int]] = {}
    gained = False
    for members, sources in classes:
        u0 = u1 = 0
        for nid, pol in sources:
            if pol:
                u0 |= m1[nid]
                u1 |= m0[nid]
            else:
                u0 |= m0[nid]
                u1 |= m1[nid]
        if not (u0 | u1):
            continue
        for nid, pol in members:
            z, o = (u1, u0) if pol else (u0, u1)
            if z & ~m0[nid] or o & ~m1[nid]:
                gained = True
            patches[nid] = (z, o)
    return patches if gained else None
