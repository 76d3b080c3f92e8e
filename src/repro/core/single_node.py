"""Single-node learning (paper section 3.1, first phase).

For every fanout stem, both a 0 and a 1 are injected at frame 0 and
simulated forward across time frames.  Same-frame relations follow from
the contrapositive law: if ``s=0 -> a=x`` at frame t and ``s=1 -> b=y`` at
frame t, then ``a=inv(x) -> s=1 -> b=y``, i.e. the relation
``a=inv(x) -> b=y``.

The phase also records, for every (node, value) produced, the set of
(stem, stem-value, frame-offset) *justifications* -- the input to the
multiple-node phase.

Two execution paths produce identical :class:`SingleNodeData`:

* the **reference path** drives :class:`~repro.sim.eventsim.
  FrameSimulator` once per (stem, value) -- 2x injections per stem;
* the **batched path** (``backend='compiled'``, the default, whenever
  no coupled knowledge is in play, i.e. the phase-one runs of every
  clock-domain class) packs up to :data:`DEFAULT_COMPILED_BATCH`
  injections into one bit per machine of a two-plane run, amortizing gate evaluation across the whole batch.  Per-machine
  stop rules (state repeat / dead state) mirror the event simulator
  exactly; the rare stem whose opposite value is already derivable from
  tie constants -- the only way an injection can conflict -- falls back
  to the reference path so conflict results stay byte-identical.

The batched path evaluates each frame's planes with the compiled
straight-line bigint kernels (:func:`repro.sim.compiled.compile_circuit`).

To keep downstream iteration order independent of the path taken, every
per-frame value dict is normalized to ascending node id before it is
stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.gates import ONE, ZERO, inv
from ..circuit.netlist import Circuit
from ..sim.compiled import SIM_BACKENDS, compile_circuit
from ..sim.eventsim import FrameSimulator, InjectionResult
from .relations import RelationDB

#: Machine count per compiled-kernel batch.
DEFAULT_COMPILED_BATCH = 128

#: (stem, stem value, frame offset) -- one way a node value is produced.
Justification = Tuple[int, int, int]


@dataclass
class SingleNodeData:
    """Everything the single-node phase produced."""

    #: (stem, injected value) -> simulation result.
    runs: Dict[Tuple[int, int], InjectionResult] = field(default_factory=dict)
    #: (node, value) -> all justifications observed.
    justifications: Dict[Tuple[int, int], List[Justification]] = field(
        default_factory=dict)
    #: Stems skipped because they are constants/ties.
    skipped_stems: List[int] = field(default_factory=list)

    def implied_at(self, stem: int, value: int, frame: int
                   ) -> Dict[int, int]:
        """Derived values at ``frame`` for one stem run ({} off the end)."""
        result = self.runs.get((stem, value))
        if result is None or frame >= len(result.frames):
            return {}
        return result.implied(frame)


def _normalized(result: InjectionResult) -> InjectionResult:
    """Reorder every frame dict to ascending node id, in place.

    Both execution paths store frames this way so justification and
    relation-extraction iteration order cannot depend on which produced
    the run.
    """
    result.frames = [dict(sorted(frame.items()))
                     for frame in result.frames]
    return result


def run_single_node(simulator: FrameSimulator,
                    stems: Optional[List[int]] = None,
                    max_frames: int = 50, *,
                    backend: str = "compiled") -> SingleNodeData:
    """Inject 0 and 1 on every stem and record forward implications.

    ``backend`` selects the execution path: 'compiled' packs the
    injections into batched two-plane runs, 'reference' runs the event
    simulator per injection.  A simulator carrying coupled knowledge
    (ties/equivalences from earlier phases couple values in ways the
    packed evaluator does not model) always takes the reference path.
    Results are identical for both.
    """
    if backend not in SIM_BACKENDS:
        raise ValueError(f"unknown sim backend {backend!r}; "
                         f"expected one of {SIM_BACKENDS}")
    circuit = simulator.circuit
    if stems is None:
        stems = circuit.fanout_stems()
    data = SingleNodeData()
    constants = simulator._constants
    coupled = simulator.coupling.ties or simulator.coupling.equiv
    runs: Dict[Tuple[int, int], InjectionResult] = {}
    if backend == "compiled" and not coupled:
        live = [s for s in stems if s not in constants]
        if live:
            runs = _batched_runs(simulator, live, max_frames)
    for stem in stems:
        if stem in constants:
            data.skipped_stems.append(stem)
            continue
        for value in (ZERO, ONE):
            result = runs.get((stem, value))
            if result is None:
                result = _normalized(simulator.inject_single(
                    stem, value, max_frames=max_frames))
            data.runs[(stem, value)] = result
            for frame in range(len(result.frames)):
                for nid, val in result.implied(frame).items():
                    if nid in constants:
                        continue
                    data.justifications.setdefault((nid, val), []).append(
                        (stem, value, frame))
    return data


# ----------------------------------------------------------------------
# batched injections over the compiled two-plane evaluator
# ----------------------------------------------------------------------
def _batched_runs(simulator: FrameSimulator, stems: List[int],
                  max_frames: int
                  ) -> Dict[Tuple[int, int], InjectionResult]:
    """Simulate both injections of many stems bit-parallel.

    One machine (bit column) per (stem, value) pair; machines are
    independent because two-plane evaluation is bitwise.  Stems whose
    frame-0 value is already derived from tie constants are *skipped*
    for the opposite injection -- that injection conflicts mid-
    propagation in the event simulator, and the caller's reference
    fallback reproduces the partial conflict run exactly.
    """
    circuit = simulator.circuit
    cc = compile_circuit(circuit)
    # Frame-0 values derivable with no injection at all (tie cones):
    # the only values an injection can collide with.
    baseline = simulator.run({}, max_frames=1).frames[0]
    pairs: List[Tuple[int, int]] = []
    for stem in stems:
        derived = baseline.get(stem)
        for value in (ZERO, ONE):
            if derived is None or derived == value:
                pairs.append((stem, value))
    ff_allow = ff_transfer_allow(simulator, cc)
    out: Dict[Tuple[int, int], InjectionResult] = {}
    for start in range(0, len(pairs), DEFAULT_COMPILED_BATCH):
        batch = pairs[start:start + DEFAULT_COMPILED_BATCH]
        out.update(_run_batch(cc, batch, max_frames, ff_allow))
    return out


def ff_transfer_allow(simulator: FrameSimulator, cc
                      ) -> List[Tuple[bool, bool]]:
    """Per FF of ``cc.ffs``: may a captured 0, and a captured 1, cross it?

    The rule table (clock-domain class, multi-port, set/reset kinds)
    lives in one place only: the event simulator's ``_transfer_ok``.
    """
    nodes = simulator.circuit.nodes
    return [(simulator._transfer_ok(nodes[fid], ZERO),
             simulator._transfer_ok(nodes[fid], ONE)) for fid in cc.ffs]


def _run_batch(cc, batch: List[Tuple[int, int]], max_frames: int,
               ff_allow: List[Tuple[bool, bool]]
               ) -> Dict[Tuple[int, int], InjectionResult]:
    n = cc.n
    k = len(batch)
    full = (1 << k) - 1
    source_set = set(cc.inputs) | set(cc.ffs)
    src_zero: Dict[int, int] = {}
    src_one: Dict[int, int] = {}
    gate_zero: Dict[int, int] = {}
    gate_one: Dict[int, int] = {}
    for i, (stem, value) in enumerate(batch):
        if stem in source_set:
            target = src_zero if value == ZERO else src_one
        else:
            target = gate_zero if value == ZERO else gate_one
        target[stem] = target.get(stem, 0) | (1 << i)
    hot = frozenset(gate_zero) | frozenset(gate_one)

    def fix(nid: int, c0: int, c1: int, *_fp: int) -> Tuple[int, int]:
        z = gate_zero.get(nid, 0)
        o = gate_one.get(nid, 0)
        keep = ~(z | o)
        return (c0 & keep) | z, (c1 & keep) | o

    m0 = [0] * n
    m1 = [0] * n
    n_ffs = len(cc.ffs)
    s0 = [0] * n_ffs
    s1 = [0] * n_ffs
    frames_acc: List[List[Dict[int, int]]] = [[] for _ in range(k)]
    state_acc: List[Dict[int, int]] = [{} for _ in range(k)]
    repeated = [False] * k
    active = full
    frame = 0
    while frame < max_frames and active:
        for nid in cc.inputs:
            m0[nid] = m1[nid] = 0
        for j, fid in enumerate(cc.ffs):
            m0[fid] = s0[j]
            m1[fid] = s1[j]
        if frame == 0:
            for nid, bits in src_zero.items():
                m0[nid] |= bits
            for nid, bits in src_one.items():
                m1[nid] |= bits
            cc.eval_planes(m0, m1, full, hot, fix, trace=True)
        else:
            cc.eval_planes(m0, m1, full, trace=True)
        # Extract this frame's known values per still-active machine
        # (ascending nid: the canonical frame-dict order).
        current: Dict[int, Dict[int, int]] = {}
        bits = active
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            values: Dict[int, int] = {}
            current[i] = values
            frames_acc[i].append(values)
        for nid in range(n):
            known = (m0[nid] | m1[nid]) & active
            if not known:
                continue
            zplane = m0[nid]
            while known:
                low = known & -known
                known ^= low
                current[low.bit_length() - 1][nid] = \
                    ZERO if zplane & low else ONE
        # Frame boundary: per-machine implied FF state + stop rules
        # (mirrors FrameSimulator.run step 5 exactly).
        done = 0
        bits = active
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            next_state: Dict[int, int] = {}
            for j, fid in enumerate(cc.ffs):
                data = cc.ff_data[j]
                if m0[data] & low:
                    if ff_allow[j][0]:
                        next_state[fid] = ZERO
                elif m1[data] & low:
                    if ff_allow[j][1]:
                        next_state[fid] = ONE
            if next_state == state_acc[i] or not next_state:
                repeated[i] = True
                done |= low
            else:
                state_acc[i] = next_state
        active &= ~done
        for j in range(n_ffs):
            data = cc.ff_data[j]
            allow0, allow1 = ff_allow[j]
            s0[j] = m0[data] if allow0 else 0
            s1[j] = m1[data] if allow1 else 0
        frame += 1
    return {
        pair: InjectionResult(frames=frames_acc[i],
                              injected={(0, pair[0])},
                              conflict=None, repeated=repeated[i])
        for i, pair in enumerate(batch)}


def extract_same_frame_relations(data: SingleNodeData, db: RelationDB,
                                 *, store_gate_gate: bool = False) -> int:
    """Pair the 0-run and 1-run of every stem frame-by-frame.

    Only pairs with at least one sequential-element endpoint are stored
    unless ``store_gate_gate`` (the paper: gate-gate relations follow from
    gate-FF ones and are not extracted).  Returns the number of relations
    added.
    """
    circuit = db.circuit
    added = 0
    is_ff = circuit.ff_mask()
    stems = {s for s, _v in data.runs}
    for stem in stems:
        run0 = data.runs.get((stem, ZERO))
        run1 = data.runs.get((stem, ONE))
        if run0 is None or run1 is None:
            continue
        depth = min(len(run0.frames), len(run1.frames))
        for frame in range(depth):
            implied0 = data.implied_at(stem, ZERO, frame)
            implied1 = data.implied_at(stem, ONE, frame)
            if not implied0 or not implied1:
                continue
            sequential = frame >= 1
            for a, x in implied0.items():
                a_ff = is_ff[a]
                for b, y in implied1.items():
                    if a == b:
                        continue
                    if not store_gate_gate and not (a_ff or is_ff[b]):
                        continue
                    if db.add(a, inv(x), b, y, source="single",
                              sequential=sequential, warmup=frame):
                        added += 1
    return added


def extract_cross_frame_relations(data: SingleNodeData, circuit: Circuit
                                  ) -> List[Tuple[int, int, int, int, int]]:
    """Stem-to-node cross-frame implications.

    Returns tuples ``(stem, stem_value, node, value, offset)`` meaning
    ``stem=stem_value at T=i  ->  node=value at T=i+offset``.  The paper
    notes these have limited ATPG use (the window must cover the offset)
    but the API exposes them for completeness; the Figure-1 example
    relation ``G1=0 at T=i+1 -> I2=0 at T=i`` is the contrapositive of one
    of these.
    """
    out = []
    for (stem, value), result in data.runs.items():
        for frame in range(len(result.frames)):
            for nid, val in result.implied(frame).items():
                out.append((stem, value, nid, val, frame))
    return out
