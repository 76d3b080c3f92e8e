"""The sequential learning engine -- the paper's main contribution.

:class:`SequentialLearner` orchestrates the phases:

1. classify sequential elements into clock-domain classes (section 3.3.2);
2. per class: **single-node learning** -- inject 0/1 on every fanout stem,
   forward-simulate up to ``max_frames`` (paper: 50) frames, extract
   same-frame relations by the contrapositive law (section 3.1);
3. **tie extraction** from phase 2 plus constant propagation
   (section 3.2);
4. **gate-equivalence identification** via parallel patterns with exact
   verification (section 3.1);
5. per class: **multiple-node learning** with ties and equivalences
   coupled into the simulator, finding further relations and proving
   more tie gates through conflicts.

The result carries the relation database (invalid-state FF-FF relations
plus gate-FF relations), the tie set, timing, and a Monte-Carlo
:meth:`LearnResult.validate` oracle used heavily by the test suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..circuit.gates import ONE, X, ZERO, inv
from ..circuit.netlist import Circuit
from ..sim.eventsim import Coupling, FrameSimulator, simulate_sequence
from .clock_domains import learning_passes
from .equivalence import coupling_from, find_equivalences
from .multi_node import MultiNodeStats, run_multi_node
from .relations import RelationDB
from .single_node import (
    SingleNodeData,
    extract_same_frame_relations,
    run_single_node,
)
from .ties import TieSet, propagate_tie_constants, ties_from_single_node


@dataclass
class LearnConfig:
    """Knobs of the learning engine (defaults follow the paper)."""

    #: Maximum forward-simulation depth (the paper uses 50).
    max_frames: int = 50
    #: Run the multiple-node phase.
    use_multi_node: bool = True
    #: Identify and couple combinationally equivalent gates.
    use_equivalence: bool = True
    #: Store gate-gate relations too (the paper does not).
    store_gate_gate: bool = False
    #: Patterns for equivalence candidate signatures.
    equivalence_width: int = 256
    #: Exact-verification support limit for equivalences.
    equivalence_max_support: int = 14
    #: Cap multiple-node targets (None = all); biggest justification
    #: sets first.  Used to bound runtime on very large circuits.
    multi_node_max_targets: Optional[int] = None
    #: Random seed for equivalence patterns.
    seed: int = 20260611

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (every field, defaults included)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class LearnResult:
    """Everything the learning engine extracted."""

    circuit: Circuit
    config: LearnConfig
    relations: RelationDB
    ties: TieSet
    equivalences: Dict[int, Tuple[int, int]]
    single_node_data: Dict[Tuple, SingleNodeData]
    multi_stats: MultiNodeStats
    elapsed: float = 0.0
    phase_times: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def counts(self, sequential_only: bool = True) -> Dict[str, int]:
        """Table-3 style relation counts."""
        return self.relations.counts(sequential_only=sequential_only)

    def summary(self) -> Dict[str, object]:
        counts = self.counts(sequential_only=True)
        return {
            "circuit": self.circuit.name,
            "ffs": self.circuit.num_ffs,
            "gates": self.circuit.num_gates,
            "ff_ff_relations": counts["ff_ff"],
            "gate_ff_relations": counts["gate_ff"],
            "ties": len(self.ties),
            "equiv_gates": len(self.equivalences),
            "cpu_s": round(self.elapsed, 4),
        }

    # ------------------------------------------------------------------
    def validate(self, n_sequences: int = 50, seq_len: int = 12,
                 rng: Optional[random.Random] = None) -> List[str]:
        """Monte-Carlo soundness oracle.

        Simulates random fully-specified input sequences from random
        initial states and checks every learned relation (at frames past
        its warm-up) and every tie.  Returns a list of violation
        descriptions -- empty means no counterexample found.  This is the
        property the whole technique stands on: learned information must
        *never* contradict real circuit behaviour.
        """
        rng = rng or random.Random(0xC0FFEE)
        circuit = self.circuit
        violations: List[str] = []
        input_names = [circuit.nodes[i].name for i in circuit.inputs]
        ff_names = [circuit.nodes[f].name for f in circuit.ffs]
        relations = list(self.relations)
        tie_items = self.ties.all()
        max_warmup = max(
            [r.warmup for r in relations] + [t.warmup for t in tie_items]
            + [0])
        for _ in range(n_sequences):
            sequence = [{name: rng.randint(0, 1) for name in input_names}
                        for _ in range(seq_len + max_warmup)]
            init = {name: rng.randint(0, 1) for name in ff_names}
            frames = simulate_sequence(circuit, sequence, init_state=init)
            for t, values in enumerate(frames):
                for relation in relations:
                    if t < relation.warmup:
                        continue
                    a = circuit.nodes[relation.a].name
                    b = circuit.nodes[relation.b].name
                    va, vb = values[a], values[b]
                    if va == relation.va and vb not in (relation.vb, X):
                        violations.append(
                            f"frame {t}: {a}={va} but {b}={vb}, "
                            f"violates {a}={relation.va}->{b}={relation.vb}")
                for tie in tie_items:
                    if t < tie.warmup:
                        continue
                    name = circuit.nodes[tie.nid].name
                    have = values[name]
                    if have not in (tie.value, X):
                        violations.append(
                            f"frame {t}: tie {name}={tie.value} violated "
                            f"(saw {have})")
            if violations:
                break
        return violations


class SequentialLearner:
    """Run the full learning flow on one circuit.

    ``sim_backend`` selects the pattern simulator behind equivalence
    signatures and the plane evaluator behind batched single-node runs
    ('reference' or 'compiled', see :mod:`repro.sim.compiled`);
    learned knowledge is bit-identical for every backend.
    """

    def __init__(self, circuit: Circuit,
                 config: Optional[LearnConfig] = None,
                 sim_backend: str = "compiled"):
        self.circuit = circuit
        self.config = config or LearnConfig()
        self.sim_backend = sim_backend

    # ------------------------------------------------------------------
    def learn(self) -> LearnResult:
        cfg = self.config
        circuit = self.circuit
        start = time.perf_counter()
        phase_times: Dict[str, float] = {}
        db = RelationDB(circuit)
        ties = TieSet(circuit)
        passes = learning_passes(circuit)
        single_data: Dict[Tuple, SingleNodeData] = {}

        # Phase 1: single-node learning, one pass per clock-domain class.
        t0 = time.perf_counter()
        for key, active in passes:
            simulator = FrameSimulator(circuit, active_ffs=active)
            data = run_single_node(simulator, max_frames=cfg.max_frames,
                                   backend=self.sim_backend)
            single_data[key] = data
            extract_same_frame_relations(
                data, db, store_gate_gate=cfg.store_gate_gate)
        if not passes:  # purely combinational circuit
            simulator = FrameSimulator(circuit)
            data = run_single_node(simulator, max_frames=1,
                                   backend=self.sim_backend)
            single_data[("comb", 0, "none")] = data
            extract_same_frame_relations(
                data, db, store_gate_gate=cfg.store_gate_gate)
        phase_times["single_node"] = time.perf_counter() - t0

        # Phase 2: ties from phase 1 + constant propagation.
        t0 = time.perf_counter()
        for data in single_data.values():
            ties_from_single_node(data, circuit, ties)
        propagate_tie_constants(circuit, ties, max_frames=cfg.max_frames)
        phase_times["ties"] = time.perf_counter() - t0

        # Phase 3: gate equivalences.
        t0 = time.perf_counter()
        equivalences: Dict[int, Tuple[int, int]] = {}
        if cfg.use_equivalence:
            equivalences = find_equivalences(
                circuit, ties,
                width=cfg.equivalence_width,
                max_support=cfg.equivalence_max_support,
                rng=random.Random(cfg.seed),
                backend=self.sim_backend)
        phase_times["equivalence"] = time.perf_counter() - t0

        # Phase 4: multiple-node learning with coupled knowledge.
        t0 = time.perf_counter()
        multi_stats = MultiNodeStats()
        if cfg.use_multi_node:
            coupling = coupling_from(ties, equivalences)
            for key, active in passes or [(("comb", 0, "none"), set())]:
                simulator = FrameSimulator(circuit, coupling,
                                           active_ffs=active or None)
                data = single_data[key]
                stats = run_multi_node(
                    simulator, data, db, ties,
                    max_frames=cfg.max_frames,
                    max_targets=cfg.multi_node_max_targets,
                    store_gate_gate=cfg.store_gate_gate)
                multi_stats.targets_run += stats.targets_run
                multi_stats.targets_skipped += stats.targets_skipped
                multi_stats.relations_added += stats.relations_added
                multi_stats.ties_found += stats.ties_found
                multi_stats.conflicts.extend(stats.conflicts)
        phase_times["multi_node"] = time.perf_counter() - t0

        result = LearnResult(
            circuit=circuit, config=cfg, relations=db, ties=ties,
            equivalences=equivalences, single_node_data=single_data,
            multi_stats=multi_stats,
            elapsed=time.perf_counter() - start,
            phase_times=phase_times)
        return result


def learn(circuit: Circuit, config: Optional[LearnConfig] = None,
          sim_backend: str = "compiled") -> LearnResult:
    """Convenience one-shot: ``learn(circuit).relations`` etc."""
    return SequentialLearner(circuit, config, sim_backend).learn()
