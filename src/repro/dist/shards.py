"""Fault-list sharding: split one circuit's ATPG across many workers.

:mod:`repro.flow.parallel_suite` shards at *circuit* granularity, so a
single huge circuit still serializes on one core.  This module splits
one circuit's collapsed fault list into deterministic
:class:`FaultShard` units whose results merge back into
:class:`~repro.atpg.driver.ATPGStats` **byte-identical** to a serial
:func:`~repro.atpg.driver.run_atpg` -- the contract the differential
tests gate on.

The serial algorithm is inherently sequential in one place only: after
each generated test, the sequence is random-filled (from a shared RNG)
and fault-simulated against every still-open fault, dropping collateral
detections -- so *which* faults ever get targeted depends on the order
of prior detections.  The distributed scheme therefore splits the work
in two phases:

1. **Speculative generation** (:func:`run_fault_shard`, parallel): each
   shard runs PODEM for *every* fault in its slice, unconditionally, and
   records the raw per-fault :class:`FaultOutcome` (status, decisions,
   backtracks, unfilled sequence).  ``generate(fault)`` is a pure
   function of (circuit, learned knowledge, config, fault) -- per-fault
   results do not depend on generation order -- so shards compute the
   same outcomes a serial run would have, for a superset of the faults
   a serial run targets.
2. **Deterministic replay merge** (:func:`merge_shard_outcomes`): the
   serial loop runs again -- the *actual* loop in ``run_atpg``, via its
   ``generate`` injection point, not a copy -- with generation replaced
   by outcome lookup.  Fill RNG draws, fault-dropping order, collateral
   accounting and abort counting all happen exactly as in a serial run,
   so the merged statistics are equal field-for-field, generated
   vectors included.

The speculation cost is bounded: a serial run skips generation for
faults already dropped by earlier tests, a shard does not.  That waste
buys order-independence -- and PODEM generation dominates fault
simulation on the paper's circuits (about 99 % of the default ATPG
request's time in ``atpgbench``), so sharding still wins wall-clock.

:func:`run_atpg_sharded` wires both phases together in-process; it is
the reference implementation the coordinator/worker runtime
(:mod:`repro.dist.coordinator`) distributes over TCP, and the anchor
the differential tests compare against serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..atpg.driver import (
    ATPGStats,
    prepare_fault_list,
    run_atpg,
    tie_untestable_indices,
)
from ..atpg.engine import TestResult, make_atpg
from ..atpg.faults import Fault, partition_fault_indices
from ..circuit.netlist import Circuit
from ..core.engine import LearnResult
from ..flow.config import ATPGConfig

__all__ = [
    "FaultShard", "FaultOutcome", "make_fault_shards",
    "run_fault_shard", "merge_shard_outcomes", "run_atpg_sharded",
    "MissingOutcomeError",
]


class MissingOutcomeError(KeyError):
    """A strict merge needed an outcome no shard provided."""


@dataclass(frozen=True)
class FaultShard:
    """One slice of a circuit's fault list: a picklable work unit.

    ``fault_indices`` index into the canonical prepared fault list
    (:func:`~repro.atpg.driver.prepare_fault_list`), which every worker
    reconstructs identically from (circuit, config) -- the indices, not
    the fault objects, are the wire vocabulary.
    """

    shard_index: int
    n_shards: int
    fault_indices: Tuple[int, ...]


@dataclass(frozen=True)
class FaultOutcome:
    """Raw result of PODEM on one fault, before any cross-fault merge.

    ``sequence`` is the *unfilled* test (don't-care PI positions
    absent): random fill draws from the merge replay's shared RNG, so
    it cannot happen shard-side without breaking byte-identity.
    """

    status: str  # 'detected' | 'untestable' | 'aborted'
    decisions: int
    backtracks: int
    sequence: Tuple[Dict[str, int], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"status": self.status, "decisions": self.decisions,
                "backtracks": self.backtracks,
                "sequence": [dict(v) for v in self.sequence]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultOutcome":
        return cls(status=data["status"],
                   decisions=int(data["decisions"]),
                   backtracks=int(data["backtracks"]),
                   sequence=tuple({str(k): int(v) for k, v in vec.items()}
                                  for vec in data.get("sequence", ())))

    def to_result(self) -> TestResult:
        return TestResult(status=self.status,
                          sequence=[dict(v) for v in self.sequence],
                          decisions=self.decisions,
                          backtracks=self.backtracks)


def make_fault_shards(n_faults: int, n_shards: int) -> List[FaultShard]:
    """Partition ``n_faults`` into ``n_shards`` deterministic units."""
    return [FaultShard(shard_index=index, n_shards=n_shards,
                       fault_indices=indices)
            for index, indices in enumerate(
                partition_fault_indices(n_faults, n_shards))]


def _shard_config(config: Optional[ATPGConfig],
                  mode: Optional[str]) -> ATPGConfig:
    config = config or ATPGConfig()
    if mode is not None:
        config = replace(config, mode=mode)
    return config.validate()


def run_fault_shard(circuit: Circuit, shard: FaultShard, *,
                    learned: Optional[LearnResult] = None,
                    config: Optional[ATPGConfig] = None,
                    mode: Optional[str] = None,
                    progress: Optional[Callable[[int, int], None]] = None
                    ) -> Dict[int, FaultOutcome]:
    """Phase 1: generate speculatively for every fault in the shard.

    Tie-untestable faults are skipped exactly as the serial loop skips
    them (the merge re-derives the same set, so no outcome is needed).
    Returns ``{fault_index: FaultOutcome}`` for the shard's slice.
    """
    config = _shard_config(config, mode)
    faults, classes = prepare_fault_list(
        circuit, max_faults=config.max_faults,
        fill_seed=config.fill_seed)
    skip = tie_untestable_indices(
        circuit, learned if config.mode != "none" else None,
        faults, classes)
    relations = learned.relations if learned is not None else None
    atpg = make_atpg(circuit, engine=config.atpg_engine,
                     relations=relations if config.mode != "none" else None,
                     mode=config.mode,
                     backtrack_limit=config.backtrack_limit,
                     max_frames=config.max_frames)
    outcomes: Dict[int, FaultOutcome] = {}
    todo = [i for i in shard.fault_indices if i not in skip]
    for done, index in enumerate(todo, start=1):
        if not 0 <= index < len(faults):
            raise IndexError(
                f"shard names fault index {index} but the prepared "
                f"fault list has {len(faults)} faults -- circuit or "
                "config drifted between partition and execution")
        result = atpg.generate(faults[index])
        outcomes[index] = FaultOutcome(
            status=result.status,
            decisions=result.decisions,
            backtracks=result.backtracks,
            sequence=tuple(dict(v) for v in result.sequence))
        if progress is not None:
            progress(done, len(todo))
    return outcomes


def merge_shard_outcomes(circuit: Circuit,
                         outcomes: Dict[int, FaultOutcome], *,
                         learned: Optional[LearnResult] = None,
                         config: Optional[ATPGConfig] = None,
                         mode: Optional[str] = None,
                         strict: bool = False) -> ATPGStats:
    """Phase 2: replay the serial loop with generation pre-answered.

    Runs the *actual* :func:`~repro.atpg.driver.run_atpg` loop through
    its ``generate`` injection point, so dropping, fill RNG and
    statistics are the serial code path, not a reimplementation.  A
    fault the replay targets but no shard answered (a lost shard, or a
    deliberately partial speculation) is generated locally on a lazily
    built engine -- per-fault generation is order-independent, so the
    fallback cannot change the merged result; ``strict=True`` raises
    :class:`MissingOutcomeError` instead, which is how the differential
    tests prove shard coverage is complete.
    """
    config = _shard_config(config, mode)
    learned_for_run = learned if config.mode != "none" else None
    fallback_engine: List[object] = []

    def lookup_indexed(index: int, fault: Fault) -> TestResult:
        outcome = outcomes.get(index)
        if outcome is not None:
            return outcome.to_result()
        if strict:
            raise MissingOutcomeError(
                f"no shard outcome for fault index {index} "
                f"({fault.describe(circuit)})")
        if not fallback_engine:
            relations = (learned.relations if learned is not None
                         else None)
            fallback_engine.append(make_atpg(
                circuit, engine=config.atpg_engine,
                relations=(relations if config.mode != "none"
                           else None),
                mode=config.mode,
                backtrack_limit=config.backtrack_limit,
                max_frames=config.max_frames))
        return fallback_engine[0].generate(fault)

    # run_atpg hands `generate` the fault, not its index; recover the
    # index from the identical prepared list (faults are hashable).
    faults, _ = prepare_fault_list(circuit,
                                   max_faults=config.max_faults,
                                   fill_seed=config.fill_seed)
    index_of = {fault: i for i, fault in enumerate(faults)}

    return run_atpg(
        circuit, learned=learned_for_run, config=config,
        generate=lambda fault: lookup_indexed(index_of[fault], fault))


def run_atpg_sharded(circuit: Circuit, *,
                     learned: Optional[LearnResult] = None,
                     config: Optional[ATPGConfig] = None,
                     mode: Optional[str] = None,
                     n_shards: int = 2,
                     strict: bool = True) -> ATPGStats:
    """Shard, generate and merge in-process: the reference pipeline.

    Statistics (and kept sequences) are byte-identical to
    ``run_atpg(circuit, learned=..., config=...)`` for every
    ``n_shards`` -- the differential tests run exactly this comparison.
    The coordinator/worker runtime distributes the same two phases over
    TCP; this function is what it must agree with.
    """
    config = _shard_config(config, mode)
    faults, _ = prepare_fault_list(circuit,
                                   max_faults=config.max_faults,
                                   fill_seed=config.fill_seed)
    outcomes: Dict[int, FaultOutcome] = {}
    for shard in make_fault_shards(len(faults), n_shards):
        outcomes.update(run_fault_shard(
            circuit, shard, learned=learned, config=config))
    return merge_shard_outcomes(circuit, outcomes, learned=learned,
                                config=config, strict=strict)
