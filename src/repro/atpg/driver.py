"""Full-circuit ATPG runs: fault ordering, dropping, statistics.

This is the experiment harness behind the paper's Table 5: run test
generation over the collapsed fault list with a given backtrack limit,
with or without learned knowledge, and report detected / untestable /
aborted counts plus CPU time.

Flow per fault (HITEC-style):

1. faults the structural screen (:mod:`repro.atpg.screen`) proves
   untestable are marked untestable up front: a sound three-valued
   check of excitation and propagation, whose value sets learned tie
   gates narrow (the learning by-product of section 3.2), so it
   contains every tie verdict;
2. PODEM-based sequential test generation (:class:`SequentialATPG`);
3. on success the generated sequence is fault-simulated against all
   remaining faults and every detected fault is dropped -- the paper's
   section 5.2 discussion of "random effects" (faults found by
   simulation that targeted ATPG would abort on) emerges from exactly
   this mechanism.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..circuit.netlist import Circuit
from ..core.engine import LearnResult
from ..core.ties import untestable_faults_from_ties
from ..sim.resident import make_resident_dropper
from .engine import make_atpg
from .faults import Fault, collapse_with_classes
from .screen import screen_untestable


@dataclass
class ATPGStats:
    """Aggregate results of one ATPG run (one Table-5 cell group)."""

    circuit: str
    mode: str
    backtrack_limit: int
    total_faults: int = 0
    detected: int = 0
    untestable: int = 0
    #: The part of ``untestable`` the structural screen settled before
    #: PODEM; the rest are PODEM's own proofs.
    screened: int = 0
    aborted: int = 0
    #: Faults detected by fault simulation of other faults' tests.
    collateral: int = 0
    decisions: int = 0
    backtracks: int = 0
    cpu_s: float = 0.0
    #: Number of test sequences generated (counted even when the vectors
    #: themselves are discarded via ``keep_sequences=False``).
    sequences_total: int = 0
    #: The generated vectors; empty when the run discarded them.
    sequences: List[List[Dict[str, int]]] = field(default_factory=list)

    @property
    def test_coverage(self) -> float:
        """Detected / (total - untestable): the paper's test coverage."""
        testable = self.total_faults - self.untestable
        return self.detected / testable if testable else 1.0

    @property
    def fault_coverage(self) -> float:
        return (self.detected / self.total_faults
                if self.total_faults else 1.0)

    def row(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "mode": self.mode,
            "backtrack_limit": self.backtrack_limit,
            "total": self.total_faults,
            "det": self.detected,
            "untest": self.untestable,
            "screened": self.screened,
            "aborted": self.aborted,
            "test_cov_%": round(100.0 * self.test_coverage, 2),
            "sequences": self.sequences_total,
            "cpu_s": round(self.cpu_s, 3),
        }


def prepare_fault_list(circuit: Circuit,
                       faults: Optional[Sequence[Fault]] = None,
                       max_faults: Optional[int] = None,
                       fill_seed: int = 12345):
    """The one canonical fault-list preparation: collapse + sampling.

    Returns ``(faults, classes)`` exactly as :func:`run_atpg` consumes
    them.  This is a pure function of its arguments (sampling uses its
    own ``Random(fill_seed)``), so every process reconstructs the
    identical list.
    ``classes`` is None when an explicit ``faults`` sequence was given
    (no collapsing happened, so there are no equivalence classes).
    """
    classes = None
    if faults is None:
        faults, classes = collapse_with_classes(circuit)
    faults = list(faults)
    if max_faults is not None and len(faults) > max_faults:
        rng = random.Random(fill_seed)
        faults = rng.sample(faults, max_faults)
        faults.sort(key=lambda f: (f.node, f.pin is not None, f.value))
    return faults, classes


def tie_untestable_indices(circuit: Circuit,
                           learned: Optional[LearnResult],
                           faults: Sequence[Fault],
                           classes=None) -> Set[int]:
    """Indices of faults proved untestable by tie gates alone.

    The paper's section 3.2 count (Table 4).  :func:`run_atpg` pre-marks
    the screen's verdicts instead, a superset of these.  Empty without
    ``learned`` -- the paper's true no-learning baseline never sees
    ties.
    """
    if learned is None:
        return set()
    index_of = {fault: i for i, fault in enumerate(faults)}
    return {index_of[fault]
            for fault in untestable_faults_from_ties(
                circuit, learned.ties, faults, classes)}


def _config_or_default(config):
    """``config``, or ``ATPGConfig()`` when it is ``None``."""
    if config is not None:
        return config
    # Deferred: repro.flow imports this module.
    from ..flow.config import ATPGConfig

    return ATPGConfig()


def run_atpg(circuit: Circuit, *,
             learned: Optional[LearnResult] = None,
             config=None,
             faults: Optional[Sequence[Fault]] = None,
             progress: Optional[Callable[[int, int], None]] = None,
             cancel: Optional[Callable[[], None]] = None
             ) -> ATPGStats:
    """Generate tests for every fault; returns aggregate statistics.

    ``config`` (an :class:`repro.flow.ATPGConfig`; ``None`` means
    ``ATPGConfig()``) carries every knob of the run.  Its ``mode`` is
    'none' (no sequential learning), 'known' or 'forbidden' (the two
    Table-5 learning scenarios).  ``learned`` must be supplied for the
    learning modes; in every mode it is present its ties also narrow
    the structural screen that pre-marks untestable faults -- pass
    ``learned=None`` with ``mode='none'`` for the paper's true
    no-learning baseline.  The screen runs in every mode.
    ``faults`` replaces the collapsed fault list.  The engine and the
    dropper come from the module globals ``make_atpg`` and
    ``make_resident_dropper``, so a test can swap in the reference
    PODEM and the reference simulator; counts, sequences and
    statistics are identical either way.

    ``progress`` (never part of ``config``: it is UI, not data) is
    called as ``progress(targeted, total)`` after each fault the main
    loop targets, so long runs can stream liveness without changing any
    result -- the API layer turns it into
    :class:`~repro.api.events.ProgressEvent` ticks.

    ``cancel`` (UI-adjacent, like ``progress``) is a checkpoint hook
    called before each fault is targeted; to abandon the run it raises
    (the serve tier passes a deadline/disconnect token whose ``check``
    raises a :class:`~repro.api.errors.ReproError`).  A run that is
    never cancelled is unaffected: the hook returning ``None`` costs
    one call per fault.

    This loop is the only place a fault's verdict, its test's random
    fill and its collateral drops are decided: the suite pool and the
    dist tier both run whole circuits through it, so no other copy of
    it has to agree.
    """
    config = _config_or_default(config)
    mode = config.mode
    start = time.perf_counter()
    faults, classes = prepare_fault_list(circuit, faults=faults,
                                         max_faults=config.max_faults,
                                         fill_seed=config.fill_seed)
    stats = ATPGStats(circuit=circuit.name, mode=mode,
                      backtrack_limit=config.backtrack_limit,
                      total_faults=len(faults))
    relations = learned.relations if learned is not None else None
    atpg = make_atpg(circuit,
                     relations=relations if mode != "none" else None,
                     mode=mode, backtrack_limit=config.backtrack_limit,
                     max_frames=config.max_frames)
    rng = random.Random(config.fill_seed)
    input_names = [circuit.nodes[i].name for i in circuit.inputs]

    status: Dict[int, str] = {}
    ties = learned.ties if learned is not None else None
    for index in screen_untestable(circuit, faults, classes, ties):
        status[index] = "untestable"
    stats.screened = len(status)
    remaining: List[int] = [i for i in range(len(faults))
                            if i not in status]
    # One dropper serves the whole loop, retiring each fault once it
    # is decided (detected, proved untestable, or dropped); an aborted
    # fault stays live so a later test can still detect it.
    dropper = make_resident_dropper(circuit, faults, remaining)
    targeted = 0
    for index in list(remaining):
        if cancel is not None:
            cancel()
        targeted += 1
        if status.get(index) is not None:
            if progress is not None:
                progress(targeted, len(remaining))
            continue
        result = atpg.generate(faults[index])
        stats.decisions += result.decisions
        stats.backtracks += result.backtracks
        if result.status == "detected":
            sequence = _fill_sequence(result.sequence, input_names, rng)
            stats.sequences_total += 1
            if config.keep_sequences:
                stats.sequences.append(sequence)
            status[index] = "detected"
            dropper.discard(index)
            # Drop everything else this sequence detects.  The dropper
            # only ever reports live faults -- not yet targeted, or
            # aborted by an earlier search -- and the targeted fault was
            # retired above, so every hit is a collateral detection.
            for hit in dropper.drop(sequence):
                status[hit] = "detected"
                stats.collateral += 1
        else:
            status[index] = result.status
            if result.status != "aborted":
                dropper.discard(index)
        if progress is not None:
            progress(targeted, len(remaining))
    for verdict in status.values():
        if verdict == "detected":
            stats.detected += 1
        elif verdict == "untestable":
            stats.untestable += 1
        else:
            stats.aborted += 1
    stats.aborted += len(faults) - len(status)
    stats.cpu_s = time.perf_counter() - start
    return stats


def _fill_sequence(sequence: List[Dict[str, int]],
                   input_names: List[str],
                   rng: random.Random) -> List[Dict[str, int]]:
    """Complete don't-care PI positions with random values.

    Random fill maximises collateral detections during fault simulation,
    matching production practice (and the paper's observation that some
    faults are only ever caught by simulation of other faults' tests).
    """
    filled = []
    for vector in sequence:
        out = dict(vector)
        for name in input_names:
            out.setdefault(name, rng.randint(0, 1))
        filled.append(out)
    return filled


def compare_modes(circuit: Circuit, learned: LearnResult, *,
                  config=None,
                  backtrack_limits: Optional[Sequence[int]] = None,
                  cancel: Optional[Callable[[], None]] = None
                  ) -> List[ATPGStats]:
    """The full Table-5 protocol for one circuit.

    Runs no-learning, forbidden-value and known-value ATPG at every
    backtrack limit and returns the stats in table order.  ``config``
    (an :class:`repro.flow.ATPGConfig`; ``None`` means ``ATPGConfig()``)
    supplies every other knob of each run; ``backtrack_limits=None``
    means ``(config.backtrack_limit,)``.
    """
    config = _config_or_default(config)
    if backtrack_limits is None:
        backtrack_limits = (config.backtrack_limit,)
    rows = []
    for limit in backtrack_limits:
        for mode, use_learned in (("none", None), ("forbidden", learned),
                                  ("known", learned)):
            rows.append(run_atpg(
                circuit, learned=use_learned,
                config=replace(config, mode=mode, backtrack_limit=limit),
                cancel=cancel))
    return rows
