"""Fault dropper for the ATPG driver's dropping loop.

:func:`repro.atpg.driver.run_atpg` fault-simulates every generated
sequence against the still-open faults so collateral detections drop
out of the target list (HITEC-style dropping).  One dropper serves the
whole loop: ``drop`` simulates a sequence against the live subset and
retires what it detects, ``discard`` retires a fault decided elsewhere
(the targeted fault itself, whatever its outcome).  A retired fault is
never reported again.

Detection sets -- and therefore every
:class:`~repro.atpg.driver.ATPGStats` field -- are identical on both
backends, by the same contract the differential harness enforces.
Droppers are owned by one driver loop and are deliberately
single-threaded (no locks): each ``run_atpg`` call builds its own.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..circuit.netlist import Circuit
from .compiled import make_fault_simulator

__all__ = ["SubsetResidentDropper", "make_resident_dropper"]


class SubsetResidentDropper:
    """Per-call subset slicing over one fault simulator.

    ``faults`` is the run's canonical fault list, ``live`` the indices
    into it that are still open when the dropper is built.  Each
    ``drop`` slices the live subset in ascending index order and
    returns the newly-detected global indices (removing them).
    """

    def __init__(self, circuit: Circuit, faults: Sequence,
                 live: Sequence[int], backend: str = "compiled"):
        self._sim = make_fault_simulator(circuit, backend=backend)
        self._backend = backend
        self._faults = faults
        self._live = set(live)
        self.drop_calls = 0
        self.drop_hits = 0

    def discard(self, index: int) -> None:
        """Retire one fault decided outside the dropper (if live)."""
        self._live.discard(index)

    def drop(self, sequence: Sequence[Dict[str, int]]) -> List[int]:
        """Newly-detected global fault indices for one sequence."""
        self.drop_calls += 1
        if not self._live:
            return []
        open_indices = sorted(self._live)
        subset = [self._faults[i] for i in open_indices]
        hits = [open_indices[local]
                for local in self._sim.detected(sequence, subset)]
        for index in hits:
            self._live.discard(index)
        self.drop_hits += len(hits)
        return hits

    def stats(self) -> Dict[str, int]:
        """Counters for the regression tests."""
        return {"backend": self._backend,
                "drop_calls": self.drop_calls,
                "drop_hits": self.drop_hits, "live": len(self._live)}


def make_resident_dropper(circuit: Circuit, faults: Sequence,
                          live: Sequence[int], *,
                          backend: str = "compiled"
                          ) -> SubsetResidentDropper:
    """Dropper factory over :data:`~repro.sim.compiled.SIM_BACKENDS`.

    An unknown ``backend`` raises :class:`ValueError`.
    """
    return SubsetResidentDropper(circuit, faults, live, backend=backend)
