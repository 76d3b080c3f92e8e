"""Resident fault-dropping simulators for the ATPG driver.

:func:`repro.atpg.driver.run_atpg` fault-simulates every generated
sequence against the still-open faults so collateral detections drop
out of the target list (HITEC-style dropping).  Re-slicing the open
subset per sequence is what made that loop simulation-bound on the
array backend: the subset shrinks after almost every sequence, so the
batch composition -- and with it the cache key of every injection plan
in :meth:`~repro.sim.array_backend.ArrayFaultSimulator._plan_for` --
changed on every call, and the plans (splice tables, virtual-branch
routing, fanin overrides) were rebuilt from scratch each time.

A *resident dropper* instead freezes the fault batches once, at the
start of the run, and keeps them (plans included) alive across the
whole dropping loop:

* dropped faults keep their machine column but are **compacted in
  place** -- their column bit is pre-seeded into the run's detection
  mask, so they are never reported again, cost nothing at detection
  time, and let the all-detected early exit fire on live machines
  alone (a dropped fault can never resurface by construction);
* the fault-free good machine runs once per sequence and its output
  frames are shared by every batch;
* when at least half the original columns have been dropped the
  batches are **repacked** over the survivors, so plan work over the
  whole run stays O(total columns) while late, mostly-empty batches
  shrink back to dense ones.

Droppers are owned by one driver loop and are deliberately
single-threaded (no locks): each ``run_atpg`` call builds its own.

The reference and compiled backends keep their historical per-call
subset slicing behind the same interface -- their per-batch setup is a
few bigint dict folds, not worth freezing -- so the driver code is
backend-agnostic and the detection sets (and therefore every
:class:`~repro.atpg.driver.ATPGStats` field) stay bit-identical across
all three backends by the same batch-independence contract the
differential harness enforces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from . import array_backend
from .array_backend import ArrayFaultSimulator, _np
from .compiled import SIM_BACKENDS, make_fault_simulator

__all__ = ["ArrayResidentDropper", "SubsetResidentDropper",
           "make_resident_dropper"]


class _ResidentBatch:
    """One frozen column batch: global fault indices + injection plan."""

    __slots__ = ("indices", "plan", "det", "live")

    def __init__(self, indices: List[int], plan, det, live: int):
        self.indices = indices
        self.plan = plan
        self.det = det      # pre-seeded detection mask (uint64 row)
        self.live = live


class ArrayResidentDropper:
    """Persistent live-fault array simulator for one dropping loop.

    ``faults`` is the run's canonical fault list, ``live`` the indices
    into it that are still open when the dropper is built (ascending).
    ``drop`` simulates one sequence against every live column and
    returns the newly-detected global indices (removing them);
    ``discard`` retires a column whose verdict was decided elsewhere
    (the targeted fault itself, whatever its outcome).
    """

    def __init__(self, circuit: Circuit, faults: Sequence, live:
                 Sequence[int], width: Optional[int] = None):
        self._sim = ArrayFaultSimulator(circuit, width=width)
        self._faults = faults
        self.width = self._sim.width
        self.drop_calls = 0
        self.drop_hits = 0
        self.repacks = 0
        self._build(list(live))

    # ------------------------------------------------------------------
    def _build(self, live: List[int]) -> None:
        """(Re)pack ``live`` into dense width-wide column batches."""
        sim = self._sim
        faults = self._faults
        self._batches: List[_ResidentBatch] = []
        #: global fault index -> (batch position, column) while live.
        self._pos: Dict[int, tuple] = {}
        self.capacity = len(live)
        self.live_count = len(live)
        for start in range(0, len(live), self.width):
            indices = live[start:start + self.width]
            batch = [faults[i] for i in indices]
            plan = sim._plan_for(batch)
            det = _np.zeros(plan.words, dtype=_np.uint64)
            rb = _ResidentBatch(indices, plan, det, len(indices))
            for col, gidx in enumerate(indices):
                self._pos[gidx] = (rb, col)
            self._batches.append(rb)

    def _retire(self, index: int) -> None:
        rb, col = self._pos.pop(index)
        rb.det[col >> 6] |= _np.uint64(1 << (col & 63))
        rb.live -= 1
        self.live_count -= 1

    def _maybe_repack(self) -> None:
        # Halving rule: total plan-(re)build work stays linear in the
        # original column count, while batches become dense again once
        # dropping has hollowed them out.
        if self.live_count and self.live_count <= self.capacity // 2:
            self.repacks += 1
            self._build(sorted(self._pos))

    # ------------------------------------------------------------------
    def discard(self, index: int) -> None:
        """Retire one column decided outside the dropper (if live)."""
        if index in self._pos:
            self._retire(index)
            self._maybe_repack()

    def drop(self, sequence: Sequence[Dict[str, int]]) -> List[int]:
        """Newly-detected global fault indices for one sequence."""
        self.drop_calls += 1
        if not self.live_count or not sequence:
            return []
        sequence = list(sequence)
        sim = self._sim
        # One good machine serves every batch of this sequence.
        good_frames = sim._good_output_frames(sequence)
        hits: List[int] = []
        for rb in self._batches:
            if not rb.live:
                continue
            locals_ = sim._run_plan(sequence, rb.plan, good_frames,
                                    pre_det=rb.det)
            for col in locals_:
                hits.append(rb.indices[col])
        for index in hits:
            self._retire(index)
        self.drop_hits += len(hits)
        self._maybe_repack()
        return hits

    def stats(self) -> Dict[str, int]:
        """Counters for benches and the regression tests."""
        return {"backend": "array", "drop_calls": self.drop_calls,
                "drop_hits": self.drop_hits, "repacks": self.repacks,
                "batches": len(self._batches), "live": self.live_count,
                "capacity": self.capacity,
                "plan_cache_misses": self._sim.plan_cache_misses}


class SubsetResidentDropper:
    """Reference/compiled dropper: historical per-call subset slicing.

    Same interface as :class:`ArrayResidentDropper`; each ``drop``
    re-slices the live subset exactly the way the driver loop used to,
    so behavior (and batch composition) on these backends is unchanged.
    """

    def __init__(self, circuit: Circuit, faults: Sequence,
                 live: Sequence[int], backend: str = "compiled",
                 width: Optional[int] = None):
        self._sim = make_fault_simulator(circuit, width=width,
                                         backend=backend)
        self._backend = backend
        self._faults = faults
        self._live = set(live)
        self.drop_calls = 0
        self.drop_hits = 0

    def discard(self, index: int) -> None:
        self._live.discard(index)

    def drop(self, sequence: Sequence[Dict[str, int]]) -> List[int]:
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
        return {"backend": self._backend,
                "drop_calls": self.drop_calls,
                "drop_hits": self.drop_hits, "repacks": 0,
                "batches": 0, "live": len(self._live),
                "capacity": len(self._live)}


def make_resident_dropper(circuit: Circuit, faults: Sequence,
                          live: Sequence[int], *,
                          backend: str = "compiled",
                          width: Optional[int] = None):
    """Dropper factory over :data:`~repro.sim.compiled.SIM_BACKENDS`.

    ``backend='array'`` builds the resident column engine, or the
    compiled subset dropper when numpy is absent; 'reference' and
    'compiled' get the subset dropper.  ``width`` is a pure batch
    packing knob (``None`` = backend default) and never changes any
    detection set.
    """
    if backend == "array":
        if array_backend.HAVE_NUMPY:
            return ArrayResidentDropper(circuit, faults, live, width=width)
        backend = "compiled"
    if backend not in SIM_BACKENDS:
        raise ValueError(f"unknown sim backend {backend!r}; "
                         f"expected one of {SIM_BACKENDS}")
    return SubsetResidentDropper(circuit, faults, live,
                                 backend=backend, width=width)

