"""Wide learning signatures + resident fault dropping.

Two contracts under test:

* **Signatures are backend-invariant at any width.**
  :func:`repro.sim.parallel.signatures` must produce byte-identical
  node masks through the reference interpreters and the compiled
  straight-line kernels (which ``backend='array'`` also runs) at both
  the historical 256-bit width and the 4096-bit array word width.

* **Resident dropping never changes a detection outcome.**  The
  :mod:`repro.sim.resident` droppers freeze fault batches and compact
  dropped columns in place; a dropped fault must never be reported
  again (no resurrection), and the cumulative hit sets must match the
  historical per-call subset slicing on every backend, with repacking
  forced and without.
"""

import random

import pytest

from repro.atpg.faults import collapse_faults
from repro.circuit import industrial_like, random_circuit, s27
from repro.sim.array_backend import HAVE_NUMPY
from repro.sim.parallel import signatures
from repro.sim.resident import (
    ArrayResidentDropper,
    SubsetResidentDropper,
    make_resident_dropper,
)

#: The two signature widths the learning engine runs at: the paper's
#: historical 256 and the array backend's 4096-bit word width.
SIGNATURE_WIDTHS = (256, 4096)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="the array backend needs numpy")


def _circuits():
    return [
        random_circuit("sig_r0", n_inputs=5, n_outputs=4, n_ffs=6,
                       n_gates=40, seed=3),
        industrial_like("sig_i0", n_domains=2, n_ffs=10, n_gates=60,
                        seed=11),
        s27(),
    ]


# ----------------------------------------------------------------------
# learning signatures across backends x widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width", SIGNATURE_WIDTHS)
def test_signatures_identical_across_backends(width):
    for circuit in _circuits():
        ref = signatures(circuit, width=width,
                         rng=random.Random(99), backend="reference")
        for backend in ("compiled", "array"):
            assert signatures(circuit, width=width,
                              rng=random.Random(99),
                              backend=backend) == ref


# ----------------------------------------------------------------------
# resident dropping: compaction, no resurrection, repack
# ----------------------------------------------------------------------
def _drop_case(seed):
    circuit = industrial_like(f"drop_i{seed}", n_domains=2,
                              n_ffs=8 + 4 * (seed % 3),
                              n_gates=60 + 20 * (seed % 2), seed=seed)
    faults = collapse_faults(circuit)
    rng = random.Random(seed)
    names = [circuit.nodes[i].name for i in circuit.inputs]
    sequences = [[{n: rng.randint(0, 1) for n in names}
                  for _ in range(3 + rng.randrange(5))]
                 for _ in range(12)]
    return circuit, faults, sequences


@needs_numpy
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("width", (None, 7))
def test_resident_dropper_matches_subset_slicing(seed, width):
    """Cumulative array-resident hits == historical subset slicing on
    the reference backend, sequence by sequence.  ``width=7`` forces
    many small batches (and repacks) on the same corpus."""
    circuit, faults, sequences = _drop_case(seed)
    live = list(range(len(faults)))
    resident = ArrayResidentDropper(circuit, faults, live, width=width)
    subset = SubsetResidentDropper(circuit, faults, live,
                                   backend="reference")
    for sequence in sequences:
        assert (sorted(resident.drop(sequence))
                == sorted(subset.drop(sequence)))
    assert resident.stats()["drop_hits"] == subset.stats()["drop_hits"]


@needs_numpy
def test_dropped_fault_never_resurrects():
    """Column compaction: once a fault is dropped (by hit or discard)
    no later ``drop`` call may report it again -- even after repacking
    rebuilds every batch."""
    circuit, faults, sequences = _drop_case(1)
    live = list(range(len(faults)))
    dropper = ArrayResidentDropper(circuit, faults, live, width=5)
    retired = set()
    # Interleave external discards with drops so both retirement paths
    # (and the halving-rule repack) run against the same corpus.
    discard_iter = iter(sorted(live, reverse=True))
    for sequence in sequences * 3:
        hits = dropper.drop(sequence)
        assert not (set(hits) & retired), "resurrected dropped fault"
        assert len(set(hits)) == len(hits)
        retired.update(hits)
        for index in discard_iter:
            if index not in retired:
                dropper.discard(index)
                retired.add(index)
                break
    stats = dropper.stats()
    assert stats["live"] == len(faults) - len(retired)
    # Force the halving-rule repack by discarding past the threshold,
    # then prove compaction survives the rebuild: repacked batches must
    # still never report anything retired before the repack.
    for index in live:
        if dropper.stats()["live"] <= max(2, len(faults) // 3):
            break
        if index not in retired:
            dropper.discard(index)
            retired.add(index)
    assert dropper.stats()["repacks"] >= 1
    for sequence in sequences:
        hits = dropper.drop(sequence)
        assert not (set(hits) & retired), "resurrected after repack"
        retired.update(hits)
    # Everything retired: every further drop is a no-op.
    for index in list(live):
        dropper.discard(index)
    assert dropper.stats()["live"] == 0
    assert dropper.drop(sequences[0]) == []


def test_make_resident_dropper_dispatch():
    circuit, faults, _ = _drop_case(0)
    live = list(range(len(faults)))
    assert isinstance(
        make_resident_dropper(circuit, faults, live, backend="array"),
        ArrayResidentDropper if HAVE_NUMPY else SubsetResidentDropper)
    for backend in ("reference", "compiled"):
        dropper = make_resident_dropper(circuit, faults, live,
                                        backend=backend)
        assert isinstance(dropper, SubsetResidentDropper)
        assert dropper.stats()["backend"] == backend
    with pytest.raises(ValueError):
        make_resident_dropper(circuit, faults, live, backend="vhdl")
