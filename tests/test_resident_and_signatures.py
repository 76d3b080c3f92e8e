"""Wide learning signatures + resident fault dropping.

Two contracts under test:

* **Signatures are backend-invariant at any width.**
  :func:`repro.sim.parallel.signatures` must produce byte-identical
  node masks through the reference interpreters and the compiled
  straight-line kernels at both the historical 256-bit width and a
  wide 4096-bit one.

* **Dropping never changes a detection outcome.**  A fault the
  :mod:`repro.sim.resident` dropper has retired (by hit or discard)
  must never be reported again (no resurrection), and the cumulative
  hit sets must match on both backends at every batch width.
"""

import random

import pytest

from repro.atpg.faults import collapse_faults
from repro.circuit import industrial_like, random_circuit, s27
from repro.sim.parallel import signatures
from repro.sim.resident import SubsetResidentDropper, make_resident_dropper

#: The two signature widths: the paper's historical 256 and a wide
#: 4096 that spans many machine words.
SIGNATURE_WIDTHS = (256, 4096)


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
        assert signatures(circuit, width=width, rng=random.Random(99),
                          backend="compiled") == ref


# ----------------------------------------------------------------------
# resident dropping: no resurrection, backend and width independence
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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("width", (None, 7))
def test_resident_dropper_matches_subset_slicing(seed, width):
    """Cumulative compiled-dropper hits == the reference dropper's,
    sequence by sequence.  ``width=7`` forces many small batches on the
    same corpus."""
    circuit, faults, sequences = _drop_case(seed)
    live = list(range(len(faults)))
    compiled = make_resident_dropper(circuit, faults, live, width=width)
    reference = SubsetResidentDropper(circuit, faults, live,
                                      backend="reference")
    for sequence in sequences:
        assert (sorted(compiled.drop(sequence))
                == sorted(reference.drop(sequence)))
    assert compiled.stats()["drop_hits"] == reference.stats()["drop_hits"]


def test_dropped_fault_never_resurrects():
    """Once a fault is dropped (by hit or discard) no later ``drop``
    call may report it again."""
    circuit, faults, sequences = _drop_case(1)
    live = list(range(len(faults)))
    dropper = make_resident_dropper(circuit, faults, live, width=5)
    retired = set()
    # Interleave external discards with drops so both retirement paths
    # run against the same corpus.
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
    assert dropper.stats()["live"] == len(faults) - len(retired)
    # Everything retired: every further drop is a no-op.
    for index in live:
        dropper.discard(index)
    assert dropper.stats()["live"] == 0
    assert dropper.drop(sequences[0]) == []


def test_make_resident_dropper_dispatch():
    circuit, faults, _ = _drop_case(0)
    live = list(range(len(faults)))
    for backend in ("reference", "compiled"):
        dropper = make_resident_dropper(circuit, faults, live,
                                        backend=backend)
        assert isinstance(dropper, SubsetResidentDropper)
        assert dropper.stats()["backend"] == backend
    # Schema version 6 removed the 'array' backend.
    for backend in ("vhdl", "array"):
        with pytest.raises(ValueError):
            make_resident_dropper(circuit, faults, live, backend=backend)
