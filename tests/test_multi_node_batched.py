"""Batched compiled multiple-node targets vs per-target event simulation.

``run_multi_node`` runs its targets as bit columns of compiled two-plane
runs unless ``backend='reference'``, which sends each target through the
event-driven :class:`~repro.sim.eventsim.FrameSimulator`.  The contract
is the whole learning result: relations (in order, with their
attributes), ties, equivalences and :class:`MultiNodeStats`, for both
``store_gate_gate`` settings and every batch width.  The corpus is the
backend differential one (random, retimed and multi-clock-domain
netlists) and exercises conflict columns and equivalence re-passes.
"""

import pytest

import repro.core.engine as engine
import repro.core.multi_node as multi_node
from repro.circuit import figure1
from repro.core import LearnConfig, RelationDB, learn
from repro.flow.serialize import learn_result_to_dict
from repro.sim.parallel import exhaustive_masks

from test_backend_differential import CASES, _build

WIDTHS = (1, 7, 64, 128, 257)


def _learn(monkeypatch, circuit, store_gate_gate, backend="compiled",
           width=multi_node.DEFAULT_COMPILED_BATCH):
    """Learn with the compiled backend, the multi-node phase run on
    ``backend`` with ``width`` columns per batch."""
    def run_multi_node(*args, **kwargs):
        return multi_node.run_multi_node(*args,
                                         **{**kwargs, "backend": backend})

    with monkeypatch.context() as patch:
        patch.setattr(engine, "run_multi_node", run_multi_node)
        patch.setattr(multi_node, "DEFAULT_COMPILED_BATCH", width)
        return learn(circuit, LearnConfig(store_gate_gate=store_gate_gate))


def _knowledge(result):
    data = learn_result_to_dict(result)
    del data["elapsed"], data["phase_times"]
    return data


@pytest.mark.parametrize("store_gate_gate", (False, True))
@pytest.mark.parametrize("kind,seed", CASES)
def test_batched_multi_node_identical(monkeypatch, kind, seed,
                                      store_gate_gate):
    circuit = _build(kind, seed)
    width = WIDTHS[(seed + store_gate_gate) % len(WIDTHS)]
    reference = _learn(monkeypatch, circuit, store_gate_gate,
                       backend="reference")
    batched = _learn(monkeypatch, circuit, store_gate_gate,
                     width=width)
    assert _knowledge(batched) == _knowledge(reference)
    assert batched.multi_stats == reference.multi_stats


def test_corpus_exercises_conflicts_and_equivalence_repasses(monkeypatch):
    """The differential corpus is only as good as what it reaches."""
    repasses = []
    patches = multi_node._class_patches

    def counting(*args):
        out = patches(*args)
        repasses.append(out is not None)
        return out

    monkeypatch.setattr(multi_node, "_class_patches", counting)
    conflicts = 0
    for kind, seed in CASES[::5]:
        conflicts += len(_learn(monkeypatch, _build(kind, seed), False)
                         .multi_stats.conflicts)
    assert conflicts > 0
    assert sum(repasses) > 0


@pytest.mark.parametrize("backend", ("compiled", "reference"))
def test_figure1_walkthrough_on_both_paths(backend):
    """F3=0 -> F1=0 needs the coupled ties/equivalences; G15 the
    multi-node conflict (the paper's walkthrough)."""
    result = learn(figure1(), sim_backend=backend)
    assert result.relations.has("F3", 0, "F1", 0)
    assert result.ties.names().get("G15") == 0


class _RecordingDB(RelationDB):
    """A relation database that logs every multi-node insertion."""

    def __init__(self, circuit):
        super().__init__(circuit)
        self.multi_calls = []

    def add(self, a, va, b, vb, **kwargs):
        if kwargs.get("source") == "multi":
            self.multi_calls.append(((a, va), b))
        return super().add(a, va, b, vb, **kwargs)


@pytest.mark.parametrize("backend", ("compiled", "reference"))
def test_relations_per_target_in_ascending_node_id(monkeypatch, backend):
    """Both paths insert one target's relations by ascending node id
    (the order learning artifact format 3 records)."""
    monkeypatch.setattr(engine, "RelationDB", _RecordingDB)
    checked = 0
    for kind, seed in CASES[:40:4]:
        result = learn(_build(kind, seed),
                       LearnConfig(store_gate_gate=True),
                       sim_backend=backend)
        calls = result.relations.multi_calls
        for (target, b), (next_target, next_b) in zip(calls, calls[1:]):
            if target == next_target:
                assert b < next_b, (kind, seed, target)
                checked += 1
    assert checked


def test_run_multi_node_rejects_unknown_backend():
    with pytest.raises(ValueError, match="sim backend"):
        multi_node.run_multi_node(None, None, None, None, backend="gpu")


@pytest.mark.parametrize("n_vars", range(15))
def test_exhaustive_masks_closed_form(n_vars):
    variables = [100 + 3 * j for j in range(n_vars)]
    width = 1 << n_vars
    expected = {}
    for j, var in enumerate(variables):
        mask = 0
        for i in range(width):
            if (i >> j) & 1:
                mask |= 1 << i
        expected[var] = mask
    assert exhaustive_masks(variables, width) == expected
