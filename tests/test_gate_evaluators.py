"""Compiled per-gate evaluators against the interpreters they replace.

:func:`repro.sim.compiled.compile_gate_evaluators` gives the incremental
PODEM engine's event wavefront one good-plane and one faulty-plane
evaluator per gate, built from the frame kernel's three-valued tables.
Here every opcode -- one-input AND/OR/XOR and their inverting forms,
BUF, NOT and the TIE gates included -- at arities 1 to 4 is checked on
every three-valued input vector against :func:`eval_gate` and the
reference engine's :func:`_good_value` / :func:`_faulty_value`, with
each fanin read from the good plane or from a faulty-plane entry, on
schedules compiled in one piece and split into chunks.
"""

import itertools

import pytest

from repro.atpg.engine import _faulty_value, _good_value
from repro.circuit.gates import ONE, X, ZERO, eval_gate
from repro.sim import compiled

VALUES = (ZERO, ONE, X)
#: Four source nodes (ids 0-3) feed every gate.
SOURCES = 4

_GATE_TYPE = {op: t for t, op in compiled._OPCODE_OF.items()}
_ARITIES = {compiled.OP_TIE0: (0,), compiled.OP_TIE1: (0,),
            compiled.OP_NOT: (1,), compiled.OP_BUF: (1,)}


def _schedule():
    """One gate per (opcode, arity), reading sources ``0..arity-1``."""
    schedule = []
    for op in sorted(_GATE_TYPE):
        for arity in _ARITIES.get(op, (1, 2, 3, 4)):
            schedule.append((op, SOURCES + len(schedule),
                             tuple(range(arity))))
    return schedule


SCHEDULE = _schedule()
N = SOURCES + len(SCHEDULE)


@pytest.fixture(params=[None, 1, 5], ids=["unchunked", "chunk1", "chunk5"])
def evaluators(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(compiled, "_CHUNK_GATES", request.param)
    return compiled.compile_gate_evaluators(SCHEDULE, N)


def test_schedule_covers_every_opcode_and_arity():
    shapes = {(op, len(fis)) for op, _nid, fis in SCHEDULE}
    assert {op for op, _arity in shapes} == set(_GATE_TYPE)
    for op in (compiled.OP_AND, compiled.OP_NAND, compiled.OP_OR,
               compiled.OP_NOR, compiled.OP_XOR, compiled.OP_XNOR):
        assert {arity for o, arity in shapes if o == op} == {1, 2, 3, 4}


def test_evaluators_indexed_by_node(evaluators):
    good, faulty = evaluators
    assert len(good) == len(faulty) == N
    assert good[:SOURCES] == faulty[:SOURCES] == [None] * SOURCES
    assert all(g is not None and f is not None
               for g, f in zip(good[SOURCES:], faulty[SOURCES:]))


def test_good_evaluators_exhaustive(evaluators):
    good, _faulty = evaluators
    for op, nid, fis in SCHEDULE:
        t = _GATE_TYPE[op]
        for vals in itertools.product(VALUES, repeat=len(fis)):
            gv = list(vals) + [X] * (N - len(vals))
            expect = eval_gate(t, vals)
            assert _good_value(t, fis, gv) == expect
            assert good[nid](gv) == expect, (t, vals)


def test_faulty_evaluators_exhaustive(evaluators):
    """Each fanin reads its faulty-plane entry (any value) if it has
    one, else its good value."""
    _good, faulty = evaluators
    for op, nid, fis in SCHEDULE:
        t = _GATE_TYPE[op]
        for vals in itertools.product(VALUES, repeat=len(fis)):
            gv = list(vals) + [X] * (N - len(vals))
            for entries in itertools.product((None,) + VALUES,
                                             repeat=len(fis)):
                fv = {f: e for f, e in zip(fis, entries) if e is not None}
                seen = [v if e is None else e
                        for v, e in zip(vals, entries)]
                expect = eval_gate(t, seen)
                assert _faulty_value(t, fis, gv, fv) == expect
                assert faulty[nid](gv, fv) == expect, (t, vals, fv)
                assert fv == {f: e for f, e in zip(fis, entries)
                              if e is not None}  # read, never written

