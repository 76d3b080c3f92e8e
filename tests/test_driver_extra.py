"""ATPG driver details: fill, dropping, compare_modes protocol."""

import random

import pytest

from repro.circuit import figure1, s27
from repro.core import learn
from repro.atpg import collapse_faults, compare_modes, run_atpg
from repro.atpg.driver import _fill_sequence
from repro.flow import ATPGConfig
from repro.sim import fault_simulate


def test_fill_sequence_completes_dont_cares():
    rng = random.Random(0)
    filled = _fill_sequence([{"a": 1}, {}], ["a", "b"], rng)
    assert filled[0]["a"] == 1
    assert filled[0]["b"] in (0, 1)
    assert set(filled[1]) == {"a", "b"}


def test_fill_preserves_assigned_values():
    rng = random.Random(0)
    for _ in range(10):
        filled = _fill_sequence([{"a": 0, "b": 1}], ["a", "b", "c"], rng)
        assert filled[0]["a"] == 0 and filled[0]["b"] == 1


def test_generated_sequences_detect_their_faults():
    """Driver-level cross-check: stored sequences detect something."""
    c = s27()
    faults = collapse_faults(c)
    stats = run_atpg(c, config=ATPGConfig(
        mode="none", backtrack_limit=1000, keep_sequences=True))
    assert stats.sequences
    for sequence in stats.sequences:
        assert fault_simulate(c, sequence, faults), sequence


def test_compare_modes_protocol_order():
    c = figure1()
    learned = learn(c)
    rows = compare_modes(c, learned,
                         config=ATPGConfig(max_frames=4, max_faults=12),
                         backtrack_limits=(5,))
    assert [r.mode for r in rows] == ["none", "forbidden", "known"]
    assert all(r.backtrack_limit == 5 for r in rows)
    assert all(r.total_faults == 12 for r in rows)


def test_explicit_fault_list_respected():
    c = s27()
    faults = collapse_faults(c)[:5]
    stats = run_atpg(c, faults=faults, config=ATPGConfig(
        mode="none", backtrack_limit=100, max_frames=8))
    assert stats.total_faults == 5


def test_deterministic_given_seed():
    c = figure1()
    config = ATPGConfig(mode="none", backtrack_limit=10, max_frames=4,
                        fill_seed=3, max_faults=15)
    a = run_atpg(c, config=config)
    b = run_atpg(c, config=config)
    assert a.detected == b.detected
    assert a.untestable == b.untestable
    assert a.aborted == b.aborted


def test_aborted_fault_credited_when_a_later_test_detects_it(monkeypatch):
    """An aborted fault stays live in the dropper: a test generated for
    a later fault that detects it counts it as detected."""
    import repro.atpg.driver as driver
    from repro.atpg.driver import prepare_fault_list
    from repro.atpg.engine import TestResult

    real = driver.make_atpg

    def first_search_aborts(*args, **kwargs):
        engine = real(*args, **kwargs)
        generate = engine.generate
        calls = []

        def forced(fault):
            calls.append(fault)
            if len(calls) == 1:
                return TestResult(status="aborted")
            return generate(fault)

        engine.generate = forced
        return engine

    c = s27()
    config = ATPGConfig(mode="none", keep_sequences=True)
    baseline = run_atpg(c, config=config)
    monkeypatch.setattr(driver, "make_atpg", first_search_aborts)
    stats = run_atpg(c, config=config)
    faults, _classes = prepare_fault_list(c)
    detected = set()
    for sequence in stats.sequences:
        detected |= fault_simulate(c, sequence, faults)
    assert 0 in detected  # a later test catches the aborted fault ...
    assert stats.detected == len(detected)  # ... and it is credited
    assert stats.aborted == baseline.aborted
