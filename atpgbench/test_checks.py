"""The benchmark's own tests: each output check fails on a planted
wrong output, the corpus matches its recorded fingerprints, and the
command fails closed without the program.

Run from the repository root::

    python3 -m pytest atpgbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from layers import Layers  # noqa: E402

from repro.api import ATPGRequest, LearnRequest, execute  # noqa: E402
from repro.circuit import load_bench  # noqa: E402
from repro.flow.config import ReproConfig  # noqa: E402


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("netlists"))
    return corpus.write_corpus(sorted(corpus.EXPECTED_FINGERPRINTS), work)


def _captured(request):
    """Execute ``request`` with capture wrappers; (response, layers)."""
    layers = Layers(traced=False).install()
    try:
        response = execute(request)
    finally:
        layers.uninstall()
    return response, layers


def _atpg(paths, entry="s27", modes=("forbidden", "known")):
    base = ReproConfig()
    config = replace(base, atpg=replace(base.atpg, keep_sequences=True))
    return _captured(ATPGRequest(spec=paths[entry], modes=modes,
                                 config=config))


def test_corpus_matches_recorded_fingerprints(paths):
    for entry, expected in corpus.EXPECTED_FINGERPRINTS.items():
        assert load_bench(paths[entry]).fingerprint() == expected, entry


def test_atpg_check_passes_on_real_output(paths):
    response, layers = _atpg(paths)
    assert run.Checker(paths, seed=1).atpg("s27", response, layers) == []


def test_det_check_fails_on_overclaimed_det(paths):
    response, layers = _atpg(paths)
    response.result["atpg"]["known"]["det"] += 1
    problems = run.Checker(paths, seed=1).atpg("s27", response, layers)
    assert any("the kept test set detects" in p for p in problems)


def test_det_check_fails_on_a_lost_test(paths):
    response, layers = _atpg(paths)
    stats = [s for s in layers.atpg_runs if s.mode == "forbidden"][0]
    stats.sequences.pop(0)
    problems = run.Checker(paths, seed=1).atpg("s27", response, layers)
    assert any(p.startswith("s27[forbidden]: kept") for p in problems)


def test_untestable_check_fails_on_a_false_tie(paths):
    response, layers = _atpg(paths)
    learned = layers.learned[0]
    circuit = learned.circuit
    # G17 is s27's only primary output and toggles; "tying" it to 0
    # declares G17 s-a-0 untestable, which the test set detects.
    learned.ties.add(circuit.nid("G17"), 0, sequential=False,
                     phase="single")
    problems = run.Checker(paths, seed=1).atpg("s27", response, layers)
    assert any("declared untestable" in p for p in problems)


def test_tie_check_fails_on_a_false_tie(paths):
    response, layers = _captured(LearnRequest(spec=paths["figure1"]))
    checker = run.Checker(paths, seed=1)
    assert checker.learn("figure1", response, layers)[0] == []
    learned = layers.learned[0]
    learned.ties.add(learned.circuit.nid("G12"), 1, sequential=True,
                     phase="multi", warmup=3)
    problems, _count = checker.learn("figure1", response, layers)
    assert any("tie G12=1" in p for p in problems)


def test_suite_check_fails_on_a_changed_row(paths):
    runner = run.Runner(run.Checker(paths, seed=1), paths)
    response, layers = _atpg(paths)
    runner.check(run.Op("s27", None, "atpg", ("s27",)), response, layers)
    report = {"circuit": paths["s27"],
              "atpg": {m: dict(r) for m, r in
                       response.result["atpg"].items()}}
    suite = SimpleNamespace(ok=True,
                            result={"errors": [], "reports": [report]})
    op = run.Op("s27", None, "suite", ("s27",))
    assert runner.check(op, suite, layers)[0] == []
    report["atpg"]["known"]["aborted"] += 1
    assert any("differ" in p for p in runner.check(op, suite, layers)[0])


def test_fault_simulator_detects_a_po_fault(paths):
    net = checks.Netlist.from_file(paths["s27"])
    # All inputs 1 from the all-X state: G12 = NOR(G1=1, .) = 0 and
    # G8 = AND(G14=0, .) = 0, so G15 = 0, G9 = NAND(G16=1, 0) = 1,
    # G11 = NOR(., 1) = 0 and the output G17 = NOT(G11) = 1 in frame 0.
    ones = {name: 1 for name in net.inputs}
    faults = [("G17", None, 0), ("G17", None, 1), ("G9", None, 1)]
    assert checks.detected_faults(net, faults, [[ones]]) == {0}
    # G9 s-a-0 would flip G11 to X only; its s-a-1 matches the good value.
    assert checks.detected_faults(net, [("G9", None, 0)], [[ones]]) == set()


def test_command_fails_closed_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "atpgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "atpgbench/run.py", "--workload", "atpg_none",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
