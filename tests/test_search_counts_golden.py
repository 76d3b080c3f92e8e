"""Golden search counts of the default PODEM engine.

Canonical report rows carry detection verdicts but not the search that
produced them, so a change to the decision order (objective order,
backtrace fanin order, memoized dead ends) could keep every golden byte
while searching differently.  This pins the search itself: for two
``atpgbench``-scale circuits in every mode, a default-config
:func:`~repro.atpg.run_atpg` (incremental engine) must reproduce the
recorded totals of ``decisions`` and ``backtracks``, the verdict counts
and a digest of the kept test sequences.

On an *intentional* change of the search, regenerate the snapshot with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_search_counts_golden.py

and review the diff like any other change of results.
"""

import hashlib
import json
import os

import pytest

from repro.atpg import run_atpg
from repro.core import learn
from repro.flow import ATPGConfig
from repro.flow.session import resolve_circuit

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "search_counts_golden.json")

SPECS = ("like:s641@0.1", "like:s386@0.05")
MODES = ("none", "known", "forbidden")

_LEARNED = {}


def _learned(spec):
    if spec not in _LEARNED:
        _LEARNED[spec] = learn(resolve_circuit(spec))
    return _LEARNED[spec]


def search_counts(spec, mode):
    """Search totals of one default-config ATPG run."""
    learned = _learned(spec)
    stats = run_atpg(learned.circuit,
                     learned=learned if mode != "none" else None,
                     config=ATPGConfig(mode=mode, keep_sequences=True))
    digest = hashlib.sha256(json.dumps(
        stats.sequences, sort_keys=True).encode()).hexdigest()
    return {"decisions": stats.decisions, "backtracks": stats.backtracks,
            "detected": stats.detected, "untestable": stats.untestable,
            "aborted": stats.aborted, "sequences_sha256": digest}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("spec,mode", [(s, m) for s in SPECS for m in MODES])
def test_search_counts_match_golden(spec, mode, golden):
    key = f"{spec} {mode}"
    observed = search_counts(spec, mode)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden[key] = observed
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden search counts regenerated")
    assert observed == golden[key], (
        f"the PODEM search changed on {key}; if intentional, regenerate "
        "tests/data/search_counts_golden.json with REPRO_UPDATE_GOLDEN=1")
