"""The default paths and the differential oracles agree byte for byte.

The pipeline always runs the incremental PODEM engine and the compiled
fault simulator; the reference engine and the reference simulator stay
as oracles, reached by swapping the ``repro.atpg.driver`` factories
(:func:`use_oracles` in ``conftest.py``).  A whole serial suite must
produce the same canonical report either way.
"""

import json

import pytest

from repro.flow import ATPGConfig, ReproConfig
from repro.flow.session import run_suite

CASES = {
    # repro suite figure1 s27 --mode all --max-faults 20
    "small": (("figure1", "s27"), ATPGConfig(max_faults=20)),
    # A deeper search, where the incremental engine reuses and
    # truncates its window state across many backtracks.
    "deep": (("like:s386@0.05",),
             ATPGConfig(max_faults=40, backtrack_limit=60)),
}


def _canonical_suite(specs, atpg: ATPGConfig) -> str:
    report = run_suite(list(specs), config=ReproConfig(atpg=atpg),
                       modes=("none", "forbidden", "known"),
                       keep_going=False)
    return json.dumps(report.canonical_dict(), indent=1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_suite_bytes_identical_on_oracle_paths(case, use_oracles):
    specs, atpg = CASES[case]
    default = _canonical_suite(specs, atpg)
    use_oracles()
    assert _canonical_suite(specs, atpg) == default
