"""repro -- sequential learning for real circuits, with ATPG application.

A from-scratch Python reproduction of El-Maleh, Kassab and Rajski, "A
Fast Sequential Learning Technique for Real Circuits with Application to
Enhancing ATPG Performance" (DAC 1998).

The canonical entry point is the versioned :mod:`repro.api` boundary --
build a typed request, execute it, read the response envelope::

    from repro.api import ATPGRequest, LearnRequest, execute

    response = execute(LearnRequest(spec="figure1",
                                    save="figure1.json"))
    print(response.result["learn"])          # relations, ties, CPU

    rerun = execute(ATPGRequest(spec="figure1", modes=("forbidden",),
                                learned="figure1.json"))
    print(rerun.result["atpg"]["forbidden"]) # det / untest / CPU

The same requests drive the CLI (``repro learn figure1 --save f.json``
then ``repro atpg figure1 --learned f.json --json``) and the warm
``repro serve`` daemon (``POST /v1/execute``).  The original free
functions (:func:`learn`, :func:`run_atpg`, ...) stay available as the
underlying primitives.

Packages:

* :mod:`repro.api` -- versioned requests, execute(), events, the daemon
* :mod:`repro.flow` -- sessions, typed configs, serializable artifacts
* :mod:`repro.circuit` -- netlists, bench IO, built-ins, generator, retiming
* :mod:`repro.sim` -- event-driven 3-valued, bit-parallel, fault simulation
* :mod:`repro.core` -- the paper's sequential learning engine
* :mod:`repro.atpg` -- sequential PODEM ATPG with learned-implication modes
* :mod:`repro.analysis` -- density of encoding, exact state-space oracles
"""

from .circuit import (
    Circuit,
    CircuitBuilder,
    GateType,
    counter,
    equivalence_demo,
    figure1,
    figure2,
    industrial_like,
    iscas_like,
    load_bench,
    one_hot_ring,
    parse_bench,
    random_circuit,
    retime_circuit,
    s27,
)
from .core import LearnConfig, LearnResult, SequentialLearner, learn
from .atpg import (
    Fault,
    SequentialATPG,
    collapse_faults,
    compare_modes,
    compare_untestable,
    fires_untestable,
    run_atpg,
)
from .analysis import analyze_state_space
from .sim import FrameSimulator, fault_simulate, simulate_sequence
from .flow import (
    ATPGConfig,
    ArtifactError,
    CircuitResolveError,
    ConfigError,
    PipelineSession,
    ReproConfig,
    StaleArtifactError,
    SuiteReport,
    circuit_fingerprint,
    load_learn_result,
    resolve_circuit,
    run_suite,
    save_learn_result,
)
from . import api
from .api import Response, execute

__version__ = "1.1.0"

__all__ = [
    "Circuit", "CircuitBuilder", "GateType",
    "counter", "equivalence_demo", "figure1", "figure2",
    "industrial_like", "iscas_like", "load_bench", "one_hot_ring",
    "parse_bench", "random_circuit", "retime_circuit", "s27",
    "LearnConfig", "LearnResult", "SequentialLearner", "learn",
    "Fault", "SequentialATPG", "collapse_faults", "compare_modes",
    "compare_untestable", "fires_untestable", "run_atpg",
    "analyze_state_space",
    "FrameSimulator", "fault_simulate", "simulate_sequence",
    "ATPGConfig", "ArtifactError", "CircuitResolveError", "ConfigError",
    "PipelineSession", "ReproConfig", "StaleArtifactError",
    "SuiteReport", "circuit_fingerprint", "load_learn_result",
    "resolve_circuit", "run_suite", "save_learn_result",
    "api", "Response", "execute",
    "__version__",
]
