"""Pipeline layer: typed configs, serializable artifacts, sessions.

This package is the execution layer under the versioned
:mod:`repro.api` boundary (the free functions in :mod:`repro.core` /
:mod:`repro.atpg` remain as the underlying primitives)::

    from repro.flow import PipelineSession, ReproConfig, ATPGConfig

    session = PipelineSession(
        "s27", ReproConfig(atpg=ATPGConfig(mode="known")))
    learned = session.learn()          # cached; run once
    session.save_learned("s27.json")   # reuse in later processes
    stats = session.atpg("known")      # uses the cached learning

New code should prefer :func:`repro.api.execute` with a typed request.

* :mod:`repro.flow.config` -- :class:`ReproConfig` / :class:`ATPGConfig`
* :mod:`repro.flow.serialize` -- JSON artifacts keyed to a circuit
  fingerprint
* :mod:`repro.flow.session` -- :class:`PipelineSession`,
  :func:`run_suite`
"""

from .config import (
    ATPG_MODES,
    ATPGConfig,
    ConfigError,
    ReproConfig,
    canonical_json,
    normalize_jobs,
)
from .serialize import (
    ArtifactError,
    StaleArtifactError,
    circuit_fingerprint,
    learn_result_from_dict,
    learn_result_to_dict,
    load_learn_result,
    save_learn_result,
    write_json_atomic,
)
from .session import (
    CircuitResolveError,
    PipelineSession,
    StageRecord,
    StageTracker,
    SuiteReport,
    canonicalize_volatile,
    resolve_circuit,
    run_suite,
)
from .parallel_suite import (
    SuiteError,
    SuiteTask,
    SuiteTaskResult,
    run_suite_parallel,
)

__all__ = [
    "ATPG_MODES", "ATPGConfig", "ConfigError", "ReproConfig",
    "canonical_json", "normalize_jobs",
    "ArtifactError", "StaleArtifactError",
    "circuit_fingerprint",
    "learn_result_from_dict", "learn_result_to_dict",
    "load_learn_result", "save_learn_result", "write_json_atomic",
    "CircuitResolveError", "PipelineSession", "StageRecord",
    "StageTracker", "SuiteReport", "canonicalize_volatile",
    "resolve_circuit", "run_suite",
    "SuiteError", "SuiteTask",
    "SuiteTaskResult", "run_suite_parallel",
]
