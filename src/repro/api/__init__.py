"""``repro.api`` -- the versioned request/execute boundary.

One stable surface for every client.  Build a typed request, hand it to
:func:`execute`, get back a versioned response envelope::

    from repro.api import ATPGRequest, execute

    response = execute(ATPGRequest(spec="s27", modes=("known",)))
    assert response.ok and response.envelope()["schema_version"] == 10
    print(response.result["atpg"]["known"])

The CLI is a thin argv adapter over this module; ``repro serve``
(:mod:`repro.serve.daemon`) exposes the same ``execute`` over JSON/HTTP
from one warm process.  Responses are deterministic: a daemon thread
and a one-shot CLI run produce the same envelope, byte-identical when
the request sets ``canonical=True``.

Module map:

* :mod:`repro.api.requests`  -- typed request kinds, canonical JSON,
  ``config_digest``
* :mod:`repro.api.executor`  -- :func:`execute`, :class:`Response`
* :mod:`repro.api.events`    -- streaming ProgressEvent / StageEvent /
  ResultEvent protocol
* :mod:`repro.api.store`     -- content-addressed learn-artifact store
* :mod:`repro.api.errors`    -- the :class:`ReproError` taxonomy

``make_server`` and ``serve`` are loaded lazily from
:mod:`repro.serve.daemon`, the ``repro serve`` JSON-over-HTTP daemon.

``__all__`` is the public API surface and is guarded by a checked-in
manifest (``tests/data/api_manifest.json``): additions and removals are
deliberate, reviewed events.
"""

from .errors import (
    ArtifactFailure,
    CancelledFailure,
    ConfigurationError,
    DeadlineExceeded,
    EngineError,
    IOFailure,
    OverloadFailure,
    PayloadTooLarge,
    ReproError,
    RequestError,
    ResolveError,
    classify_error,
)
from .events import (
    Event,
    EventSink,
    ProgressEvent,
    ResultEvent,
    StageEvent,
)
from .executor import Response, execute
from .requests import (
    REQUEST_KINDS,
    SCHEMA_VERSION,
    ATPGRequest,
    AnalyzeRequest,
    CompareRequest,
    FaultSimRequest,
    LearnRequest,
    ListRequest,
    Request,
    StatsRequest,
    SuiteRequest,
    UntestableRequest,
    request_from_dict,
)
from .store import ArtifactStore, learn_digest

__all__ = [
    # versioning
    "SCHEMA_VERSION",
    # requests
    "Request", "LearnRequest", "UntestableRequest", "ATPGRequest",
    "FaultSimRequest", "SuiteRequest", "CompareRequest",
    "StatsRequest", "AnalyzeRequest", "ListRequest", "REQUEST_KINDS",
    "request_from_dict",
    # execution
    "Response", "execute",
    # events
    "Event", "EventSink", "ProgressEvent", "StageEvent", "ResultEvent",
    # store
    "ArtifactStore", "learn_digest",
    # errors
    "ReproError", "RequestError", "ConfigurationError", "ResolveError",
    "ArtifactFailure", "IOFailure", "EngineError", "PayloadTooLarge",
    "OverloadFailure", "DeadlineExceeded", "CancelledFailure",
    "classify_error",
    # server
    "make_server", "serve",
]


def __getattr__(name):
    # The server pulls in http.server; load it lazily so importing the
    # API for a one-shot run never pays for (or requires) it.
    if name in ("make_server", "serve"):
        from ..serve import daemon

        return getattr(daemon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
