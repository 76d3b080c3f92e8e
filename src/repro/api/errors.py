"""Structured exception taxonomy for the versioned API boundary.

Every failure that crosses the :func:`repro.api.execute` boundary is a
:class:`ReproError` carrying a stable machine-readable ``code`` (what
kind of failure) and a ``stage`` (where in the pipeline it happened).
The JSON error envelope is ``{"code", "stage", "message"}`` -- clients
branch on the code, humans read the message, and the CLI's legacy
``repro: error: <message>`` rendering falls out of the same object.

The underlying engines keep raising their own exception types
(:class:`~repro.flow.config.ConfigError`,
:class:`~repro.flow.session.CircuitResolveError`,
:class:`~repro.flow.serialize.ArtifactError`, ...); the executor maps
them through :func:`classify_error` at the boundary so internal code
never needs to know about envelopes, and pre-API callers keep catching
the exceptions they always caught.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "ReproError", "RequestError", "ConfigurationError", "ResolveError",
    "ArtifactFailure", "IOFailure", "EngineError", "PayloadTooLarge",
    "OverloadFailure", "DeadlineExceeded", "CancelledFailure",
    "classify_error", "HTTP_STATUS_BY_CODE",
]


class ReproError(Exception):
    """Base of every structured API failure.

    ``code`` is the stable machine-readable failure class (one per
    subclass); ``stage`` names the pipeline stage that was running
    (``"config"``, ``"resolve"``, ``"learn"``, ``"atpg[known]"``, ...);
    ``http_status`` is what :mod:`repro.serve.daemon` answers with.
    """

    code = "error"
    http_status = 500

    def __init__(self, message: str, stage: Optional[str] = None):
        super().__init__(message)
        self.stage = stage

    @property
    def message(self) -> str:
        return str(self)

    def envelope(self) -> Dict[str, Optional[str]]:
        """The JSON error object embedded in failure responses."""
        return {"code": self.code, "stage": self.stage,
                "message": self.message}


class RequestError(ReproError):
    """The request itself cannot be parsed: bad JSON shape, unknown
    kind, unknown fields, or an incompatible ``schema_version``."""

    code = "parse"
    http_status = 400


class ConfigurationError(ReproError):
    """The request parsed but its configuration is invalid."""

    code = "config"
    http_status = 400


class ResolveError(ReproError):
    """The circuit spec cannot be turned into a circuit."""

    code = "resolve"
    http_status = 404


class ArtifactFailure(ReproError):
    """A serialized artifact is malformed, stale, or missing."""

    code = "artifact"
    http_status = 409


class IOFailure(ReproError):
    """The filesystem failed us: unreadable input, unwritable output."""

    code = "io"
    http_status = 500


class EngineError(ReproError):
    """An unexpected failure inside a pipeline engine."""

    code = "engine"
    http_status = 500


class PayloadTooLarge(ReproError):
    """A request body exceeding the daemon's byte cap."""

    code = "too_large"
    http_status = 413


class OverloadFailure(ReproError):
    """The daemon's admission queue is full: explicit backpressure.

    ``retry_after_s`` is the server's load-derived hint, surfaced as
    the HTTP ``Retry-After`` header next to the 429 envelope.
    """

    code = "overload"
    http_status = 429

    def __init__(self, message: str, stage: Optional[str] = None,
                 retry_after_s: int = 1):
        super().__init__(message, stage=stage)
        self.retry_after_s = retry_after_s

    def envelope(self) -> Dict[str, Optional[str]]:
        out = super().envelope()
        out["retry_after_s"] = self.retry_after_s
        return out


class DeadlineExceeded(ReproError):
    """The request's deadline (its own, or the server cap) expired
    before the work finished; the computation was abandoned."""

    code = "deadline"
    http_status = 504


class CancelledFailure(ReproError):
    """The request was cancelled -- explicitly (``POST /v1/cancel``) or
    because the client stalled or disconnected mid-flight.  499 is the
    de-facto 'client closed request' status."""

    code = "cancelled"
    http_status = 499


#: code -> HTTP status, derived from the taxonomy (single source).
HTTP_STATUS_BY_CODE = {
    cls.code: cls.http_status
    for cls in (ReproError, RequestError, ConfigurationError,
                ResolveError, ArtifactFailure, IOFailure, EngineError,
                PayloadTooLarge, OverloadFailure, DeadlineExceeded,
                CancelledFailure)
}


def classify_error(exc: BaseException,
                   stage: Optional[str] = None) -> ReproError:
    """Map any exception onto the taxonomy, preserving its message.

    Already-classified errors pass through (keeping their own stage if
    set).  The import is local to avoid a cycle: :mod:`repro.flow`
    never imports :mod:`repro.api`.
    """
    from ..flow import ArtifactError, CircuitResolveError, ConfigError

    if isinstance(exc, ReproError):
        if exc.stage is None:
            exc.stage = stage
        return exc
    if isinstance(exc, CircuitResolveError):
        cls = ResolveError
    elif isinstance(exc, ConfigError):
        cls = ConfigurationError
    elif isinstance(exc, ArtifactError):
        cls = ArtifactFailure
    elif isinstance(exc, OSError):
        cls = IOFailure
    else:
        cls = EngineError
    error = cls(str(exc), stage=stage)
    error.__cause__ = exc
    return error
