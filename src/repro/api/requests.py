"""Typed, versioned request objects -- the API's wire vocabulary.

Every operation the system performs is named by exactly one request
class; CLI argv, Python callers and the HTTP daemon all reduce to the
same objects, and :func:`repro.api.execute` is the only interpreter.
Requests round-trip through canonical JSON (:meth:`Request.to_dict` /
:func:`request_from_dict`), carry an explicit ``schema_version``, and
hash to a stable :meth:`Request.config_digest` (circuit fingerprint +
configuration) so results and artifacts can be cached across runs,
processes and machines.

Request kinds
-------------
``learn``       sequential learning (optionally validate / persist)
``untestable``  tie-gate vs FIRES untestability screen
``atpg``        ATPG over one or more implication modes
``faultsim``    grade generated tests against the full fault list
``suite``       the whole pipeline over many circuits (pool or fleet)
``compare``     the paper's Table-5 protocol over backtrack limits
``stats``       structural statistics
``analyze``     density-of-encoding state-space analysis
``list``        built-in circuit names

Unknown kinds, unknown fields and incompatible schema versions raise
:class:`~repro.api.errors.RequestError`; invalid configuration values
surface as :class:`~repro.flow.config.ConfigError` exactly as they do
everywhere else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Optional, Tuple, Type

from ..circuit.netlist import Circuit
from ..flow.config import (
    ATPG_MODES,
    ConfigError,
    ReproConfig,
    canonical_json,
)
from .errors import RequestError

__all__ = [
    "SCHEMA_VERSION", "PRIORITY_CLASSES", "Request", "LearnRequest",
    "UntestableRequest", "ATPGRequest", "FaultSimRequest",
    "SuiteRequest", "CompareRequest", "StatsRequest",
    "AnalyzeRequest", "ListRequest", "REQUEST_KINDS",
    "request_from_dict",
]

#: Version of the request *and* response envelope schema.  Bumped on
#: any incompatible change; responses echo it so clients can gate.
#: Version 2 added the ``shard`` kind (distributed fault-list tier).
#: Version 3 added the ``array`` value to ``config.atpg.sim_backend``
#: (older servers would reject it, so clients must be able to gate).
#: Version 4 added the width knobs (``config.atpg.sim_width``,
#: ``config.learn.signature_width``,
#: ``config.learn.single_node_batch_width``); configs carrying them are
#: rejected by older servers, and every config digest changed because
#: the canonical form materializes the new defaults.
#: Version 5 added the serve-tier fields (``priority``, ``deadline_s``,
#: ``request_id``) to every kind; they steer admission control and
#: cancellation in :mod:`repro.serve` and are excluded from config
#: digests, so cache keys and canonical results are unchanged.
#: Version 6 removed the ``array`` value of ``config.atpg.sim_backend``;
#: a request naming it is now a ``config`` error.
#: Version 7 removed the width knobs again; a config naming one is now a
#: ``config`` error, and every config digest changed with the canonical
#: form.
#: Version 8 removed the ``shard`` kind: the dist tier now leases
#: one-spec ``suite`` requests, so a ``shard`` document is a ``parse``
#: error.
SCHEMA_VERSION = 8

#: Admission classes the serve tier schedules between; earlier names
#: win ties (``interactive`` outranks ``batch``).
PRIORITY_CLASSES = ("interactive", "batch")


@dataclass
class Request:
    """Base of every API request.

    Subclasses declare their fields as ordinary dataclass fields;
    serialization, strict parsing and digests are shared here.  Fields
    named in ``_TUPLE_FIELDS`` are normalized to tuples so requests are
    hashable-by-value and JSON lists round-trip cleanly.
    """

    KIND: ClassVar[str] = ""
    _TUPLE_FIELDS: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name in self._TUPLE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, str):
                # tuple("s27") would silently explode into characters;
                # a bare string here is always a caller typo for a
                # one-element list.
                raise RequestError(
                    f"{type(self).__name__}.{name} must be a list, "
                    f"got the string {value!r}")
            setattr(self, name, tuple(value))

    # ------------------------------------------------------------------
    def validate(self) -> "Request":
        """Validate field values; returns self (chainable).

        A plain-dict ``config`` is coerced through
        :meth:`ReproConfig.from_dict` first, so a bad dict fails as a
        config error.
        """
        config = getattr(self, "config", None)
        if isinstance(config, dict):
            config = self.config = ReproConfig.from_dict(config)
        elif config is not None and not isinstance(config, ReproConfig):
            raise RequestError(
                f"{type(self).__name__}.config must be an object")
        if config is not None:
            config.validate()
        priority = getattr(self, "priority", "interactive")
        if priority not in PRIORITY_CLASSES:
            raise RequestError(
                f"priority must be one of {PRIORITY_CLASSES}, "
                f"got {priority!r}")
        deadline = getattr(self, "deadline_s", None)
        if deadline is not None:
            if (isinstance(deadline, bool)
                    or not isinstance(deadline, (int, float))
                    or deadline <= 0):
                raise RequestError(
                    f"deadline_s must be a positive number or null, "
                    f"got {deadline!r}")
        request_id = getattr(self, "request_id", None)
        if request_id is not None:
            if (not isinstance(request_id, str) or not request_id
                    or len(request_id) > 128):
                raise RequestError(
                    "request_id must be a non-empty string of at "
                    f"most 128 characters, got {request_id!r}")
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form: ``kind`` + ``schema_version`` + fields."""
        out: Dict[str, object] = {"kind": self.KIND,
                                  "schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ReproConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def to_canonical_json(self) -> str:
        """Canonical JSON: sorted keys, defaults materialized."""
        return canonical_json(self.to_dict())

    #: Request fields that never change computed results: the circuit
    #: spec (subsumed by the fingerprint), output destinations,
    #: presentation toggles, and the serve-tier scheduling fields
    #: (which steer *when* work runs, never *what* it computes).
    #: Everything else -- modes, limits, artifact inputs, the config
    #: -- is part of the digest.
    _NON_RESULT_FIELDS: ClassVar[Tuple[str, ...]] = (
        "spec", "specs", "save", "out", "canonical", "details",
        "priority", "deadline_s", "request_id")

    def config_digest(self, circuit: Circuit) -> str:
        """Stable SHA-256 of (request kind, circuit, every
        result-affecting request field).

        Two requests with the same digest are guaranteed to compute the
        same results: the hash covers the full configuration
        (execution knobs like ``jobs`` normalized out by
        :meth:`~repro.flow.config.ReproConfig.config_digest`) plus
        request fields such as ``modes`` or ``backtrack_limits``; only
        output paths and presentation toggles are excluded.  This is
        what makes responses and artifacts cacheable across runs.

        Caveat: an input artifact (``ATPGRequest.learned``) is hashed
        by *path*, not content -- rewriting the file between runs
        changes results under an unchanged digest, so requests naming
        an artifact should not be response-cached by digest (the
        artifact's own stamped digest is the content address).
        """
        payload: Dict[str, object] = {}
        for f in fields(self):
            if f.name in self._NON_RESULT_FIELDS or f.name == "config":
                continue
            value = getattr(self, f.name)
            payload[f.name] = (list(value) if isinstance(value, tuple)
                               else value)
        config = getattr(self, "config", None)
        payload["config"] = (config.config_digest()
                             if config is not None else None)
        return hashlib.sha256(
            f"repro/request:{self.KIND}:{circuit.fingerprint()}:"
            f"{canonical_json(payload)}".encode()).hexdigest()

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Request":
        """Strict inverse of :meth:`to_dict` for this concrete kind."""
        if not isinstance(data, dict):
            raise RequestError(
                f"request must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        kind = data.pop("kind", cls.KIND)
        if kind != cls.KIND:
            raise RequestError(
                f"expected kind {cls.KIND!r}, got {kind!r}")
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RequestError(
                f"unsupported schema_version {version!r} "
                f"(this build speaks version {SCHEMA_VERSION})")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise RequestError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}")
        try:
            request = cls(**data)
        except TypeError as exc:
            raise RequestError(
                f"malformed {cls.__name__}: {exc}") from exc
        request.validate()
        return request


@dataclass
class LearnRequest(Request):
    """Run sequential learning on one circuit."""

    KIND: ClassVar[str] = "learn"

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    #: Monte-Carlo soundness check with N random sequences (0 = skip).
    validate_sequences: int = 0
    #: Persist the learning artifact (digest-stamped) to this path.
    save: Optional[str] = None
    #: Include the full tie/relation listings in the result payload.
    details: bool = False
    #: Zero volatile wall-clock fields for byte-identical responses.
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "LearnRequest":
        super().validate()
        if self.validate_sequences < 0:
            raise ConfigError("validate_sequences must be >= 0")
        return self


@dataclass
class UntestableRequest(Request):
    """Tie-gate vs FIRES untestability comparison (Table 4)."""

    KIND: ClassVar[str] = "untestable"

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None


@dataclass
class ATPGRequest(Request):
    """Test generation over one or more implication modes."""

    KIND: ClassVar[str] = "atpg"
    _TUPLE_FIELDS: ClassVar[Tuple[str, ...]] = ("modes",)

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    modes: Tuple[str, ...] = ATPG_MODES
    #: Load this learning artifact instead of relearning (always
    #: validated against the circuit, even for the 'none' baseline).
    learned: Optional[str] = None
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "ATPGRequest":
        super().validate()
        _check_modes(self.modes)
        return self


@dataclass
class FaultSimRequest(Request):
    """Grade generated test sets against the collapsed fault list."""

    KIND: ClassVar[str] = "faultsim"
    _TUPLE_FIELDS: ClassVar[Tuple[str, ...]] = ("modes",)

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    #: Modes whose test sets to grade; empty means the config's mode.
    modes: Tuple[str, ...] = ()
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "FaultSimRequest":
        super().validate()
        if self.modes:
            _check_modes(self.modes)
        return self


@dataclass
class SuiteRequest(Request):
    """The whole pipeline over many circuit specs (pool or fleet)."""

    KIND: ClassVar[str] = "suite"
    _TUPLE_FIELDS: ClassVar[Tuple[str, ...]] = ("specs", "modes")

    specs: Tuple[str, ...] = ()
    config: ReproConfig = field(default_factory=ReproConfig)
    modes: Tuple[str, ...] = ATPG_MODES
    #: Also write the suite report JSON to this path (atomic).
    out: Optional[str] = None
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "SuiteRequest":
        super().validate()
        if not self.specs:
            raise RequestError("SuiteRequest.specs must be non-empty")
        _check_modes(self.modes)
        return self


@dataclass
class CompareRequest(Request):
    """The paper's Table-5 protocol: every mode at every limit."""

    KIND: ClassVar[str] = "compare"
    _TUPLE_FIELDS: ClassVar[Tuple[str, ...]] = ("backtrack_limits",)

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    backtrack_limits: Tuple[int, ...] = (30, 1000)
    canonical: bool = False
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "CompareRequest":
        super().validate()
        if not self.backtrack_limits:
            raise ConfigError("backtrack_limits must be non-empty")
        for limit in self.backtrack_limits:
            if not isinstance(limit, int) or limit < 1:
                raise ConfigError(
                    f"backtrack limits must be ints >= 1, "
                    f"got {limit!r}")
        return self


@dataclass
class StatsRequest(Request):
    """Structural statistics of one circuit."""

    KIND: ClassVar[str] = "stats"

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None


@dataclass
class AnalyzeRequest(Request):
    """Exact state-space analysis: density of encoding."""

    KIND: ClassVar[str] = "analyze"

    spec: str = ""
    config: ReproConfig = field(default_factory=ReproConfig)
    max_ffs: int = 16
    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def validate(self) -> "AnalyzeRequest":
        super().validate()
        if self.max_ffs < 1:
            raise ConfigError("max_ffs must be >= 1")
        return self


@dataclass
class ListRequest(Request):
    """List built-in circuit names."""

    KIND: ClassVar[str] = "list"

    # Serve-tier fields (schema v5): admission class, deadline, id.
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None


def _check_modes(modes: Tuple[str, ...]) -> None:
    if not modes:
        raise ConfigError("modes must be non-empty")
    for mode in modes:
        if mode not in ATPG_MODES:
            raise ConfigError(
                f"mode must be one of {ATPG_MODES}, got {mode!r}")


#: kind string -> request class, for :func:`request_from_dict`.
REQUEST_KINDS: Dict[str, Type[Request]] = {
    cls.KIND: cls
    for cls in (LearnRequest, UntestableRequest, ATPGRequest,
                FaultSimRequest, SuiteRequest, CompareRequest, StatsRequest, AnalyzeRequest,
                ListRequest)
}


def request_from_dict(data: Dict[str, object]) -> Request:
    """Parse any request kind from its plain-JSON form (strict)."""
    if not isinstance(data, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind is None:
        raise RequestError(
            f"request is missing 'kind' (one of "
            f"{sorted(REQUEST_KINDS)})")
    if not isinstance(kind, str):
        raise RequestError(
            f"'kind' must be a string, got {type(kind).__name__}")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise RequestError(
            f"unknown request kind {kind!r} (expected one of "
            f"{sorted(REQUEST_KINDS)})")
    return cls.from_dict(data)
