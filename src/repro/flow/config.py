"""Typed, serializable configuration for the pipeline layer.

:class:`ATPGConfig`, :class:`ReproConfig` and the learning engine's
:class:`~repro.core.engine.LearnConfig` are the one place where a knob
and its default live.  Every layer above them passes a config object
and keeps no copy: :func:`repro.atpg.run_atpg` and
:func:`repro.atpg.compare_modes` take ``config=`` (``None`` means
``ATPGConfig()``), a :class:`~repro.flow.session.PipelineSession`
carries a :class:`ReproConfig`, and the CLI sets only the knobs whose
flags were given.  All three round-trip through plain dicts --
``json.dumps(cfg.to_dict())`` is the canonical on-disk form -- and
reject unknown keys and mistyped values on the way back in so a typo in
a config file fails loudly instead of being ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (
    Dict,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..core.engine import LearnConfig

#: Legal values for :attr:`ATPGConfig.mode`.
ATPG_MODES = ("none", "forbidden", "known")

__all__ = ["ATPG_MODES", "ATPGConfig", "ConfigError", "ReproConfig",
           "canonical_json", "normalize_jobs"]


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration values."""


def normalize_jobs(jobs: int) -> int:
    """Resolve the ``jobs`` knob to a concrete worker count.

    ``0`` means "one worker per CPU core" everywhere a worker count
    appears (``run_suite``, the parallel pool, ``repro worker --jobs``);
    this helper is the single copy of that rule, clamped to at least 1
    on platforms where ``os.cpu_count()`` is unknowable.  Validation
    (non-negative int) stays in :meth:`ReproConfig.validate`.
    """
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def canonical_json(payload) -> str:
    """The one canonical JSON form used for hashing configurations.

    Sorted keys, no whitespace, no NaN/Infinity.  Every digest in the
    system (:meth:`ATPGConfig.config_digest`, the API request digests,
    the content-addressed artifact store) hashes exactly this form, so
    two configs that round-trip to the same dict always collide -- and
    a formatting change can never silently invalidate every cache.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _digest(prefix: str, payload) -> str:
    return hashlib.sha256(
        f"{prefix}:{canonical_json(payload)}".encode()).hexdigest()


def _type_ok(value, hint) -> bool:
    """``isinstance`` against a field annotation; a bool is no int."""
    if get_origin(hint) is Union:
        return any(_type_ok(value, arg) for arg in get_args(hint))
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if get_origin(hint) is Union:
        return " or ".join(_type_name(arg) for arg in get_args(hint))
    if hint is type(None):
        return "null"
    return "an object" if is_dataclass(hint) else hint.__name__


def _check_types(config) -> None:
    """Raise :class:`ConfigError` naming the first field whose value
    does not match its annotation (``Optional[...]`` admits ``None``),
    so a mistyped value fails validation rather than as a ``TypeError``
    deep inside the engine."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if not _type_ok(value, hints[f.name]):
            raise ConfigError(
                f"{type(config).__name__}.{f.name} must be "
                f"{_type_name(hints[f.name])}, got {value!r}")


def _from_dict(cls, data: Dict[str, object]):
    """Shared strict dict -> dataclass constructor."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be an object, "
                          f"got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**data)


@dataclass
class ATPGConfig:
    """Knobs of one full-circuit ATPG run (one Table-5 cell group)."""

    #: Implication mode: 'none', 'forbidden' or 'known'.
    mode: str = "forbidden"
    #: PODEM backtrack limit per fault (the paper uses 30 and 1000).
    backtrack_limit: int = 30
    #: Maximum time-frame window during test generation.
    max_frames: int = 10
    #: Cap the collapsed fault list by random sampling (None = all).
    max_faults: Optional[int] = None
    #: Seed for don't-care fill and fault sampling.
    fill_seed: int = 12345
    #: Keep generated test vectors on :class:`~repro.atpg.ATPGStats`.
    #: Off by default so batch/suite runs over large circuits don't hold
    #: every vector in memory; ``sequences_total`` is counted either way.
    keep_sequences: bool = False

    def validate(self) -> "ATPGConfig":
        """Raise :class:`ConfigError` on mistyped or out-of-range values."""
        _check_types(self)
        if self.mode not in ATPG_MODES:
            raise ConfigError(
                f"mode must be one of {ATPG_MODES}, got {self.mode!r}")
        if self.backtrack_limit < 1:
            raise ConfigError("backtrack_limit must be >= 1")
        if self.max_frames < 1:
            raise ConfigError("max_frames must be >= 1")
        if self.max_faults is not None and self.max_faults < 1:
            raise ConfigError("max_faults must be >= 1 or None")
        return self

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_canonical_json(self) -> str:
        """Canonical JSON: sorted keys, defaults materialized.

        ``to_dict`` walks every dataclass field, so unset knobs appear
        with their default values -- two configs differing only in how
        they were spelled hash identically.
        """
        return canonical_json(self.to_dict())

    def config_digest(self) -> str:
        """Stable SHA-256 over :meth:`to_canonical_json`."""
        return _digest("repro/atpg-config", self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ATPGConfig":
        return _from_dict(cls, data).validate()


@dataclass
class ReproConfig:
    """Everything one pipeline run needs, in one serializable object."""

    learn: LearnConfig = field(default_factory=LearnConfig)
    atpg: ATPGConfig = field(default_factory=ATPGConfig)
    #: Backward-retiming moves applied to the circuit after resolution.
    retime: int = 0
    #: Worker processes for :func:`~repro.flow.session.run_suite`:
    #: ``1`` runs circuits serially in-process (the default), ``N > 1``
    #: shards them over N workers, ``0`` means one worker per CPU core.
    #: A suite-execution knob only -- per-circuit sessions always run
    #: (and report) with ``jobs=1``, so suite reports do not depend on
    #: the worker count.
    jobs: int = 1

    def validate(self) -> "ReproConfig":
        _check_types(self)
        _check_types(self.learn)
        if self.retime < 0:
            raise ConfigError("retime must be >= 0")
        if self.jobs < 0:
            raise ConfigError(
                f"jobs must be >= 0 (0 = all CPU cores), got {self.jobs}")
        learn = self.learn
        if learn.max_frames < 1:
            raise ConfigError("learn.max_frames must be >= 1")
        if learn.equivalence_width < 1:
            raise ConfigError("learn.equivalence_width must be >= 1")
        if learn.equivalence_max_support < 1:
            raise ConfigError("learn.equivalence_max_support must be >= 1")
        if (learn.multi_node_max_targets is not None
                and learn.multi_node_max_targets < 1):
            raise ConfigError(
                "learn.multi_node_max_targets must be >= 1 or None")
        self.atpg.validate()
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "learn": self.learn.to_dict(),
            "atpg": self.atpg.to_dict(),
            "retime": self.retime,
            "jobs": self.jobs,
        }

    def to_canonical_json(self) -> str:
        """Canonical JSON: sorted keys, every default materialized."""
        return canonical_json(self.to_dict())

    def config_digest(self) -> str:
        """Stable SHA-256 identifying what this config *computes*.

        ``jobs`` is normalized to 1 before hashing: it shards suite
        execution but never changes any result (per-circuit sessions
        always run with ``jobs=1``), so two runs differing only in
        worker count must share every cache entry.
        """
        payload = self.to_dict()
        payload["jobs"] = 1
        return _digest("repro/config", payload)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReproConfig":
        if isinstance(data, dict):
            data = dict(data)
            # Nested sections arrive as plain dicts; LearnConfig lives
            # in core and has no constructor of its own.
            if isinstance(data.get("learn"), dict):
                data["learn"] = _from_dict(LearnConfig, data["learn"])
            if isinstance(data.get("atpg"), dict):
                data["atpg"] = ATPGConfig.from_dict(data["atpg"])
        return _from_dict(cls, data).validate()
