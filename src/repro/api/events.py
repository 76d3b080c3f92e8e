"""Unified streaming event protocol for pipeline execution.

The pipeline engines speak raw ``(stage, event, payload)`` progress
tuples, and every one of them comes from the
:class:`~repro.flow.session.PipelineSession` that ran the stage (a
parallel suite's workers record theirs and the parent replays them in
input order).  This module gives those tuples their one typed shape:
an :func:`execute` caller passes a single ``events`` callable and
receives typed, JSON-serializable event objects.

* :class:`ProgressEvent` -- a stage started, ticked, or ended.  Ticks
  are throttled liveness beats inside long ATPG loops
  (``payload={"done", "total"}``).
* :class:`StageEvent` -- a stage completed, with its summary dict; the
  stream-level twin of :class:`~repro.flow.session.StageRecord`.
* :class:`ResultEvent` -- terminal: carries the full response envelope
  that :func:`repro.api.execute` is about to return.

Events are UI, not data: sinks that raise are suppressed (exactly as
legacy progress hooks were), and no result ever depends on whether a
sink was attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..flow.session import ProgressHook

__all__ = ["Event", "ProgressEvent", "StageEvent", "ResultEvent",
           "EventSink", "progress_hook_for"]


@dataclass
class Event:
    """Base event; ``to_dict`` yields the wire form (``event`` key)."""

    KIND = "event"

    def to_dict(self) -> Dict[str, object]:
        return {"event": self.KIND}


@dataclass
class ProgressEvent(Event):
    """A pipeline stage started, ticked, or ended."""

    KIND = "progress"

    stage: str = ""
    #: ``"start"``, ``"tick"`` or ``"end"``.
    status: str = "start"
    payload: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {"event": self.KIND, "stage": self.stage,
                "status": self.status, "payload": self.payload}


@dataclass
class StageEvent(Event):
    """A pipeline stage finished, with its summary."""

    KIND = "stage"

    stage: str = ""
    summary: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"event": self.KIND, "stage": self.stage,
                "summary": dict(self.summary)}


@dataclass
class ResultEvent(Event):
    """Terminal event: the response envelope of the whole request."""

    KIND = "result"

    envelope: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"event": self.KIND, "envelope": self.envelope}


#: An execute() caller's event callback.
EventSink = Callable[[Event], None]


def emit(sink: Optional[EventSink], event: Event) -> None:
    """Deliver one event, swallowing sink failures (events are UI)."""
    if sink is None:
        return
    try:
        sink(event)
    except Exception:
        pass


def progress_hook_for(sink: Optional[EventSink]) -> Optional[ProgressHook]:
    """Adapt an event sink to the legacy ``(stage, event, payload)``
    hook signature the pipeline engines speak.

    Stage ``end`` fans out as *two* events -- a :class:`ProgressEvent`
    closing the stage and a :class:`StageEvent` carrying its summary --
    so stream consumers can treat StageEvents as the durable record and
    ProgressEvents as pure liveness.
    """
    if sink is None:
        return None

    def hook(stage: str, event: str, payload: Optional[dict]) -> None:
        emit(sink, ProgressEvent(stage=stage, status=event,
                                 payload=payload))
        if event == "end":
            emit(sink, StageEvent(stage=stage, summary=payload or {}))

    return hook
