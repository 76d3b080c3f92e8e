"""Thread-safe metrics registry for the serve tier.

One :class:`Metrics` instance per daemon, shared by every handler
thread.  Two instrument families cover everything the serve tier needs
to answer "is it healthy and where does the time go":

* **counters** -- monotonically increasing event counts
  (``requests_total``, ``rejections_total``, ``cancellations_total``),
  labelled so per-kind / per-outcome / per-reason rates fall out.
* **histograms** -- fixed-bucket distributions (request latency, queue
  wait, queue depth).  Buckets are cumulative-at-export, Prometheus
  style: bucket ``le=b`` counts observations ``<= b``, with a final
  ``+Inf`` catch-all, plus ``_sum`` and ``_count`` so averages and
  quantile estimates need no raw samples.

The registry is a single dict-per-family guarded by one lock; every
access takes it (lint R003 enforces this).  Export is deterministic:
both :meth:`Metrics.to_dict` (JSON) and
:meth:`Metrics.render_prometheus` (text exposition format) emit series
in sorted order, never hash order.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Metrics", "histogram_quantile",
           "LATENCY_BUCKETS_S", "DEPTH_BUCKETS"]

#: Default upper bounds (seconds) for latency-flavoured histograms:
#: sub-5ms cache hits through minutes-long batch ATPG runs.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0)

#: Upper bounds for queue-depth observations (entries, not seconds).
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)

#: (name, sorted (label, value) pairs) -- one series' identity.
_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str,
                labels: Optional[Dict[str, str]]) -> _SeriesKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v))
                               for k, v in labels.items())))


def _render_labels(pairs: Tuple[Tuple[str, str], ...],
                   extra: Optional[Tuple[Tuple[str, str], ...]] = None
                   ) -> str:
    items = list(pairs) + list(extra or ())
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in items) + "}"


def _bound_label(bound: float) -> str:
    """Prometheus ``le`` label text: integral bounds without ``.0``."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class Metrics:
    """Counters + fixed-bucket histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_SeriesKey, int] = {}
        #: series key -> [per-bucket counts (+Inf last), sum, count]
        self._histograms: Dict[_SeriesKey, List[object]] = {}
        #: histogram name -> its immutable bucket upper bounds
        self._bounds: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, labels: Optional[Dict[str, str]] = None,
            value: int = 1) -> None:
        """Add ``value`` to a counter series (creating it at 0)."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: float,
                labels: Optional[Dict[str, str]] = None,
                buckets: Optional[Sequence[float]] = None) -> None:
        """Record one observation into a histogram series.

        ``buckets`` fixes the upper bounds the first time a name is
        seen (default :data:`LATENCY_BUCKETS_S`); later calls for the
        same name reuse them, so every series of one name is
        comparable.
        """
        key = _series_key(name, labels)
        with self._lock:
            bounds = self._bounds.get(name)
            if bounds is None:
                bounds = tuple(buckets) if buckets is not None \
                    else LATENCY_BUCKETS_S
                self._bounds[name] = bounds
            cell = self._histograms.get(key)
            if cell is None:
                cell = [[0] * (len(bounds) + 1), 0.0, 0]
                self._histograms[key] = cell
            cell[0][bisect_left(bounds, value)] += 1
            cell[1] += value
            cell[2] += 1

    # ------------------------------------------------------------------
    def counter_value(self, name: str,
                      labels: Optional[Dict[str, str]] = None) -> int:
        """Current value of one counter series (0 if never bumped)."""
        key = _series_key(name, labels)
        with self._lock:
            return self._counters.get(key, 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all of its label series."""
        with self._lock:
            return sum(value for (key_name, _), value
                       in self._counters.items() if key_name == name)

    def counter_by(self, name: str, label: str) -> Dict[str, int]:
        """A counter summed per value of one label, in one snapshot
        (series without the label sum under ``""``)."""
        out: Dict[str, int] = {}
        with self._lock:
            for (key_name, pairs), value in self._counters.items():
                if key_name == name:
                    group = dict(pairs).get(label, "")
                    out[group] = out.get(group, 0) + value
        return out

    def histogram_snapshot(self, name: str,
                           labels: Optional[Dict[str, str]] = None
                           ) -> Optional[Dict[str, object]]:
        """One histogram series as ``{bounds, counts, sum, count}``."""
        key = _series_key(name, labels)
        with self._lock:
            cell = self._histograms.get(key)
            if cell is None:
                return None
            return {"bounds": list(self._bounds[name]),
                    "counts": list(cell[0]),
                    "sum": cell[1], "count": cell[2]}

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON export: sorted series names, raw bucket counts."""
        with self._lock:
            counters = {
                name + _render_labels(pairs): value
                for (name, pairs), value in sorted(
                    self._counters.items())}
            histograms = {}
            for (name, pairs), cell in sorted(self._histograms.items()):
                bounds = self._bounds[name]
                buckets = {_bound_label(b): cell[0][i]
                           for i, b in enumerate(bounds)}
                buckets["+Inf"] = cell[0][-1]
                histograms[name + _render_labels(pairs)] = {
                    "buckets": buckets,
                    "sum": round(float(cell[1]), 6),
                    "count": cell[2],
                }
        return {"counters": counters, "histograms": histograms}

    def render_prometheus(self,
                          gauges: Optional[Dict[str, float]] = None,
                          prefix: str = "repro_") -> str:
        """Prometheus text exposition format (version 0.0.4).

        ``gauges`` are point-in-time values sampled by the caller at
        scrape time (cache sizes, queue depths); they are rendered as
        gauge series alongside the registry's own counters and
        histograms.
        """
        lines: List[str] = []
        with self._lock:
            counter_items = sorted(self._counters.items())
            histogram_items = [
                ((name, pairs),
                 self._bounds[name], list(cell[0]), cell[1], cell[2])
                for (name, pairs), cell in sorted(
                    self._histograms.items())]
        seen_types = set()
        for (name, pairs), value in counter_items:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {prefix}{name} counter")
            lines.append(
                f"{prefix}{name}{_render_labels(pairs)} {value}")
        for (name, pairs), bounds, counts, total, count \
                in histogram_items:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {prefix}{name} histogram")
            cumulative = 0
            for i, bound in enumerate(bounds):
                cumulative += counts[i]
                lines.append(
                    f"{prefix}{name}_bucket"
                    f"{_render_labels(pairs, (('le', _bound_label(bound)),))}"
                    f" {cumulative}")
            cumulative += counts[-1]
            lines.append(
                f"{prefix}{name}_bucket"
                f"{_render_labels(pairs, (('le', '+Inf'),))}"
                f" {cumulative}")
            lines.append(f"{prefix}{name}_sum{_render_labels(pairs)}"
                         f" {round(float(total), 6)}")
            lines.append(f"{prefix}{name}_count{_render_labels(pairs)}"
                         f" {count}")
        for gauge_name in sorted(gauges or {}):
            lines.append(f"# TYPE {prefix}{gauge_name} gauge")
            lines.append(f"{prefix}{gauge_name} {gauges[gauge_name]}")
        return "\n".join(lines) + "\n"


def histogram_quantile(bounds: Sequence[float],
                       counts: Sequence[int], q: float) -> float:
    """Estimate the q-quantile from fixed-bucket counts.

    Returns the upper bound of the bucket holding the q-th observation
    (the standard conservative estimate; the ``+Inf`` bucket reports
    the largest finite bound).  Used by the bench harness and tests to
    turn exported histograms back into p50/p99 figures.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank:
            if i < len(bounds):
                return float(bounds[i])
            return float(bounds[-1])
    return float(bounds[-1])
