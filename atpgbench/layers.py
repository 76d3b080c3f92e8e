"""Wrappers around each layer's public functions, installed from outside.

The program is not edited: :class:`Layers` swaps module attributes for
wrappers while a run is in progress and restores every original on
:meth:`Layers.uninstall`.  Two kinds of wrapper share one install:

* **capture** (always on): the resolved circuit, the learning result
  and each ATPG run's statistics are kept for the output checks.  This
  costs one extra call per pipeline stage.
* **timing** (only when ``traced``): time and counts at each layer
  boundary, accumulated into :attr:`Layers.raw` and drained per request
  by :meth:`Layers.take`.  Times are read from :attr:`Layers.clock`,
  which the caller points at a clock that stops while the calibration
  kernel interrupts the program.

Layer boundaries, with the module attribute each wrapper replaces:

=====================  ============================================
``circuit.resolve``    ``repro.flow.session.resolve_circuit``
``sim.warm``           ``repro.sim.compiled.warm_cache`` (set-up)
``core.single_node``   ``repro.core.engine.run_single_node`` and
                       ``extract_same_frame_relations``
``core.ties``          ``repro.core.engine.ties_from_single_node`` and
                       ``propagate_tie_constants``
``core.equivalence``   ``repro.core.engine.find_equivalences``
``core.multi_node``    ``repro.core.engine.run_multi_node``
``learn``              ``repro.flow.session.learn`` (whole stage)
``atpg.run``           ``repro.flow.session.run_atpg`` (whole stage)
``atpg.fault_list``    ``repro.atpg.driver.prepare_fault_list``
``atpg.tie_screen``    ``repro.atpg.driver.tie_untestable_indices``
``atpg.podem``         ``generate`` of the engine ``make_atpg`` builds
``sim.drop``           the dropper ``make_resident_dropper`` builds
=====================  ============================================
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class _TimedDropper:
    """Proxy of a resident fault dropper that times ``drop``."""

    def __init__(self, inner, layers: "Layers"):
        self._inner = inner
        self._layers = layers

    def discard(self, index: int) -> None:
        self._inner.discard(index)

    def drop(self, sequence):
        clock = self._layers.clock
        start = clock()
        hits = self._inner.drop(sequence)
        raw = self._layers.raw
        raw["sim.drop_s"] += clock() - start
        raw["sim.drop_calls"] += 1
        raw["sim.collateral"] += len(hits)
        return hits


class Layers:
    """Install capture (and optionally timing) wrappers into the program."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.clock: Callable[[], float] = time.perf_counter
        self.raw: Dict[str, float] = defaultdict(float)
        #: Outputs of the current request, for the checks.
        self.circuits: List[object] = []
        self.learned: List[object] = []
        self.atpg_runs: List[object] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _swap(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def _timed(self, key: str, original: Callable) -> Callable:
        raw = self.raw

        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return original(*args, **kwargs)
            finally:
                raw[key] += self.clock() - start

        return wrapper

    def _captured(self, key: str, sink: List[object],
                  original: Callable) -> Callable:
        raw, traced = self.raw, self.traced

        def wrapper(*args, **kwargs):
            start = self.clock()
            value = original(*args, **kwargs)
            if traced:
                raw[key] += self.clock() - start
            sink.append(value)
            return value

        return wrapper

    def install(self) -> "Layers":
        from repro.atpg import driver
        from repro.core import engine
        from repro.flow import session
        from repro.sim import compiled

        self._swap(session, "resolve_circuit",
                   lambda f: self._captured("circuit.resolve_s",
                                            self.circuits, f))
        self._swap(session, "learn",
                   lambda f: self._captured("learn_s", self.learned, f))
        self._swap(session, "run_atpg",
                   lambda f: self._captured("atpg_s", self.atpg_runs, f))
        if not self.traced:
            return self
        for module, name, key in (
                (compiled, "warm_cache", "sim.warm_s"),
                (engine, "run_single_node", "core.single_node_s"),
                (engine, "extract_same_frame_relations",
                 "core.single_node_s"),
                (engine, "ties_from_single_node", "core.ties_s"),
                (engine, "propagate_tie_constants", "core.ties_s"),
                (engine, "find_equivalences", "core.equivalence_s"),
                (engine, "run_multi_node", "core.multi_node_s"),
                (driver, "prepare_fault_list", "atpg.fault_list_s"),
                (driver, "tie_untestable_indices", "atpg.tie_screen_s")):
            self._swap(module, name,
                       lambda f, key=key: self._timed(key, f))
        self._swap(driver, "make_atpg", self._podem_factory)
        self._swap(driver, "make_resident_dropper", self._dropper_factory)
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # ------------------------------------------------------------------
    def _podem_factory(self, make_atpg: Callable) -> Callable:
        raw = self.raw

        def factory(*args, **kwargs):
            engine = make_atpg(*args, **kwargs)
            generate = engine.generate

            def timed_generate(fault):
                start = self.clock()
                result = generate(fault)
                elapsed = self.clock() - start
                raw["atpg.podem_s"] += elapsed
                raw["atpg.faults_targeted"] += 1
                raw["atpg.decisions"] += result.decisions
                raw["atpg.backtracks"] += result.backtracks
                raw[f"atpg.{result.status}"] += 1
                if result.status == "aborted":
                    raw["atpg.podem_aborted_s"] += elapsed
                return result

            engine.generate = timed_generate
            return engine

        return factory

    def _dropper_factory(self, make_dropper: Callable) -> Callable:
        def factory(*args, **kwargs):
            start = self.clock()
            dropper = make_dropper(*args, **kwargs)
            self.raw["sim.drop_s"] += self.clock() - start
            return _TimedDropper(dropper, self)

        return factory

    # ------------------------------------------------------------------
    def take(self) -> Dict[str, float]:
        """The counters accumulated since the last call, then reset."""
        out = dict(self.raw)
        self.raw.clear()
        return out

    def clear_outputs(self) -> None:
        self.circuits.clear()
        self.learned.clear()
        self.atpg_runs.clear()
