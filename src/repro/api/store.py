"""Content-addressed artifact store: learn once per digest, ever.

The flow layer's artifacts (:mod:`repro.flow.serialize`) are keyed to a
circuit *fingerprint* only -- enough to reject a stale file, not enough
to know that an artifact on disk answers the exact learning request in
hand (a 5-frame learning run and a 50-frame one share a fingerprint).
This store closes that gap: learn results are addressed by
:func:`learn_digest` -- circuit fingerprint **plus** canonical learning
config -- so any process (one-shot CLI, pool worker, the ``repro
serve`` daemon) that computes the same digest can reuse the artifact
with zero risk of configuration drift.

Layout is a classic content-addressed tree under ``root``::

    <root>/learn/<digest[:2]>/<digest>.json

plus an in-memory layer of live :class:`~repro.core.engine.LearnResult`
objects for warm processes (the daemon's whole point).  All methods are
thread-safe; disk writes are atomic (temp file + rename).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, Iterator, Optional

from ..circuit.netlist import Circuit
from ..core.engine import LearnConfig, LearnResult
from ..flow.config import canonical_json
from ..flow.serialize import (
    ArtifactError,
    load_learn_result,
    save_learn_result,
)

__all__ = ["ArtifactStore", "learn_digest"]


def learn_digest(circuit: Circuit, config: LearnConfig) -> str:
    """Content address of one learning computation.

    Hashes the circuit fingerprint together with the canonical JSON of
    the learning config (defaults materialized, sorted keys).  The
    simulation backend is deliberately excluded: learned knowledge is
    bit-identical for every backend, so backends share cache entries.
    """
    return hashlib.sha256(
        f"repro/learn-artifact:{circuit.fingerprint()}:"
        f"{canonical_json(config.to_dict())}".encode()).hexdigest()


class ArtifactStore:
    """Digest-addressed learn-result cache (memory + optional disk).

    ``root=None`` keeps a purely in-memory store (one warm process);
    with a root directory, results also persist across processes.  The
    in-memory layer is keyed by digest, and a digest *embeds* the
    circuit fingerprint, so a hit can never hand back knowledge for a
    different netlist or config.
    """

    #: LRU bound on live in-memory results.  A LearnResult holds a full
    #: circuit plus relation/tie databases -- far heavier than the
    #: compiled-kernel cache entries (capped at 256 next door in
    #: :mod:`repro.sim.compiled`) -- so the long-running daemon must
    #: not accumulate them without bound.  Evicted entries remain on
    #: disk when a root is configured.
    MEMORY_CAP = 64
    #: Bound on the single-flight lock map; idle locks past this are
    #: pruned (a lock is tiny, but "tiny, forever, per digest" is still
    #: a leak).
    FLIGHT_LOCK_CAP = 1024

    def __init__(self, root: Optional[str] = None,
                 keep_in_memory: bool = True):
        self.root = os.fspath(root) if root is not None else None
        self.keep_in_memory = keep_in_memory
        self._memory: "OrderedDict[str, LearnResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._flight_locks: Dict[str, threading.Lock] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.puts = 0
        self.flight_waits = 0

    def flight_lock(self, digest: str) -> threading.Lock:
        """Single-flight lock for one digest's compute.

        Concurrent requests needing the same learn result hold this
        around their miss-compute-put sequence, so the daemon learns
        each digest exactly once: the first thread computes, the rest
        block briefly and then hit.  (Cheap: one small Lock per distinct
        digest this process has seen.)
        """
        with self._lock:
            if (digest not in self._flight_locks
                    and len(self._flight_locks) >= self.FLIGHT_LOCK_CAP):
                for key in [k for k, lock in self._flight_locks.items()
                            if not lock.locked()]:
                    del self._flight_locks[key]
            return self._flight_locks.setdefault(digest,
                                                 threading.Lock())

    @contextlib.contextmanager
    def flight(self, digest: str) -> Iterator[None]:
        """Hold the single-flight lock, counting contended waits.

        Same contract as ``with store.flight_lock(digest):`` plus
        accounting: a thread that finds the lock already held bumps
        ``flight_waits`` (surfaced by :meth:`stats`), which is how the
        single-flight property is observable -- N concurrent requests
        for one cold digest show 1 compute and N-1 waits.
        """
        lock = self.flight_lock(digest)
        if not lock.acquire(blocking=False):
            with self._lock:
                self.flight_waits += 1
            lock.acquire()
        try:
            yield
        finally:
            lock.release()

    # ------------------------------------------------------------------
    def learn_path(self, digest: str) -> Optional[str]:
        """On-disk location for a digest (None for memory-only)."""
        if self.root is None:
            return None
        return os.path.join(self.root, "learn", digest[:2],
                            f"{digest}.json")

    def get_learn(self, digest: str,
                  circuit: Circuit) -> Optional[LearnResult]:
        """Fetch a learn result by digest, or None on a miss.

        A corrupt or stale on-disk entry counts as a miss (the caller
        relearns and overwrites it) -- a damaged cache file must never
        fail a request that could simply recompute.
        """
        with self._lock:
            hit = self._memory.get(digest)
            if hit is not None:
                self._memory.move_to_end(digest)
                self.memory_hits += 1
                return hit
        path = self.learn_path(digest)
        if path is not None and os.path.exists(path):
            try:
                result = load_learn_result(path, circuit,
                                           expect_digest=digest)
            except (ArtifactError, OSError):
                pass
            else:
                with self._lock:
                    self.disk_hits += 1
                    if self.keep_in_memory:
                        self._memory[digest] = result
                        self._memory.move_to_end(digest)
                        while len(self._memory) > self.MEMORY_CAP:
                            self._memory.popitem(last=False)
                return result
        with self._lock:
            self.misses += 1
        return None

    def put_learn(self, digest: str, result: LearnResult) -> None:
        """Store a learn result under its digest (atomic on disk)."""
        with self._lock:
            self.puts += 1
            if self.keep_in_memory:
                self._memory[digest] = result
                self._memory.move_to_end(digest)
                while len(self._memory) > self.MEMORY_CAP:
                    self._memory.popitem(last=False)
        path = self.learn_path(digest)
        if path is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            save_learn_result(result, path, digest=digest)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (for health endpoints and tests)."""
        with self._lock:
            return {
                "memory_entries": len(self._memory),
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "puts": self.puts,
                "flight_waits": self.flight_waits,
            }
