"""Distributed execution tier: whole circuits over a fleet of workers.

``repro.flow.parallel_suite`` spreads a suite's circuits over worker
processes on one machine; this package spreads the same units one hop
wider, over TCP.  A unit is one circuit spec through the whole
pipeline, every requested mode -- a one-spec ``suite`` request that a
worker runs with :func:`repro.api.execute`, i.e. the pool's own
:func:`~repro.flow.parallel_suite.run_task`:

* :mod:`repro.dist.protocol` -- the JSON-over-HTTP wire protocol
  (lease / complete / heartbeat / health).
* :mod:`repro.dist.coordinator` -- one unit per spec, pull scheduling
  with one lease per unit, lease timeouts, bounded retries, journaled
  restart, and the suite merge in spec order (``repro coordinator``).
* :mod:`repro.dist.worker` -- the lease/execute/complete loop with
  heartbeats and graceful SIGTERM drain (``repro worker``).

One circuit never spreads across workers, so the largest circuit of a
suite bounds the fleet's speed-up.

Quickstart (two terminals)::

    repro coordinator s27 s298 --canonical --json
    repro worker --coordinator http://127.0.0.1:8452 --jobs 0

The coordinator prints the merged suite envelope when the fleet
drains; its bytes match a local ``repro suite --canonical --json``.
"""

from .coordinator import (
    CoordinatorServer,
    DistJob,
    DistUnit,
    make_coordinator,
    run_coordinator,
)
from .worker import WorkerLoop, run_worker

__all__ = [
    "CoordinatorServer", "DistJob", "DistUnit", "make_coordinator",
    "run_coordinator",
    "WorkerLoop", "run_worker",
]
