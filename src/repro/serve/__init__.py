"""``repro.serve`` -- the production serving tier.

Wraps the one :func:`repro.api.execute` entrypoint in a daemon built
for sustained traffic: streamed event protocol
(:mod:`~repro.serve.streaming`), bounded FIFO admission control
(:mod:`~repro.serve.admission`), cooperative cancellation
(:mod:`~repro.serve.cancel`) and a scrapeable metrics registry
(:mod:`~repro.serve.metrics`).  :mod:`repro.api` loads its lazy
``make_server`` / ``serve`` from :mod:`~repro.serve.daemon`.

The serving tier never changes *what* a request computes -- envelopes
stay byte-identical to one-shot CLI runs (streams terminate with the
exact same bytes); it only changes *when* work runs and what happens
to work nobody is waiting for anymore.
"""

from .admission import AdmissionController
from .cancel import CancelToken
from .daemon import ReproServer, make_server, serve
from .metrics import Metrics, histogram_quantile
from .streaming import EventStreamWriter

__all__ = [
    "AdmissionController", "CancelToken", "EventStreamWriter",
    "Metrics", "histogram_quantile",
    "ReproServer", "make_server", "serve",
]
