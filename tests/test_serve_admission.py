"""AdmissionController: slots, one bounded FIFO queue, cancellation.

Pure unit tests against the controller -- no HTTP.  The daemon-level
behaviors (429 envelopes, Retry-After headers) ride on these
primitives and are covered in ``test_serve_stream.py``.
"""

import threading
import time

import pytest

from repro.api import OverloadFailure
from repro.serve import AdmissionController, CancelToken
from repro.serve.cancel import REASON_EXPLICIT


def drain(threads, timeout=10):
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


def wait_until(predicate, timeout=10):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition never became true")


def test_fast_path_acquire_release():
    admission = AdmissionController(max_active=2, queue_depth=4)
    admission.acquire()
    admission.acquire()
    assert admission.depths() == {"active": 2, "queued": 0}
    admission.release()
    admission.release()
    assert admission.depths()["active"] == 0


def test_slot_context_manager_releases_on_error():
    admission = AdmissionController(max_active=1, queue_depth=0)
    with pytest.raises(RuntimeError):
        with admission.slot():
            assert admission.depths()["active"] == 1
            raise RuntimeError("boom")
    assert admission.depths()["active"] == 0


def test_full_queue_rejected_with_retry_after():
    admission = AdmissionController(max_active=1, queue_depth=0)
    admission.acquire()
    with pytest.raises(OverloadFailure) as info:
        admission.acquire()
    error = info.value
    assert error.http_status == 429
    assert error.retry_after_s >= 1
    assert error.envelope()["retry_after_s"] == error.retry_after_s
    admission.release()
    # The slot freed up; admission works again.
    admission.acquire()
    admission.release()


def test_retry_after_scales_with_backlog():
    admission = AdmissionController(max_active=1, queue_depth=2)
    admission.acquire()

    def queued_waiter():
        with admission.slot():
            pass

    threads = [threading.Thread(target=queued_waiter, daemon=True)
               for _ in range(2)]
    for thread in threads:
        thread.start()
    wait_until(lambda: admission.depths()["queued"] == 2)
    with pytest.raises(OverloadFailure) as info:
        admission.acquire()
    # active(1) + waiting(2) over 1 slot -> told to come back in 3s.
    assert info.value.retry_after_s == 3
    admission.release()
    drain(threads)


def test_cancelled_waiter_leaves_no_ghost():
    admission = AdmissionController(max_active=1, queue_depth=4)
    admission.acquire()

    token = CancelToken()
    raised = []

    def waiter():
        try:
            admission.acquire(cancel=token)
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    wait_until(lambda: admission.depths()["queued"] == 1)
    token.cancel(REASON_EXPLICIT)
    drain([thread])
    assert raised and "cancelled" in str(raised[0])
    # The abandoned waiter is invisible and cannot absorb the slot.
    assert admission.depths()["queued"] == 0
    admission.release()
    admission.acquire()  # fast path works: no ghost holds it
    admission.release()


def test_cancelled_waiter_frees_its_queue_place():
    """A waiter cancelled behind a live one leaves the queue at once: a
    new request queues instead of getting a 429 from a ghost."""
    admission = AdmissionController(max_active=1, queue_depth=2)
    admission.acquire()
    token = CancelToken()

    def waiter(cancel=None):
        try:
            with admission.slot(cancel=cancel):
                pass
        except Exception:
            pass

    live = threading.Thread(target=waiter, daemon=True)
    live.start()
    wait_until(lambda: admission.depths()["queued"] == 1)
    doomed = threading.Thread(target=waiter, args=(token,), daemon=True)
    doomed.start()
    wait_until(lambda: admission.depths()["queued"] == 2)
    token.cancel(REASON_EXPLICIT)
    drain([doomed])
    assert admission.depths() == {"active": 1, "queued": 1}
    late = threading.Thread(target=waiter, daemon=True)
    late.start()  # would be rejected if the ghost kept its place
    wait_until(lambda: admission.depths()["queued"] == 2)
    admission.release()
    drain([live, late])
    assert admission.depths() == {"active": 0, "queued": 0}


class _ReleaseThenCancel:
    """A cancel hook that frees the held slot and then raises.

    ``release`` grants the slot to the head of the queue, which is the
    waiter polling this hook, so that waiter is granted and cancelled
    in the same ``check`` -- the race, on every run.  Until ``ready()``
    holds the hook does nothing, so the waiter keeps polling.
    """

    def __init__(self, admission, ready):
        self.admission = admission
        self.ready = ready
        self.fired = False

    def check(self):
        if self.fired or not self.ready():
            return
        self.fired = True
        self.admission.release()
        raise RuntimeError("cancelled while being granted")


def test_grant_raced_by_cancellation_hands_slot_onward():
    """A waiter cancelled in the same instant it is granted must give
    the slot to the next waiter, not leak it."""
    admission = AdmissionController(max_active=1, queue_depth=4)
    admission.acquire()
    hook = _ReleaseThenCancel(
        admission, lambda: admission.depths()["queued"] == 2)
    outcomes = []

    def doomed():
        try:
            admission.acquire(cancel=hook)
            outcomes.append("granted")
            admission.release()
        except RuntimeError:
            outcomes.append("cancelled")

    def survivor():
        with admission.slot():
            outcomes.append("survivor")

    first = threading.Thread(target=doomed, daemon=True)
    first.start()
    wait_until(lambda: admission.depths()["queued"] == 1)
    second = threading.Thread(target=survivor, daemon=True)
    second.start()
    drain([first, second])
    assert hook.fired
    assert sorted(outcomes) == ["cancelled", "survivor"]
    assert admission.depths() == {"active": 0, "queued": 0}


def test_grants_follow_arrival_order():
    admission = AdmissionController(max_active=1, queue_depth=8)
    admission.acquire()  # hold the only slot
    order = []

    def worker(index):
        with admission.slot():
            order.append(index)

    threads = []
    for index in range(5):
        thread = threading.Thread(target=worker, args=(index,),
                                  daemon=True)
        thread.start()
        threads.append(thread)
        wait_until(lambda: admission.depths()["queued"] == index + 1)
    admission.release()  # grants cascade one release at a time
    drain(threads)
    assert order == list(range(5))
    assert admission.depths() == {"active": 0, "queued": 0}


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdmissionController(max_active=0)
    with pytest.raises(ValueError):
        AdmissionController(queue_depth=-1)
