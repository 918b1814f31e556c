"""A bounded worker pool for the serving layer.

Deliberately small and dependency-free: a fixed number of daemon worker
threads drain a (optionally bounded) queue of submitted callables, each
resolving a :class:`PendingResult`.  Bounding the queue gives the service
backpressure — a burst beyond ``max_pending`` blocks the submitter instead
of growing memory without limit.

Queued work can carry a **deadline** (absolute ``time.monotonic()``
seconds): work still queued when its deadline passes is failed with
:class:`DeadlineExceededError` instead of executed — a query nobody is
waiting for anymore should not occupy a worker.  Work that already
started is never interrupted; deadlines bound *queue wait*, not
execution.  :meth:`PendingResult.cancel` gives callers the same lever
explicitly (client disconnected, result no longer wanted).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Iterable, Iterator, List, Optional


class ServiceClosedError(RuntimeError):
    """Submission to a pool/service that has been closed."""


class WorkerDiedError(ServiceClosedError):
    """A worker process exited while requests were outstanding."""


class CancelledError(RuntimeError):
    """The work was cancelled while still queued (never started)."""


class DeadlineExceededError(TimeoutError):
    """The work's deadline passed before it could start executing."""


class PendingResult:
    """Future-like handle for one submitted unit of work."""

    def __init__(self, deadline: Optional[float] = None):
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: absolute time.monotonic() seconds; None = no deadline
        self.deadline = deadline
        self._state_lock = threading.Lock()
        self._started = False
        self._resolved = False
        self._callbacks: List[Callable[["PendingResult"], None]] = []

    # -- worker side -------------------------------------------------------

    def _start(self) -> bool:
        """Transition queued -> running; False if already resolved
        (cancelled / expired), in which case the work must not run."""
        with self._state_lock:
            if self._resolved:
                return False
            self._started = True
            return True

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        # Done-callbacks run *before* the event wakes waiters, so state
        # they maintain (service counters, admission charge-backs) is
        # consistent by the time result() returns.  The event is set in
        # a finally: a raising callback must never strand waiters.
        with self._state_lock:
            if self._resolved:
                return
            self._resolved = True
            self._value = value
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
        try:
            for callback in callbacks:
                callback(self)
        finally:
            self._event.set()

    def _resolve(self, value: Any) -> None:
        self._finish(value, None)

    def _fail(self, error: BaseException) -> None:
        self._finish(None, error)

    # -- caller side -------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel if still queued: resolves with :class:`CancelledError`
        and returns True.  No-op (returns False) once the work has
        started running or finished — running work is never interrupted.
        """
        with self._state_lock:
            if self._started or self._resolved:
                return False
            self._resolved = True
            self._error = CancelledError("cancelled while queued")
            callbacks, self._callbacks = self._callbacks, []
        try:
            for callback in callbacks:
                callback(self)
        finally:
            self._event.set()
        return True

    def cancelled(self) -> bool:
        return isinstance(self._error, CancelledError)

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this work's deadline (if any) has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    @property
    def error(self) -> Optional[BaseException]:
        """The failure, without blocking — meaningful once resolved.
        Done-callbacks read this; external callers should prefer
        :meth:`exception`, which waits for resolution.
        """
        return self._error

    def add_done_callback(self, fn: Callable[["PendingResult"], None]) -> None:
        """Run ``fn(self)`` when the work resolves (immediately if it
        already has).  Callbacks run on the resolving thread, before
        waiters are woken; exceptions propagate to it, so keep them
        small and non-raising.
        """
        with self._state_lock:
            if not self._resolved:
                self._callbacks.append(fn)
                return
        fn(self)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the work finishes; re-raises its exception."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"no result within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """Block until done; the exception the work raised, or None."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"no result within {timeout}s")
        return self._error


class WorkerPool:
    """``workers`` daemon threads draining one submission queue."""

    def __init__(self, workers: int = 4, *, max_pending: int = 0,
                 name: str = "repro-serve"):
        if workers < 1:
            raise ValueError("need at least one worker")
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_pending)
        self._lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = [
            threading.Thread(target=self._drain, name=f"{name}-{index}",
                             daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        return len(self._threads)

    def submit(self, fn: Callable[..., Any], *args: Any,
               deadline: Optional[float] = None,
               **kwargs: Any) -> PendingResult:
        """Enqueue ``fn(*args, **kwargs)``; blocks when the queue is full.

        ``deadline`` is absolute ``time.monotonic()`` seconds: if it
        passes while the work is still queued, the work is failed with
        :class:`DeadlineExceededError` instead of executed.
        """
        pending = PendingResult(deadline=deadline)
        # The closed check and the put must be atomic: an item enqueued
        # behind close()'s shutdown sentinels would never drain and its
        # PendingResult would hang forever.  Workers drain without the
        # lock, so a put blocked on a full queue still makes progress.
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is closed")
            self._queue.put((pending, fn, args, kwargs))
        return pending

    def map_unordered(self, fn: Callable[[Any], Any],
                      items: Iterable[Any], *,
                      timeout: Optional[float] = None) -> Iterator[Any]:
        """Apply ``fn`` to every item on the pool; yield results as each
        completes (completion order, not submission order).

        The whole batch is submitted up front, so slow items never block
        fast ones behind them.  The first item whose ``fn`` raises
        re-raises here (after which remaining results are discarded, but
        their work still runs to completion on the pool).  ``timeout``
        bounds the wait for **each** yielded result.
        """
        done: "queue.Queue" = queue.Queue()

        def run(item: Any) -> None:
            try:
                done.put((True, fn(item)))
            except BaseException as error:  # noqa: BLE001 - ferried below
                done.put((False, error))

        submitted = 0
        for item in list(items):
            self.submit(run, item)
            submitted += 1
        for _ in range(submitted):
            try:
                ok, value = done.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no result within {timeout}s") from None
            if not ok:
                raise value
            yield value

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                return
            pending, fn, args, kwargs = item
            if pending.expired():
                pending._fail(DeadlineExceededError(
                    "deadline passed while queued"))
                continue
            if not pending._start():  # cancelled while queued
                continue
            try:
                pending._resolve(fn(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 - must not die
                pending._fail(error)

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; queued work still drains before exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
