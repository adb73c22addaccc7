"""Asynchronous execution support for ``fn-bea:async`` (section 5.4).

"A large part of the overall query execution time is usually the time to
access external data sources ... to allow large latencies to be
overlapped, ALDSP extends the built-in XQuery function library with a
function that provides XQuery-based control over asynchronous execution."

Two execution modes:

* **wall clock** — real threads; latencies physically overlap;
* **virtual clock** — branches run sequentially with per-branch charge
  accounting, and the join advances the clock by the *maximum* branch
  charge, which is the defining property of overlap.  Deterministic, so
  benchmarks are stable.

Thread-ownership contract (A-CONC)
----------------------------------
Branch thunks run on pool threads.  A pool thread may *use* shared engine
services that are themselves synchronized (charge roundtrips, record cost
observations, hit the caches) but must **not** mutate context-level
topology — attaching databases, swapping tracers, invalidating plan caches.
Those operations belong to the thread that owns the ``DynamicContext``;
they iterate structures a branch may be reading.  The contract is
enforceable: code inside a branch can test :meth:`AsyncExecutor.in_branch`
and context-mutating entry points call :meth:`AsyncExecutor.assert_owner`,
which raises ``RuntimeError`` from a branch.  Updates a branch *does* need
to make (cost observations, stats counters) are merged through the
synchronized ``bump()`` / ``record()`` paths instead.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, TypeVar

from ..clock import Clock, VirtualClock
from ..concurrency import SyncCounters, guarded_by
from ..errors import PlatformClosedError
from ..observability.continuous import ContinuousTracer

T = TypeVar("T")

#: thread-local marker: depth of async-branch nesting on this thread
_BRANCH = threading.local()


@guarded_by("_lock")
class AsyncExecutor(SyncCounters):
    """Thread-safety (A-CONC): ``_lock`` guards the counters, the pool
    reference and the worker-count bound.  Pool shutdown happens *outside*
    the lock — a worker draining its queue may re-enter the executor, and
    joining it while holding ``_lock`` would deadlock."""

    #: how many parallel groups (and branches) were executed
    groups_run: int = 0
    branches_run: int = 0

    def __init__(self, clock: Clock, max_workers: int = 8, tracer=None):
        self.clock = clock
        self.max_workers = max_workers
        self._init_lock("AsyncExecutor")
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        #: the engine tracer (a bare executor gets one that is off)
        self.tracer = tracer if tracer is not None else ContinuousTracer(clock)

    # -- thread-ownership contract -------------------------------------------

    @staticmethod
    def in_branch() -> bool:
        """True when the calling thread is executing an async branch."""
        return getattr(_BRANCH, "depth", 0) > 0

    @staticmethod
    def assert_owner(what: str) -> None:
        """Guard for context-topology mutations: raises from a branch."""
        if AsyncExecutor.in_branch():
            raise RuntimeError(
                f"{what} must not be called from an async branch thread; "
                f"context-level topology belongs to the owning thread "
                f"(see AsyncExecutor thread-ownership contract)"
            )

    def set_max_workers(self, max_workers: int) -> None:
        """Re-size the worker pool.  The existing pool (if any) is joined
        and discarded so the next parallel group runs at the new width."""
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        with self._lock:
            if max_workers == self.max_workers:
                return
            self.max_workers = max_workers
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run_parallel(self, thunks: list[Callable[[], T]]) -> list[T]:
        """Evaluate the thunks 'concurrently' and return results in order.

        Exceptions propagate after all branches complete (the first raised,
        in branch order), so a failing branch cannot leave siblings
        half-accounted.

        Tracing: the group span is opened on the calling thread and passed
        as the branch spans' parent *explicitly* — pool threads have no
        ambient cursor for this trace, so relying on thread-local parenting
        would orphan every branch (O-OBS satellite fix).
        """
        if not thunks:
            return []
        with self._lock:
            self.groups_run += 1
            self.branches_run += len(thunks)
        if len(thunks) == 1:
            with self.tracer.start("async.branch", "branch-0"):
                return [self._in_branch(thunks[0])]
        group = self.tracer.start("async.group", branches=len(thunks))
        try:
            wrapped = [self._traced(thunk, i, group)
                       for i, thunk in enumerate(thunks)]
            if isinstance(self.clock, VirtualClock):
                return self._run_virtual(wrapped)
            return self._run_threads(wrapped)
        finally:
            # Closed after the join (virtual: after the max-branch charge),
            # so the group's elapsed time is the overlapped total.
            group.end()

    @staticmethod
    def _in_branch(thunk: Callable[[], T]) -> T:
        """Run a thunk with the branch marker set on the current thread."""
        _BRANCH.depth = getattr(_BRANCH, "depth", 0) + 1
        try:
            return thunk()
        finally:
            _BRANCH.depth -= 1

    def _traced(self, thunk: Callable[[], T], index: int, group) -> Callable[[], T]:
        tracer = self.tracer

        def run() -> T:
            with tracer.start("async.branch", f"branch-{index}", parent=group):
                return AsyncExecutor._in_branch(thunk)

        return run

    def _run_virtual(self, thunks: list[Callable[[], T]]) -> list[T]:
        results: list[T | None] = []
        errors: list[BaseException | None] = []
        charges: list[float] = []
        for thunk in thunks:
            self.clock.begin_branch()  # type: ignore[attr-defined]
            try:
                results.append(thunk())
                errors.append(None)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results.append(None)
                errors.append(exc)
            finally:
                charges.append(self.clock.end_branch())  # type: ignore[attr-defined]
        self.clock.charge_ms(max(charges))
        for error in errors:
            if error is not None:
                raise error
        return results  # type: ignore[return-value]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise PlatformClosedError(
                    "async executor is closed: the owning Platform was "
                    "close()d; submit no new parallel work"
                )
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def _run_threads(self, thunks: list[Callable[[], T]]) -> list[T]:
        pool = self._ensure_pool()
        # Each branch runs inside a copy of the submitting thread's
        # contextvars context, so the request it works for (bindings,
        # deadline, degradations, span recorder) is visible on the pool
        # thread.
        futures = [pool.submit(contextvars.copy_context().run, thunk)
                   for thunk in thunks]
        # Same contract as _run_virtual: every branch runs to completion
        # before the first exception (in branch order) propagates, so a
        # failing branch cannot leave siblings half-accounted.
        outcomes: list[tuple[T | None, BaseException | None]] = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                outcomes.append((None, exc))
        for _, error in outcomes:
            if error is not None:
                raise error
        return [result for result, _ in outcomes]  # type: ignore[misc]

    def measure(
        self, thunk: Callable[[], T], limit_ms: float | None = None
    ) -> tuple[T | BaseException, float, bool]:
        """Run a thunk measuring its latency charge; returns
        (result-or-exception, elapsed_ms, failed).  Used by
        ``fn-bea:timeout``.  In wall-clock mode a ``limit_ms`` bounds the
        *wait*: the thunk runs on the worker pool and an overrun returns a
        :class:`TimeoutError` outcome after ~``limit_ms``, matching the
        virtual clock's abandon-at-the-budget semantics (the worker is left
        to finish in the background, as a real cancellation would be)."""
        if isinstance(self.clock, VirtualClock):
            self.clock.begin_branch()  # type: ignore[attr-defined]
            try:
                result: T | BaseException = thunk()
                failed = False
            except BaseException as exc:  # noqa: BLE001
                result = exc
                failed = True
            elapsed = self.clock.end_branch()  # type: ignore[attr-defined]
            return result, elapsed, failed
        start = self.clock.now_ms()
        if limit_ms is not None:
            pool = self._ensure_pool()
            future = pool.submit(contextvars.copy_context().run, thunk)
            try:
                result = future.result(timeout=limit_ms / 1000.0)
                failed = False
            except FuturesTimeoutError:
                result = TimeoutError(f"branch exceeded {limit_ms:g}ms")
                failed = True
            except BaseException as exc:  # noqa: BLE001
                result = exc
                failed = True
            return result, self.clock.now_ms() - start, failed
        try:
            result = thunk()
            failed = False
        except BaseException as exc:  # noqa: BLE001
            result = exc
            failed = True
        return result, self.clock.now_ms() - start, failed

    def shutdown(self, wait: bool = True, final: bool = False) -> None:
        """Stop the worker pool.  Waits for workers by default — a
        fire-and-forget shutdown leaks threads across Platform resets.

        ``final=True`` (``Platform.close``) additionally marks the
        executor closed: a later parallel group raises
        :class:`PlatformClosedError` instead of silently re-creating a
        pool the closed platform would leak.  Idempotent and safe under
        concurrent callers — exactly one takes the pool reference."""
        with self._lock:
            if final:
                self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
