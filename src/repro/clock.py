"""Virtual and wall clocks.

The latency model of the simulated data sources (network roundtrips,
per-row transfer cost, service response times) charges time to a clock.
Benchmarks use :class:`VirtualClock` so results are deterministic and fast;
the asynchronous-execution machinery (section 5.4) can use
:class:`WallClock` to demonstrate real overlap.

Mid-tier CPU (the PP-k hash join's modelled cost) is charged to the
virtual clock only: on a wall clock it is paid by running, so a wall
clock sleeps only simulated source latency, and with every source at
zero latency nothing sleeps.
"""

from __future__ import annotations

import time

from .concurrency import TrackedRLock, guarded_by


class Clock:
    """Abstract clock measured in milliseconds."""

    def now_ms(self) -> float:
        raise NotImplementedError

    def charge_ms(self, millis: float) -> None:
        """Record that ``millis`` of latency elapsed."""
        raise NotImplementedError


@guarded_by("_lock")
class VirtualClock(Clock):
    """Deterministic clock: ``charge_ms`` advances simulated time.

    Supports *branch accounting* for simulated parallelism: inside a
    branch, charges accumulate into the branch rather than advancing the
    main clock; when a parallel group of branches joins, the main clock
    advances by the **maximum** branch total — the latency-overlap
    semantics of asynchronous execution (section 5.4).

    Field access is lock-disciplined, but the branch *stack* makes this
    clock single-query by design: concurrent queries would interleave
    their branch accounting.  Multi-threaded work uses :class:`WallClock`
    (the threaded stress harness does).
    """

    def __init__(self):
        self._now = 0.0
        self._branches: list[float] = []
        self._lock = TrackedRLock("VirtualClock")

    def now_ms(self) -> float:
        with self._lock:
            return self._now + sum(self._branches)

    def charge_ms(self, millis: float) -> None:
        with self._lock:
            if self._branches:
                self._branches[-1] += millis
            else:
                self._now += millis

    def set_ms(self, millis: float) -> None:
        with self._lock:
            self._now = max(self._now, millis)

    # -- branch accounting ---------------------------------------------------

    def begin_branch(self) -> None:
        with self._lock:
            self._branches.append(0.0)

    def end_branch(self) -> float:
        """Close the innermost branch and return its accumulated charge
        (the caller decides how to account for it)."""
        with self._lock:
            return self._branches.pop()


class WallClock(Clock):
    """Real time; ``charge_ms`` sleeps, so simulated source latencies are
    physically real and thread overlap behaves like production.  Only
    source latency is charged here: mid-tier work takes its own time."""

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def charge_ms(self, millis: float) -> None:
        if millis > 0:
            time.sleep(millis / 1000.0)
