"""Admission control and graceful load shedding (R-SERVE).

A mid-tier data-services platform sits in front of sources it does not
own; staying up under overload means refusing work *early and cheaply*
instead of letting every request in and timing all of them out.  Three
gates, in order:

1. **per-tenant quota** — a token bucket per tenant bounds any one
   tenant's request rate so a misbehaving client cannot starve the rest
   (reason ``"quota"``);
2. **load state** — the controller's admitted-but-unfinished depth
   drives three states: ``open`` (admit everything), ``shed-expensive``
   (past the soft limit: admit only requests whose *estimated plan cost*
   is at or under the threshold — cheap keyed lookups keep flowing while
   full scans are refused, reason ``"cost"``), and ``overload`` (past
   the hard limit: refuse everything, reason ``"overload"``);
3. **concurrency bound** — admitted requests execute in one of
   ``max_concurrent`` worker slots; the gap between admitted depth and
   the worker bound is the queue whose length the states watch.

Every rejection is a structured :class:`~repro.errors.AdmissionError`
carrying the tenant, the reason, the controller state and a
``retry_after_ms`` hint — *rejection is a protocol answer, not a
failure*: a well-behaved client backs off exactly that long and the
closed-loop driver in :mod:`repro.server.driver` does.

Thread-safety (A-CONC): one lock guards the buckets, the depth counter,
the shed/admit counters and the worker slots.  The slots are a count
under that lock, not a ``threading.Semaphore``: a semaphore takes the
kernel lock inside its ``Condition`` on every request, and a contended
kernel lock is how a lock convoy starts (:mod:`repro.concurrency`).  A
request waits only when every slot is busy — on a lock of its own,
outside ``_lock`` — and a finishing request frees its slot and wakes the
oldest waiter to try again.  As with the semaphore, a request arriving
meanwhile may take the slot first; the woken one then waits again.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..clock import Clock
from ..concurrency import RACE, TrackedRLock, guarded_by
from ..errors import AdmissionError

#: above this many keyed-lookup units (``admission_cost``) a request
#: counts as "expensive" for shed-expensive mode
DEFAULT_COST_THRESHOLD = 5.0


@dataclass
class TenantQuota:
    """Token-bucket parameters: sustained ``refill_per_s`` with bursts up
    to ``capacity``."""

    capacity: float = 100.0
    refill_per_s: float = 100.0


@guarded_by("_lock")
class TokenBucket:
    """A per-tenant rate limiter (caller supplies timestamps).

    Thread-safety (A-CONC): ``_lock`` guards the token count and refill
    timestamp — request threads of one tenant race on them."""

    def __init__(self, quota: TenantQuota, now_ms: float):
        self.quota = quota
        self._lock = TrackedRLock("TokenBucket")
        self.tokens = quota.capacity
        self.refilled_ms = now_ms

    def try_acquire(self, now_ms: float) -> float:
        """Take one token; returns 0.0 on success, else the suggested
        wait in ms until a token will be available."""
        with self._lock:
            elapsed_s = max(0.0, now_ms - self.refilled_ms) / 1000.0
            self.tokens = min(self.quota.capacity,
                              self.tokens + elapsed_s * self.quota.refill_per_s)
            self.refilled_ms = now_ms
            RACE.detector.on_access(self, "tokens", True)
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return 0.0
            deficit = 1.0 - self.tokens
            if self.quota.refill_per_s <= 0.0:
                return float("inf")
            return deficit / self.quota.refill_per_s * 1000.0


class AdmissionTicket:
    """Held for the duration of an admitted request; entering it takes a
    worker slot, releasing it frees the slot and drops the controller's
    depth."""

    def __init__(self, controller: "AdmissionController"):
        self._controller = controller
        self._slot = False
        self._released = False

    def __enter__(self) -> "AdmissionTicket":
        self._controller._take_slot()
        self._slot = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._finish(self._slot)


STATE_OPEN = "open"
STATE_SHED_EXPENSIVE = "shed-expensive"
STATE_OVERLOAD = "overload"


@guarded_by("_lock")
class AdmissionController:
    """Per-tenant quotas + depth-driven load shedding.

    Thread-safety (A-CONC): ``_lock`` guards the bucket map, the depth,
    every counter, the free worker slots and the queue of requests
    waiting for one.  A waiter blocks on its own lock *outside* ``_lock``."""

    def __init__(self, clock: Clock, max_concurrent: int = 8,
                 queue_soft: int = 16, queue_hard: int = 32,
                 cost_threshold: float = DEFAULT_COST_THRESHOLD,
                 default_quota: TenantQuota | None = None):
        if not 0 < max_concurrent <= queue_soft <= queue_hard:
            raise ValueError("need 0 < max_concurrent <= queue_soft <= queue_hard")
        self.clock = clock
        self.max_concurrent = max_concurrent
        self.queue_soft = queue_soft
        self.queue_hard = queue_hard
        self.cost_threshold = cost_threshold
        self.default_quota = default_quota
        self._lock = TrackedRLock("AdmissionController")
        #: worker slots not held by a running request
        self.free_slots = max_concurrent
        #: requests waiting for a slot, oldest first: each blocks on its
        #: own held lock until a finishing request releases it
        self._slot_waiters: deque[threading.Lock] = deque()
        self._buckets: dict[str, TokenBucket] = {}
        self.depth = 0          # admitted and not yet finished
        self.admitted = 0
        self.shed_quota = 0
        self.shed_overload = 0
        self.shed_cost = 0
        #: per-tenant admitted/shed ledger (O-CONT: shed events recorded)
        self._tenants: dict[str, dict[str, int]] = {}
        #: the most recent structured shed events, newest last
        self._recent_sheds: deque = deque(maxlen=32)
        #: smoothed service time; the retry-after hint for load sheds
        self._service_ms_ewma = 10.0

    # -- administration ------------------------------------------------------

    def set_quota(self, tenant: str, capacity: float,
                  refill_per_s: float) -> None:
        quota = TenantQuota(capacity, refill_per_s)
        with self._lock:
            self._buckets[tenant] = TokenBucket(quota, self.clock.now_ms())
            RACE.detector.on_access(self, "_buckets", True)

    # -- the admission decision ----------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:  # caller-holds: _lock
        if self.depth >= self.queue_hard:
            return STATE_OVERLOAD
        if self.depth >= self.queue_soft:
            return STATE_SHED_EXPENSIVE
        return STATE_OPEN

    def admit(self, tenant: str, cost: float) -> AdmissionTicket:
        """Admit or shed one request of estimated ``cost``.

        Returns a ticket to run the request under (``with ticket:``) or
        raises a structured :class:`~repro.errors.AdmissionError`."""
        now = self.clock.now_ms()
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None and self.default_quota is not None:
                bucket = TokenBucket(self.default_quota, now)
                self._buckets[tenant] = bucket
                RACE.detector.on_access(self, "_buckets", True)
            state = self._state_locked()
            if bucket is not None:
                wait_ms = bucket.try_acquire(now)
                if wait_ms > 0.0:
                    self.shed_quota += 1
                    self._record_shed_locked(tenant, "quota", cost, state, now)
                    raise AdmissionError(
                        f"tenant {tenant!r} over quota",
                        tenant=tenant, reason="quota",
                        retry_after_ms=round(wait_ms, 3), state=state)
            if state == STATE_OVERLOAD:
                self.shed_overload += 1
                self._record_shed_locked(tenant, "overload", cost, state, now)
                raise AdmissionError(
                    f"server overloaded (depth {self.depth} >= "
                    f"{self.queue_hard})",
                    tenant=tenant, reason="overload",
                    retry_after_ms=self._retry_after_locked(), state=state)
            if state == STATE_SHED_EXPENSIVE and cost > self.cost_threshold:
                self.shed_cost += 1
                self._record_shed_locked(tenant, "cost", cost, state, now)
                raise AdmissionError(
                    f"shedding expensive request (cost {cost:g} > "
                    f"{self.cost_threshold:g} at depth {self.depth})",
                    tenant=tenant, reason="cost",
                    retry_after_ms=self._retry_after_locked(), state=state)
            self.depth += 1
            self.admitted += 1
            self._tenant_locked(tenant)["admitted"] += 1
            RACE.detector.on_access(self, "depth", True)
        return AdmissionTicket(self)

    def _tenant_locked(self, tenant: str) -> dict:  # caller-holds: _lock
        entry = self._tenants.get(tenant)
        if entry is None:
            entry = {"admitted": 0, "shed": 0}
            self._tenants[tenant] = entry
        return entry

    def _record_shed_locked(self, tenant, reason, cost, state, now_ms):  # caller-holds: _lock
        """One structured shed event: the per-tenant ledger plus a
        bounded ring of recent events for the serving snapshot."""
        self._tenant_locked(tenant)["shed"] += 1
        self._recent_sheds.append({
            "ts_ms": round(now_ms, 3),
            "tenant": tenant,
            "reason": reason,
            "cost": cost,
            "state": state,
            "depth": self.depth,
        })

    def _retry_after_locked(self) -> float:  # caller-holds: _lock
        """Hint: time for the queue above the soft limit to drain at the
        observed service rate."""
        backlog = max(1, self.depth - self.queue_soft + 1)
        per_slot = self._service_ms_ewma / max(1, self.max_concurrent)
        return round(backlog * per_slot, 3)

    def observe_service_ms(self, elapsed_ms: float) -> None:
        """Feed a completed request's latency into the retry-after model."""
        with self._lock:
            self._service_ms_ewma += 0.2 * (elapsed_ms - self._service_ms_ewma)
            RACE.detector.on_access(self, "_service_ms_ewma", True)

    def _take_slot(self) -> None:
        """Take a worker slot, waiting only when every slot is busy."""
        while True:
            with self._lock:
                if self.free_slots:
                    self.free_slots -= 1
                    RACE.detector.on_access(self, "free_slots", True)
                    return
                waiter = threading.Lock()
                waiter.acquire()
                self._slot_waiters.append(waiter)
                RACE.detector.on_access(self, "_slot_waiters", True)
            waiter.acquire()  # released by a finishing request: try again

    def _finish(self, slot: bool) -> None:
        """An admitted request is done: drop the depth and, if it took a
        slot, free the slot and wake the oldest waiter."""
        with self._lock:
            self.depth -= 1
            RACE.detector.on_access(self, "depth", True)
            if slot:
                self.free_slots += 1
                RACE.detector.on_access(self, "free_slots", True)
                if self._slot_waiters:
                    self._slot_waiters.popleft().release()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "depth": self.depth,
                "admitted": self.admitted,
                "shed_quota": self.shed_quota,
                "shed_overload": self.shed_overload,
                "shed_cost": self.shed_cost,
                "service_ms_ewma": round(self._service_ms_ewma, 3),
                "tenants": {tenant: dict(counts) for tenant, counts
                            in sorted(self._tenants.items())},
                "recent_sheds": [dict(event)
                                 for event in self._recent_sheds],
            }
