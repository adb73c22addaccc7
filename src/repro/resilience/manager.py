"""The resilience manager: retry/breaker wiring and partial-result mode.

One :class:`ResilienceManager` lives on each
:class:`~repro.runtime.context.DynamicContext` and fronts **every** source
invocation path — pushed-SQL regions, PP-k block fetches, middleware table
scans, functional adaptors (web service / stored procedure / file / Java),
and SDO submit.  With no policy configured it is a pass-through (plus an
attempt counter), so behaviour is bit-for-bit what it was before the
resilience layer existed.

With :meth:`set_policy` / a default policy, each source gets a
:class:`SourceGuard` that applies the circuit breaker, per-attempt timeout
and retry/backoff — all waiting charged to the platform clock, all jitter
seeded, so chaos runs replay deterministically under the virtual clock.

*Partial-results mode* (``EngineConfig.partial_results``) turns a source failure
that survives the guard into graceful degradation: the caller gets an
empty sequence and a :class:`DegradationRecord` is collected on the query
(``Platform.last_degradations``) instead of the whole federated plan
aborting (section 5.6's middleware-keeps-answering story).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..clock import Clock, VirtualClock
from ..concurrency import TrackedRLock, guarded_by
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    SourceError,
    SourceTimeoutError,
)
from ..observability.continuous import ContinuousTracer
from ..observability.tracer import REQUEST
from .policy import CircuitBreaker, SourcePolicy


@dataclass
class DegradationRecord:
    """One absorbed source failure in a partial-results query."""

    source: str
    error: str
    attempts: int
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "error": self.error,
            "attempts": self.attempts,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@guarded_by("_lock")
class SourceGuard:
    """Per-source runtime state: breaker, retry RNG, counters.

    Thread-safety (A-CONC): breaker decisions run under ``_lock``;
    counter updates go through the stats object's synchronized ``bump``."""

    def __init__(self, name: str, policy: SourcePolicy, clock: Clock, stats,
                 tracer):
        self.name = name
        self.policy = policy
        self.clock = clock
        self.stats = stats
        self.tracer = tracer
        self.rng = random.Random(policy.retry.seed if policy.retry else 0)
        self.breaker = (CircuitBreaker(policy.breaker, clock)
                        if policy.breaker else None)
        self._lock = TrackedRLock("SourceGuard")

    def call(self, thunk: Callable[[], object], deadline=None):
        """Run ``thunk`` under the policy.  ``deadline`` is the owning
        :class:`ResilienceManager` (or None): each attempt and each retry
        backoff is checked against the calling request's remaining budget,
        so a doomed query stops consuming source roundtrips (R-SERVE)."""
        retry = self.policy.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        start = self.clock.now_ms()
        attempts = 0
        while True:
            if deadline is not None:
                deadline.check_deadline(self.name)
            with self._lock:
                if self.breaker is not None:
                    try:
                        self.breaker.before_call(self.name)  # CircuitOpenError
                    except CircuitOpenError:
                        self.tracer.instant("breaker.rejected", self.name)
                        raise
            attempts += 1
            if self.stats is not None:
                self.stats.bump(attempts=1)
            try:
                with self.tracer.start("source.attempt", self.name,
                                       attempt=attempts):
                    result = self._attempt(thunk, deadline)
            except CircuitOpenError:
                raise  # shed inside the attempt: not a source failure
            except SourceError as exc:
                with self._lock:
                    if self.stats is not None:
                        self.stats.bump(failures=1)
                    if self.breaker is not None:
                        was_open = self.breaker.state == "open"
                        self.breaker.record_failure()
                        if self.breaker.state == "open" and not was_open \
                                and self.stats is not None:
                            self.stats.bump(breaker_trips=1)
                if attempts >= max_attempts:
                    # Annotate for DegradationRecord construction upstream.
                    exc.resilience_attempts = attempts
                    exc.resilience_elapsed_ms = self.clock.now_ms() - start
                    raise
                delay = retry.delay_ms(attempts, self.rng)
                if deadline is not None:
                    remaining = deadline.remaining_ms()
                    if remaining is not None and delay >= remaining:
                        # The backoff alone exhausts the budget: don't
                        # sleep into a deadline we already know we'll miss.
                        raise DeadlineExceededError(
                            f"request deadline passed during retry backoff "
                            f"for source {self.name} "
                            f"(attempt {attempts}/{max_attempts})"
                        ) from exc
                if self.stats is not None:
                    self.stats.bump(retries=1)
                self.clock.charge_ms(delay)
            else:
                with self._lock:
                    if self.breaker is not None:
                        self.breaker.record_success()
                return result

    def _attempt(self, thunk: Callable[[], object], deadline=None):
        """One attempt under the policy's time budget.

        Virtual clock: the attempt runs in a clock branch; an overrun
        charges exactly ``timeout_ms`` and raises
        :class:`SourceTimeoutError` (the system abandons the attempt at the
        budget, per section 5.6).  Wall clock: the overrun is detected
        after the fact — real time cannot be recalled — and still raises,
        so retry/degradation semantics match across modes.

        The request deadline caps the per-attempt budget: an attempt never
        gets more time than the whole request has left.
        """
        limit = self.policy.timeout_ms
        deadline_capped = False
        if deadline is not None:
            remaining = deadline.remaining_ms()
            if remaining is not None and (limit is None or remaining < limit):
                limit = remaining
                deadline_capped = True
        if limit is None:
            return thunk()
        if isinstance(self.clock, VirtualClock):
            self.clock.begin_branch()
            try:
                result = thunk()
                failed = None
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failed = exc
            elapsed = self.clock.end_branch()
            if failed is not None:
                self.clock.charge_ms(min(elapsed, limit))
                raise failed
            if elapsed > limit:
                self.clock.charge_ms(limit)
                raise self._overrun(limit, elapsed, deadline_capped)
            self.clock.charge_ms(elapsed)
            return result
        start = self.clock.now_ms()
        result = thunk()
        elapsed = self.clock.now_ms() - start
        if elapsed > limit:
            raise self._overrun(limit, elapsed, deadline_capped)
        return result

    def _overrun(self, limit: float, elapsed: float, deadline_capped: bool):
        """The error for a blown attempt budget.  A policy-timeout overrun
        is a retryable/absorbable :class:`SourceTimeoutError`; a
        request-deadline overrun is terminal — retrying or degrading a
        request that is already past its deadline only burns roundtrips."""
        if deadline_capped:
            return DeadlineExceededError(
                f"source {self.name} overran the request's remaining "
                f"{limit:g}ms budget (needed {elapsed:g}ms)"
            )
        return SourceTimeoutError(
            f"source {self.name} exceeded its {limit:g}ms budget "
            f"(needed {elapsed:g}ms)"
        )


@guarded_by("_lock")
class ResilienceManager:
    """Source policies, guards and degradation records for one server.

    Thread-safety (A-CONC): ``_lock`` guards the policy/guard/stats maps
    and the degradation list; counters land on each source's synchronized
    :class:`~repro.relational.database.SourceStats`."""

    #: policy key applying to every source without an explicit policy
    DEFAULT = "*"

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self._policies: dict[str, SourcePolicy] = {}
        self._guards: dict[str, SourceGuard] = {}
        self._stats: dict[str, object] = {}
        self._lock = TrackedRLock("ResilienceManager")
        #: the engine tracer, handed to every guard (a bare manager gets
        #: one that is off)
        self.tracer = tracer if tracer is not None else ContinuousTracer(clock)

    # -- per-request state ----------------------------------------------------
    # The degradation records and the deadline live on the calling
    # context's request (observability.tracer.Request): concurrent
    # requests on one shared manager each see only their own, and async
    # branch threads see their request's (the executor copies the
    # caller's context; the record list is the same object).

    @property
    def degradations(self) -> list[DegradationRecord]:
        """Degradation records of the calling context's most recent
        request."""
        request = REQUEST.get()
        return request.degradations if request is not None else []

    def remaining_ms(self) -> float | None:
        """Clock-ms left before the calling request's deadline (R-SERVE),
        which flows into every attempt budget and retry decision below."""
        request = REQUEST.get()
        if request is None or request.deadline_ms is None:
            return None
        return request.deadline_ms - self.clock.now_ms()

    def check_deadline(self, source: str) -> None:
        """Raise :class:`DeadlineExceededError` if the request's deadline
        has already passed — *before* spending a source roundtrip on it."""
        remaining = self.remaining_ms()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceededError(
                f"request deadline passed before invoking source {source} "
                f"({-remaining:g}ms over budget)"
            )

    # -- configuration -------------------------------------------------------

    def set_policy(self, name: str, policy: SourcePolicy | None) -> None:
        """Install (or, with ``None``, remove) a source's policy.  ``"*"``
        sets the default for sources without their own."""
        with self._lock:
            if policy is None:
                self._policies.pop(name, None)
            else:
                self._policies[name] = policy
            if name == self.DEFAULT:
                self._guards.clear()  # defaults changed under every source
            else:
                self._guards.pop(name, None)

    def policy_for(self, name: str) -> SourcePolicy | None:
        return self._policies.get(name) or self._policies.get(self.DEFAULT)

    def register_stats(self, name: str, stats) -> None:
        """Bind the SourceStats object resilience counters land on."""
        with self._lock:
            self._stats[name] = stats

    # -- invocation path -----------------------------------------------------

    def call(self, name: str, thunk: Callable[[], object], stats=None):
        """Run one source invocation under the source's policy (if any)
        and the calling request's deadline (if one is set)."""
        self.check_deadline(name)
        if stats is not None and self._stats.get(name) is not stats:
            self.register_stats(name, stats)
        guard = self._guard(name)
        if guard is None:
            bound = stats if stats is not None else self._stats.get(name)
            if bound is not None:
                bound.bump(attempts=1)
            return thunk()
        return guard.call(thunk, deadline=self)

    def _guard(self, name: str) -> SourceGuard | None:
        with self._lock:
            guard = self._guards.get(name)
            if guard is None:
                policy = self.policy_for(name)
                if policy is None:
                    return None
                guard = SourceGuard(name, policy, self.clock,
                                    self._stats.get(name), self.tracer)
                self._guards[name] = guard
            elif guard.stats is None and name in self._stats:
                guard.stats = self._stats[name]
            return guard

    # -- graceful degradation ------------------------------------------------

    def absorb(self, source: str, exc: SourceError) -> bool:
        """Record the failure as a degradation and report True (the caller
        substitutes an empty sequence) — asked only in partial-results mode
        (``DynamicContext.absorb``).  Deadline overruns are never absorbed
        (False: re-raise): a request past its budget must stop, not degrade
        and keep consuming roundtrips."""
        if isinstance(exc, DeadlineExceededError):
            return False
        record = DegradationRecord(
            source=source,
            error=str(exc),
            attempts=getattr(exc, "resilience_attempts", 1),
            elapsed_ms=getattr(exc, "resilience_elapsed_ms", 0.0),
        )
        with self._lock:
            # The list is per-request, but a request's async branches may
            # absorb concurrently — the manager lock covers the append.
            self.degradations.append(record)
            stats = self._stats.get(source)
        if stats is not None:
            stats.bump(degraded=1)
        return True

    # -- observability -------------------------------------------------------

    def breaker_state(self, name: str) -> str | None:
        guard = self._guards.get(name)
        if guard is None or guard.breaker is None:
            return None
        return guard.breaker.state

    def breaker_transitions(self, name: str) -> list[tuple[float, str, str]]:
        guard = self._guards.get(name)
        if guard is None or guard.breaker is None:
            return []
        return list(guard.breaker.transitions)

    def health(self, name: str) -> dict:
        """The resilience-side health fields for one source."""
        policy = self.policy_for(name)
        return {
            "breaker": self.breaker_state(name),
            "breaker_transitions": len(self.breaker_transitions(name)),
            "policy": None if policy is None else policy.describe(),
        }

    def reset_stats(self) -> None:
        """Clear the calling context's degradation records (breaker state
        is live and survives)."""
        with self._lock:
            del self.degradations[:]
