"""Continuous production observability (O-CONT).

Recording every span of every query is exactly right for debugging one
query and exactly wrong under the serving layer's sustained concurrent
load.  This module makes observation *continuous* — always on, bounded,
and cheap — in four pieces:

* :class:`TraceSampler` — seeded head sampling.  One RNG draw per
  request decides whether a full span tree is recorded; the stream is
  drawn under a lock in request order, so virtual-clock runs (which are
  serial) make byte-identical decisions every time.
* :class:`ContinuousTracer` — the one engine tracer, created with the
  ``DynamicContext`` and never replaced; ``EngineConfig.continuous`` is
  its policy and :data:`TRACE_ALL` the policy "sample everything, retain
  everything".  It opens the request scope
  (:class:`~repro.observability.tracer.Request`): unrecorded requests
  cross every instrumentation point on the
  :data:`~repro.observability.tracer.NOOP_SPAN` fast path (a counter
  bump, no allocation); a sampled request gets a private
  :class:`~repro.observability.tracer.QueryTracer` on its ``Request``,
  so concurrent requests — and their async-pool branches, which run in
  a copy of the caller's context — never interleave span trees.
  **Tail-based retention** then decides what to keep: slow (over
  ``slow_ms``), errored, degraded or shed requests keep their full tree
  in a bounded ring; fast-and-healthy trees are summarized (plan stats,
  windowed latency) and dropped.
* the rolling window — not a second registry but a property of an
  instrument: the tracer feeds every ended request to the metrics
  registry's windowed ``trace.requests`` / ``trace.latency_ms``
  (:meth:`~repro.observability.metrics.MetricsRegistry.observe_request`),
  so rates and percentiles reflect the last minute, not process
  lifetime.
* :class:`FlightRecorder` — a lock-guarded ring of structured
  per-request :class:`FlightRecord`\\ s (tenant, plan fingerprint, cost,
  admission decision, per-phase latency, outcome, degradations) for
  *every* request, sampled or not.  Cumulative per-outcome counters sit
  next to the ring so the ledger reconciles exactly with the admission
  counters even after eviction.

Every recorded request, as it ends (``profile()`` included), also feeds its
per-operator actuals to the engine's one observed-statistics store
(:class:`~repro.runtime.observed.ObservedStatistics`), keyed by
``(plan fingerprint, operator id)``.

Thread-safety (A-CONC): every class here is crossed by request threads
and pool threads; all shared state is lock-disciplined (``@guarded_by``,
``TrackedRLock``, detector hooks).
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..clock import Clock
from ..concurrency import RACE, TrackedRLock, guarded_by
from .profile import aggregate_operators
from .tracer import NOOP_SPAN, REQUEST, QueryTracer, Request, Span

if TYPE_CHECKING:
    from ..runtime.observed import ObservedStatistics
    from .metrics import MetricsRegistry


def plan_fingerprint(plan_key: str) -> str:
    """A short stable identifier for a compiled plan: the truncated
    SHA-256 of its plan-cache key (query text + sorted external names).
    Deterministic across processes and runs — safe to persist."""
    return hashlib.sha256(plan_key.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ContinuousConfig:
    """The continuous plane's policy (``EngineConfig.continuous``)."""

    #: head-sampling probability per request (1.0 = trace everything)
    sample_rate: float = 1.0 / 16.0
    #: sampler RNG seed — same seed, same request order => same decisions
    seed: int = 0
    #: tail retention: a sampled request at/over this elapsed is "slow"
    slow_ms: float = 250.0
    #: bounded ring of retained span trees
    retain_capacity: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if self.retain_capacity < 1:
            raise ValueError("retain_capacity must be >= 1")


#: record every request and retain every span tree (full tracing)
TRACE_ALL = ContinuousConfig(sample_rate=1.0, slow_ms=0.0)


@guarded_by("_lock")
class TraceSampler:
    """Seeded head sampling: one draw per request, drawn under a lock so
    the decision stream is a pure function of (seed, request order)."""

    def __init__(self, rate: float = 1.0 / 16.0, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be in [0, 1]")
        self.rate = rate
        self.seed = seed
        self._lock = TrackedRLock("TraceSampler")
        self._rng = random.Random(seed)
        self.decisions = 0
        self.sampled = 0

    def decide(self) -> bool:
        """True iff this request should record a full span tree."""
        with self._lock:
            self.decisions += 1
            hit = self._rng.random() < self.rate
            if hit:
                self.sampled += 1
            RACE.detector.on_access(self, "decisions", True)
            return hit

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rate": self.rate,
                "seed": self.seed,
                "decisions": self.decisions,
                "sampled": self.sampled,
            }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


@dataclass
class FlightRecord:
    """One request as the server saw it — recorded for *every* request
    (the flight recorder is not sampled; only span trees are)."""

    tenant: str
    session_id: str
    fingerprint: str
    cost: float
    admission: str          # "admitted" | "shed:<reason>" | "rejected"
    outcome: str            # completed | shed | deadline | error | invalid
    elapsed_ms: float
    ts_ms: float
    phases: dict[str, float] = field(default_factory=dict)
    degradations: int = 0
    items: int = 0
    error: str | None = None
    sampled: bool = False
    retained: bool = False
    seq: int = 0

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts_ms": round(self.ts_ms, 3),
            "tenant": self.tenant,
            "session_id": self.session_id,
            "fingerprint": self.fingerprint,
            "cost": self.cost,
            "admission": self.admission,
            "outcome": self.outcome,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "phases": {name: round(ms, 3)
                       for name, ms in sorted(self.phases.items())},
            "degradations": self.degradations,
            "items": self.items,
            "error": self.error,
            "sampled": self.sampled,
            "retained": self.retained,
        }


@guarded_by("_lock")
class FlightRecorder:
    """A bounded ring of :class:`FlightRecord`\\ s plus cumulative
    per-outcome counters (the ring forgets, the ledger does not)."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._lock = TrackedRLock("FlightRecorder")
        self._ring: deque[FlightRecord] = deque(maxlen=capacity)
        self.recorded = 0
        self.outcomes: dict[str, int] = {}

    def record(self, record: FlightRecord) -> FlightRecord:
        with self._lock:
            self.recorded += 1
            record.seq = self.recorded
            self.outcomes[record.outcome] = \
                self.outcomes.get(record.outcome, 0) + 1
            self._ring.append(record)
            RACE.detector.on_access(self, "recorded", True)
        return record

    def records(self, tenant: str | None = None, outcome: str | None = None,
                limit: int | None = None) -> list[FlightRecord]:
        """Matching records, oldest first (most recent ``limit`` kept)."""
        with self._lock:
            out = list(self._ring)
        if tenant is not None:
            out = [r for r in out if r.tenant == tenant]
        if outcome is not None:
            out = [r for r in out if r.outcome == outcome]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "retained": len(self._ring),
                "dropped": self.recorded - len(self._ring),
                "outcomes": dict(sorted(self.outcomes.items())),
            }


# ---------------------------------------------------------------------------
# The engine tracer
# ---------------------------------------------------------------------------


@guarded_by("_lock")
class ContinuousTracer:
    """The one engine tracer: created with the dynamic context, never
    replaced.

    Every instrumentation point calls ``start``/``instant``/``current``
    unconditionally; what happens is decided by the request the calling
    context is running (:data:`~repro.observability.tracer.REQUEST`): a
    recorded request's private :class:`QueryTracer` gets the span, any
    other crossing returns :data:`~repro.observability.tracer.NOOP_SPAN`
    and bumps ``calls``.  :meth:`request` opens the scope; its policy
    (``config``) decides sampling when the request begins and retention
    when it ends.  No policy is "off": nothing is sampled, nothing is
    counted, and only a request that forces recording
    (``Platform.profile``) has a recorder.
    """

    def __init__(self, clock: Clock, config: ContinuousConfig | None = None,
                 observed: "Optional[ObservedStatistics]" = None,
                 metrics: "Optional[MetricsRegistry]" = None):
        self.clock = clock
        #: where a recorded request's operator actuals go as it ends
        #: (None: a bare tracer in a test keeps span trees only)
        self.observed = observed
        #: span histograms and the windowed per-request series
        self.metrics = metrics
        self._lock = TrackedRLock("ContinuousTracer")
        self.configure(config)

    def configure(self, config: ContinuousConfig | None) -> None:
        """Install a sampling/retention policy (None: off).  The sampler,
        the retention ring and the counters start over."""
        with self._lock:
            self.config = config
            self.sampler = None if config is None \
                else TraceSampler(config.sample_rate, config.seed)
            self._retained: deque[Span] = deque(
                maxlen=config.retain_capacity if config is not None else 1)
            #: unrecorded instrumentation crossings (the NOOP_SPAN fast
            #: path); a plain integer bumped without the lock, so
            #: approximate under threads by design
            self.calls = 0
            self.spans_allocated = 0
            self.traces_retained = 0
            self.traces_summarized = 0

    @property
    def enabled(self) -> bool:
        return self.config is not None

    # -- the tracer protocol (unconditional callsites) -----------------------

    def start(self, kind: str, name: str | None = None,
              parent: Span | None = None, **attrs):
        request = REQUEST.get()
        recorder = request.recorder if request is not None else None
        if recorder is None:
            self.calls += 1  # race-ok: monitoring counter, approximate by design
            return NOOP_SPAN
        return recorder.start(kind, name, parent, **attrs)

    def instant(self, kind: str, name: str | None = None, **attrs):
        request = REQUEST.get()
        recorder = request.recorder if request is not None else None
        if recorder is None:
            self.calls += 1  # race-ok: monitoring counter, approximate by design
            return NOOP_SPAN
        return recorder.instant(kind, name, **attrs)

    def current(self) -> Span | None:
        request = REQUEST.get()
        recorder = request.recorder if request is not None else None
        return recorder.current() if recorder is not None else None

    # -- request lifecycle ---------------------------------------------------

    def request(self, plan_key: str | None = None, bindings=None,
                budget_ms: float | None = None, probe=None,
                forced: bool = False) -> Request:
        """One request's scope: ``with tracer.request(...) as request``.
        ``plan_key`` names the plan its actuals are filed under (hashed
        only if the request is recorded), ``budget_ms`` becomes its
        absolute deadline, ``forced`` records it whatever the policy."""
        return Request(
            self, plan_key, bindings,
            None if budget_ms is None else self.clock.now_ms() + budget_ms,
            probe, forced)

    def _begin(self, request: Request) -> None:
        """A request with its own account begins: one sampler draw (the
        request count falls out of the sampler's counters, so this path
        takes exactly one lock), one private recorder if it hit."""
        sampler = self.sampler
        if request.forced or (sampler is not None and sampler.decide()):
            # span ids restart at 1 per request, so a retained tree is
            # identical no matter what ran concurrently
            request.recorder = QueryTracer(self.clock, self.metrics)
            request.sampled = True
        elif sampler is None:
            return  # off: nothing to time, nothing to end
        request.start_ms = self.clock.now_ms()

    def _end(self, request: Request) -> bool:
        """The request ended: feed summary stats, then apply tail
        retention.  Returns True iff the span tree was retained."""
        if request.start_ms is None:
            return False
        config = self.config
        elapsed = self.clock.now_ms() - request.start_ms
        if config is not None and self.metrics is not None:
            self.metrics.observe_request(elapsed, request.outcome)
        recorder = request.recorder
        if recorder is None:
            return False
        if request.plan_key is not None and self.observed is not None:
            self.observed.observe(plan_fingerprint(request.plan_key),
                                  aggregate_operators(recorder.roots))
        retain = config is not None and bool(recorder.roots) and (
            elapsed >= config.slow_ms or bool(request.degradations)
            or request.outcome != "completed")
        with self._lock:
            self.spans_allocated += recorder.spans_allocated
            if retain:
                self.traces_retained += 1
                self._retained.extend(recorder.roots)
            else:
                self.traces_summarized += 1
            RACE.detector.on_access(self, "spans_allocated", True)
        return retain

    # -- introspection -------------------------------------------------------

    def retained_roots(self) -> list[Span]:
        """The retained span trees, oldest first (bounded ring)."""
        with self._lock:
            return list(self._retained)

    @property
    def roots(self) -> list[Span]:
        return self.retained_roots()

    @property
    def last_root(self) -> Span | None:
        with self._lock:
            return self._retained[-1] if self._retained else None

    def snapshot(self) -> dict:
        sampler = self.sampler.snapshot() if self.sampler is not None else {}
        with self._lock:
            return {
                "sampler": sampler,
                "slow_ms": self.config.slow_ms if self.config else None,
                "requests": sampler.get("decisions", 0),
                "requests_sampled": sampler.get("sampled", 0),
                "traces_retained": self.traces_retained,
                "traces_summarized": self.traces_summarized,
                "retained_in_ring": len(self._retained),
                "spans_allocated": self.spans_allocated,
                "unsampled_calls": self.calls,
            }
