"""Query tracing: one request, one span tree mirroring the executed plan
(O-OBS).

Section 9's "observed cost" pitch is about *instrumenting the system* and
optimizing from what is actually measured.  The runtime crosses an
instrumentation point at every operator instance it executes — pushed SQL
region, PP-k block fetch/join, index join build, group-by, async branch,
cache lookup, SDO submit — and at each source roundtrip, retry attempt and
breaker rejection below them.  What a crossing does is decided by the
:class:`Request` the calling context is running: a request that is being
recorded owns a :class:`QueryTracer` and gets a :class:`Span`; any other
crossing gets the shared :data:`NOOP_SPAN`.  Timestamps come from the
platform's active :class:`~repro.clock.Clock`, so traces are
**deterministic** under the virtual clock (same query + same seed =>
byte-identical export) and real under a wall clock.

Overhead contract
-----------------
A crossing outside a recorded request allocates **nothing**: the engine
tracer (:class:`~repro.observability.continuous.ContinuousTracer`) returns
the module-level immutable :data:`NOOP_SPAN` singleton and bumps a plain
integer call counter.  That counter is the auditable part of the
contract: benchmarks assert ``calls > 0 and spans_allocated == 0`` to
prove the hot path crossed the instrumentation points without creating a
single span object (``benchmarks/test_observability.py``).

Thread model
------------
Span parenting normally follows a per-thread cursor stack.  Crossing the
:class:`~repro.runtime.asyncexec.AsyncExecutor` pool boundary is the one
place that must NOT rely on ambient state: the executor captures the
active span *before* submitting and passes it as the explicit ``parent``
of each branch span, so branches nest under the query span even when they
run on pool threads (and under the virtual clock, where they run inline).
Spans may close out of order relative to their siblings — streaming
operators interleave — so closing removes the span from wherever it sits
in its cursor rather than asserting LIFO.
"""

from __future__ import annotations

import contextvars
import threading
from types import MappingProxyType
from typing import TYPE_CHECKING, Optional

from ..clock import Clock
from ..concurrency import TrackedRLock, guarded_by
from ..errors import DeadlineExceededError

if TYPE_CHECKING:
    from .metrics import MetricsRegistry


class Span:
    """One timed operation in the executed plan."""

    __slots__ = ("sid", "kind", "name", "start_ms", "end_ms", "attrs",
                 "children", "parent", "_tracer", "_tid")

    def __init__(self, sid: int, kind: str, name: str | None,
                 start_ms: float, tracer: "QueryTracer", tid: int):
        self.sid = sid
        self.kind = kind
        self.name = name
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.attrs: dict = {}
        self.children: list[Span] = []
        self.parent: Span | None = None
        self._tracer = tracer
        self._tid = tid

    # -- annotation ----------------------------------------------------------

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def add(self, key: str, n: int = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + n

    # -- lifecycle -----------------------------------------------------------

    def end(self) -> None:
        if self.end_ms is None:
            self._tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is GeneratorExit:
            # the consumer closed the stream early: not a failure
            self.attrs["abandoned"] = True
        elif exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.end()
        return False

    # -- introspection -------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def walk(self):
        """Pre-order traversal including self."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> "list[Span]":
        return [span for span in self.walk() if span.kind == kind]

    def __repr__(self) -> str:
        return (f"Span#{self.sid}({self.kind}"
                + (f" {self.name!r}" if self.name else "")
                + f" {self.elapsed_ms:.3f}ms)")


class _NoopSpan:
    """The shared do-nothing span: every method is a no-op, so disabled
    tracing costs a method call and nothing else."""

    __slots__ = ()

    kind = "noop"
    name = None
    start_ms = 0.0
    end_ms = 0.0
    elapsed_ms = 0.0
    attrs: dict = {}
    children: list = []
    parent = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def add(self, key: str, n: int = 1) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the singleton every unrecorded crossing returns — no allocation, ever
NOOP_SPAN = _NoopSpan()


@guarded_by("_lock")
class QueryTracer:
    """The span recorder of one recorded request.

    Spans started on a thread parent to that thread's innermost open span;
    a span started with an explicit ``parent`` (the async-pool handoff)
    parents there instead and seeds its own thread's cursor.  Span ids are
    allocated sequentially under a lock, so virtual-clock runs (which are
    sequential) produce identical ids every time.
    """

    def __init__(self, clock: Clock, metrics: "Optional[MetricsRegistry]" = None):
        self.clock = clock
        self.metrics = metrics
        self.roots: list[Span] = []
        self.calls = 0
        self.spans_allocated = 0
        self._next_id = 1
        self._cursors: dict[int, list[Span]] = {}
        self._lock = TrackedRLock("QueryTracer")

    # -- span lifecycle ------------------------------------------------------

    def start(self, kind: str, name: str | None = None,
              parent: Span | None = None, **attrs) -> Span:
        tid = threading.get_ident()
        with self._lock:
            self.calls += 1
            self.spans_allocated += 1
            span = Span(self._next_id, kind, name, self.clock.now_ms(), self, tid)
            self._next_id += 1
            if attrs:
                # None-valued attrs are "not applicable" (e.g. a missing
                # operator id) and are simply not recorded.
                span.attrs.update(
                    {key: value for key, value in attrs.items() if value is not None}
                )
            stack = self._cursors.setdefault(tid, [])
            if parent is None and stack:
                parent = stack[-1]
            span.parent = parent
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            stack.append(span)
        return span

    def instant(self, kind: str, name: str | None = None, **attrs) -> Span:
        """A zero-duration event span (e.g. a breaker rejection)."""
        span = self.start(kind, name, **attrs)
        span.end()
        return span

    def _close(self, span: Span) -> None:
        with self._lock:
            span.end_ms = self.clock.now_ms()
            stack = self._cursors.get(span._tid)
            if stack is not None:
                try:
                    stack.remove(span)
                except ValueError:
                    pass  # closed from a different scope; tree is intact
                if not stack:
                    del self._cursors[span._tid]
        if self.metrics is not None:
            self.metrics.histogram("trace.span_ms", kind=span.kind) \
                .observe(span.end_ms - span.start_ms)

    # -- introspection -------------------------------------------------------

    def current(self) -> Span | None:
        """The calling thread's innermost open span (explicitly capture
        this before handing work to another thread)."""
        stack = self._cursors.get(threading.get_ident())
        return stack[-1] if stack else None

    @property
    def last_root(self) -> Span | None:
        return self.roots[-1] if self.roots else None


# ---------------------------------------------------------------------------
# The request scope
# ---------------------------------------------------------------------------


#: the request the calling context ran most recently.  Its own code is
#: executing (``running``), or it is suspended at a stream's ``yield``, or
#: it has ended and stays only so ``Platform.last_degradations`` can
#: answer.  Async-pool thunks run in a copy of the caller's context, so a
#: request's branches see the same object.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "repro.request", default=None)

_NO_BINDINGS = MappingProxyType({})


class Request:
    """What one request owns — bindings (the caller's variables beside the
    plan's lifted literals), the module variables evaluated under them,
    the estimates its re-plannable operators read, absolute deadline,
    degradation records, span recorder (None: not sampled), batch probe —
    and the scope that puts it on the calling context: ``with
    tracer.request(...) as request``.

    **Nesting is decided by what is running.**  A request opened while
    another request's code is executing in this context is its child: it
    shares the parent's recorder, sampling decision, degradation list and
    probe, keeps the tighter of the two deadlines, carries its own
    bindings, and the parent is current again when it ends.  A request
    opened while another is merely suspended at a ``yield`` is
    independent.  A stream clears ``running`` before each ``yield`` to its
    client and, on resume, re-installs itself only if something displaced
    it (``Platform.stream``).

    Fields are written by the thread running the request only; what its
    pool branches write is the degradation *list*, appended under the
    resilience manager's lock, ``module_values``, one dict store per
    name, and ``estimates``, one dict update per plan (branches that race
    compute equal values)."""

    __slots__ = ("tracer", "plan_key", "bindings", "module_values", "estimates",
                 "deadline_ms", "probe", "forced", "degradations", "recorder",
                 "sampled", "start_ms", "parent", "running", "outcome", "retained")

    def __init__(self, tracer, plan_key: str | None, bindings,
                 deadline_ms: float | None, probe, forced: bool):
        self.tracer = tracer
        self.plan_key = plan_key
        self.bindings = bindings if bindings is not None else _NO_BINDINGS
        #: module variables this request has read, by name: their values
        #: may depend on its bindings (filled by ``Evaluator.variable``)
        self.module_values: dict = {}
        #: by node id, with a re-plan threshold (``Platform._arm_replan``)
        self.estimates: dict = {}
        self.deadline_ms = deadline_ms
        self.probe = probe
        #: recording is forced (``Platform.profile``): the request keeps
        #: its own account even when opened under a running request
        self.forced = forced
        self.recorder: QueryTracer | None = None
        self.sampled = False
        #: when it began, if anything will be told how long it took
        self.start_ms: float | None = None
        self.parent: Request | None = None
        self.running = False
        #: set by a caller with a richer taxonomy than the exception
        #: mapping below (the server's ``shed`` / ``invalid``)
        self.outcome: str | None = None
        self.retained = False

    def __enter__(self) -> "Request":
        parent = REQUEST.get()
        while parent is not None and not parent.running:
            parent = parent.parent
        self.parent = parent
        if parent is not None and parent.deadline_ms is not None and (
                self.deadline_ms is None
                or parent.deadline_ms < self.deadline_ms):
            self.deadline_ms = parent.deadline_ms
        if parent is None or self.forced:  # an account of its own
            self.degradations: list = []
            self.tracer._begin(self)
        else:
            self.degradations = parent.degradations
            self.recorder = parent.recorder
            if self.probe is None:
                self.probe = parent.probe
        self.running = True
        REQUEST.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.running = False
        # (not a token reset: a stream may be closed, or collected, from
        # another context than the one that opened it)
        if self.parent is not None and REQUEST.get() is self:
            REQUEST.set(self.parent)
        if self.parent is None or self.forced:
            if self.outcome is None:
                if exc_type is None or exc_type is GeneratorExit:
                    self.outcome = "completed"
                elif issubclass(exc_type, DeadlineExceededError):
                    self.outcome = "deadline"
                else:
                    self.outcome = "error"
            self.retained = self.tracer._end(self)
            # what is left on the context answers last_degradations and
            # nothing else: no late span, no stale deadline
            self.recorder = self.deadline_ms = None
        return False
