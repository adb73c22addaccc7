"""The concurrent serving front-end (R-SERVE): one :class:`DataServer`
over one shared :class:`~repro.services.platform.Platform`.

Request path, in order:

1. **session** — resolve (and touch) the caller's session; the query
   executes as the session's user, so the security service's function-
   and element-level policies apply per tenant;
2. **prepare** — compile or fetch the plan (the plan cache is shared
   across sessions; section 3.3's "compiled once, executed repeatedly");
3. **estimate** — :func:`~repro.compiler.costing.admission_cost` over
   the compiled plan feeds the admission decision: the costing pass's
   time model under cold priors, in keyed-lookup units (a keyed roundtrip
   prices 1.0, a scan its ratio of shipped time).  No live statistics
   are read, so the same plan always prices the same;
4. **admit or shed** — quotas, load state and the cost threshold
   (:mod:`repro.server.admission`); sheds raise structured
   :class:`~repro.errors.AdmissionError`\\ s with a retry-after hint;
5. **execute under deadline** — admitted requests run in a worker slot
   with the request budget as the deadline of the platform's
   (nested) request, so retries/backoffs/attempts inside PP-k blocks and
   scatter branches stop the moment the request is doomed.

Everything the server observes lands in the platform's unified metrics
plane under the ``server.*`` family, and — O-CONT — in three continuous
surfaces: the request, shed, completion and latency series are windowed
instruments, so one bump feeds both the cumulative value and the rolling
window; every request (admitted, shed or failed) leaves a structured
:class:`~repro.observability.FlightRecord` with its per-phase latency
breakdown in the bounded flight recorder, and the server opens the
request's scope (``tracer.request``) *before* admission — so a shed
request, if sampled, still has a span tree for tail retention to keep.

Flight-recorder outcome taxonomy (the ledger reconciles against the
admission counters):

* ``completed`` / ``deadline`` / ``error`` — admitted requests, so
  ``completed + deadline + error == admission.admitted``;
* ``shed`` — refused by admission (``== shed_quota + shed_overload +
  shed_cost``);
* ``invalid`` — failed *before* the admission decision (compile or
  security errors); neither admitted nor shed.

Requests that die before session resolution (unknown/expired session)
have no tenant and are not flight-recorded.

Thread-safety (A-CONC): the server itself is stateless between requests
apart from its components, each synchronized on its own lock (sessions,
admission, metrics, windowed instruments, the flight recorder); per-
request state (bindings, degradations, deadline, span recorder) is one
:class:`~repro.observability.Request` on the calling context, so
concurrent requests on one platform never see each other's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.costing import admission_cost
from ..compiler.pipeline import plan_key_text
from ..errors import AdmissionError, DeadlineExceededError
from ..observability import FlightRecord, FlightRecorder, plan_fingerprint
from ..resilience import DegradationRecord
from ..services.platform import Platform
from ..xml.items import Item
from .admission import AdmissionController, TenantQuota
from .session import Session, SessionManager


@dataclass
class ServerResponse:
    """One admitted request's outcome: the (security-filtered) items plus
    what serving it cost and what degraded along the way."""

    items: list[Item]
    elapsed_ms: float
    cost: float
    session_id: str
    degradations: list[DegradationRecord] = field(default_factory=list)
    fingerprint: str = ""
    phases: dict[str, float] = field(default_factory=dict)


class DataServer:
    """A serving facade: sessions + admission + deadlines over a shared
    platform.  Construct one per platform; it is safe to call from any
    number of request threads."""

    def __init__(self, platform: Platform,
                 sessions: SessionManager | None = None,
                 admission: AdmissionController | None = None,
                 default_budget_ms: float | None = None,
                 default_quota: TenantQuota | None = None,
                 flight_capacity: int = 256):
        self.platform = platform
        self.clock = platform.clock
        self.sessions = sessions or SessionManager(
            platform.security, platform.clock)
        self.admission = admission or AdmissionController(
            platform.clock, default_quota=default_quota)
        self.default_budget_ms = default_budget_ms
        self.metrics = platform.metrics
        #: always-on bounded ring of per-request records (O-CONT)
        self.flight_recorder = FlightRecorder(capacity=flight_capacity)

    # -- session conveniences -------------------------------------------------

    def register_tenant(self, name: str, secret: str,
                        roles: tuple[str, ...] = (),
                        quota: TenantQuota | None = None):
        tenant = self.sessions.register_tenant(name, secret, roles)
        if quota is not None:
            self.admission.set_quota(name, quota.capacity, quota.refill_per_s)
        return tenant

    def open_session(self, tenant: str, secret: str) -> Session:
        session = self.sessions.open_session(tenant, secret)
        self.metrics.counter("server.sessions_opened").inc()
        self.metrics.gauge("server.sessions_live").set(
            self.sessions.live_count())
        return session

    def close_session(self, session_id: str) -> None:
        self.sessions.close_session(session_id)
        self.metrics.gauge("server.sessions_live").set(
            self.sessions.live_count())

    # -- the request path -----------------------------------------------------

    def execute(self, session_id: str, query: str,
                variables: dict[str, list[Item]] | None = None,
                budget_ms: float | None = None) -> ServerResponse:
        """Serve one request.  Raises :class:`AdmissionError` on shed,
        :class:`~repro.errors.SecurityError` on a dead session or policy
        violation, :class:`~repro.errors.DeadlineExceededError` past the
        budget, :class:`~repro.errors.PlatformClosedError` after close."""
        self.metrics.counter("server.requests", window=True).inc()
        session = self.sessions.get(session_id)
        bindings = dict(session.variables)
        if variables:
            bindings.update(variables)
        start = self.clock.now_ms()
        # one cache lookup per request: the plan (with this text's binds)
        # keys the observation, prices admission and is what executes
        plan, invalid = None, None
        try:
            plan = self.platform.prepare(query, bindings or None)
            key = plan.plan_key
        except Exception as exc:
            # a compile error is recorded below as ``invalid``, under the
            # text-level key (there is no plan to name it by)
            invalid = exc
            key = plan_key_text(query, bindings)
        fingerprint = plan_fingerprint(key)
        tracer = self.platform.tracer
        phases: dict[str, float] = {}
        cost = 0.0
        outcome = "invalid"
        admission_decision = "rejected"
        error_text: str | None = None
        items: list[Item] = []
        degradations: list[DegradationRecord] = []
        # the request opens before admission: a shed request still records
        # a span tree for tail retention to keep; the platform's own
        # request nests under it
        request = tracer.request(key)
        try:
            with request, tracer.start(
                    "server.request", query, tenant=session.tenant,
                    fingerprint=fingerprint) as request_span:
                try:
                    if invalid is not None:
                        raise invalid
                    cost = admission_cost(plan.expr)
                    self.platform.observed.set_estimate(fingerprint, cost)
                    phases["prepare_ms"] = self.clock.now_ms() - start
                    admit_start = self.clock.now_ms()
                    try:
                        ticket = self.admission.admit(session.tenant, cost)
                    except AdmissionError as exc:
                        self.metrics.counter("server.shed", window=True,
                                             reason=exc.reason).inc()
                        outcome = "shed"
                        admission_decision = f"shed:{exc.reason}"
                        error_text = str(exc)
                        raise
                    admission_decision = "admitted"
                    phases["admit_ms"] = self.clock.now_ms() - admit_start
                    budget = budget_ms if budget_ms is not None \
                        else self.default_budget_ms
                    execute_start = self.clock.now_ms()
                    try:
                        with ticket:
                            self.metrics.gauge("server.in_flight").set(
                                self.admission.depth)
                            items = self.platform.execute(
                                plan, bindings or None, user=session.user,
                                budget_ms=budget)
                            degradations = list(request.degradations)
                    except DeadlineExceededError as exc:
                        self.metrics.counter("server.deadline_exceeded").inc()
                        outcome = "deadline"
                        error_text = str(exc)
                        raise
                    except AdmissionError:
                        raise
                    except Exception as exc:
                        self.metrics.counter("server.errors").inc()
                        outcome = "error"
                        error_text = str(exc)
                        raise
                    phases["execute_ms"] = self.clock.now_ms() - execute_start
                    outcome = "completed"
                    elapsed = self.clock.now_ms() - start
                    self.admission.observe_service_ms(elapsed)
                    self.metrics.counter("server.completed", window=True).inc()
                    kind = "lookup" if cost <= self.admission.cost_threshold \
                        else "scan"
                    self.metrics.histogram("server.latency_ms", window=True,
                                           kind=kind).observe(elapsed)
                    return ServerResponse(items=items, elapsed_ms=elapsed,
                                          cost=cost, session_id=session_id,
                                          degradations=degradations,
                                          fingerprint=fingerprint,
                                          phases=dict(phases))
                except Exception as exc:
                    if outcome == "invalid":
                        # failed before the admission decision (compile
                        # error, security violation): neither admitted nor
                        # shed
                        error_text = str(exc)
                    raise
                finally:
                    request.outcome = outcome
                    request_span.set(outcome=outcome, cost=cost)
                    if error_text is not None:
                        request_span.set(error=error_text)
        finally:
            self.flight_recorder.record(FlightRecord(
                tenant=session.tenant, session_id=session_id,
                fingerprint=fingerprint, cost=cost,
                admission=admission_decision, outcome=outcome,
                elapsed_ms=self.clock.now_ms() - start, ts_ms=start,
                phases=phases, degradations=len(degradations),
                items=len(items), error=error_text,
                sampled=request.sampled, retained=request.retained))

    # -- introspection --------------------------------------------------------

    def flight(self, tenant: str | None = None, outcome: str | None = None,
               limit: int | None = None) -> list[FlightRecord]:
        """Query the flight recorder: the most recent matching request
        records, oldest first."""
        return self.flight_recorder.records(tenant=tenant, outcome=outcome,
                                            limit=limit)

    def snapshot(self) -> dict:
        """Serving-plane state: sessions, admission, load state and the
        flight-recorder ledger."""
        return {
            "sessions": self.sessions.snapshot(),
            "admission": self.admission.snapshot(),
            "flight": self.flight_recorder.snapshot(),
        }
