"""The serving layer (R-SERVE): sessions, admission control, cost
estimation, deadline propagation and close semantics — single-threaded
unit coverage (the contention side lives in ``tests/threaded``)."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.demo import build_demo_platform
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    PlatformClosedError,
    SecurityError,
)
from repro.server import (
    STATE_OPEN,
    STATE_OVERLOAD,
    STATE_SHED_EXPENSIVE,
    AdmissionController,
    DataServer,
    SessionManager,
    TenantQuota,
    TokenBucket,
)
from repro.compiler.costing import admission_cost
from repro.server import DEFAULT_COST_THRESHOLD
from repro.xml.items import AtomicValue


def _string(value: str) -> AtomicValue:
    return AtomicValue(value, "xs:string")


LOOKUP = "for $c in CUSTOMER() where $c/CID eq $id return $c/LAST_NAME"
SCAN = "getProfile()"


def build_server(clock=None, **admission_kwargs):
    platform = build_demo_platform(clock=clock or VirtualClock())
    admission_kwargs.setdefault("max_concurrent", 2)
    admission_kwargs.setdefault("queue_soft", 3)
    admission_kwargs.setdefault("queue_hard", 5)
    admission = AdmissionController(platform.clock, **admission_kwargs)
    server = DataServer(platform, admission=admission)
    server.register_tenant("acme", "pw", roles=("analyst",))
    return platform, server


# ---------------------------------------------------------------------------
# token bucket + admission states
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_deficit_then_refill(self):
        bucket = TokenBucket(TenantQuota(capacity=2, refill_per_s=10), 0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        wait = bucket.try_acquire(0.0)
        assert wait == pytest.approx(100.0)  # 1 token / 10 per s
        # after the suggested wait a token is there again
        assert bucket.try_acquire(wait) == 0.0

    def test_zero_refill_never_recovers(self):
        bucket = TokenBucket(TenantQuota(capacity=1, refill_per_s=0.0), 0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(1e9) == float("inf")


class TestAdmissionController:
    def make(self, **kwargs):
        kwargs.setdefault("max_concurrent", 2)
        kwargs.setdefault("queue_soft", 3)
        kwargs.setdefault("queue_hard", 5)
        return AdmissionController(VirtualClock(), **kwargs)

    def test_states_follow_depth(self):
        controller = self.make()
        tickets = []
        assert controller.state == STATE_OPEN
        for _ in range(3):
            tickets.append(controller.admit("t", cost=1.0))
        assert controller.state == STATE_SHED_EXPENSIVE
        # cheap still admitted, expensive shed with a structured error
        tickets.append(controller.admit("t", cost=1.0))
        with pytest.raises(AdmissionError) as info:
            controller.admit("t", cost=DEFAULT_COST_THRESHOLD + 1)
        assert info.value.reason == "cost"
        assert info.value.state == STATE_SHED_EXPENSIVE
        assert info.value.retry_after_ms > 0
        tickets.append(controller.admit("t", cost=1.0))
        assert controller.state == STATE_OVERLOAD
        with pytest.raises(AdmissionError) as info:
            controller.admit("t", cost=1.0)
        assert info.value.reason == "overload"
        # draining the tickets re-opens admission
        for ticket in tickets:
            ticket.release()
        assert controller.depth == 0
        assert controller.state == STATE_OPEN
        controller.admit("t", cost=100.0).release()

    def test_quota_shed_carries_retry_after(self):
        controller = self.make()
        controller.set_quota("t", capacity=1, refill_per_s=10)
        controller.admit("t", cost=1.0).release()
        with pytest.raises(AdmissionError) as info:
            controller.admit("t", cost=1.0)
        assert info.value.reason == "quota"
        assert info.value.retry_after_ms == pytest.approx(100.0)
        assert info.value.to_dict()["tenant"] == "t"
        # an unknown tenant with no default quota is not rate limited
        controller.admit("other", cost=1.0).release()

    def test_ticket_context_manager_releases_once(self):
        controller = self.make()
        ticket = controller.admit("t", cost=1.0)
        with ticket:
            assert controller.depth == 1
        assert controller.depth == 0
        ticket.release()  # idempotent
        assert controller.depth == 0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(VirtualClock(), max_concurrent=4,
                                queue_soft=2, queue_hard=8)


# ---------------------------------------------------------------------------
# plan-cost estimation
# ---------------------------------------------------------------------------

class TestCostEstimation:
    def test_keyed_lookup_is_cheap_and_scan_is_expensive(self):
        platform = build_demo_platform()
        lookup = admission_cost(platform.prepare(LOOKUP, {"id": []}).expr)
        scan = admission_cost(platform.prepare(SCAN).expr)
        # one keyed roundtrip is the unit: a point lookup prices at 1.0
        assert lookup == 1.0
        assert lookup <= DEFAULT_COST_THRESHOLD < scan
        # a whole-table ship prices well past the shed threshold
        table = admission_cost(platform.prepare("CUSTOMER()").expr)
        assert table > DEFAULT_COST_THRESHOLD
        # additivity: a PP-k join over the scan prices above the scan alone
        join = admission_cost(platform.prepare(
            "for $c in CUSTOMER() for $cc in CREDIT_CARD() "
            "where $cc/CID eq $c/CID return $cc/NUMBER").expr)
        assert lookup < table < join

    def test_floor_is_one(self):
        platform = build_demo_platform()
        assert admission_cost(platform.prepare("1 + 1").expr) == 1.0

    def test_priced_once_per_plan(self):
        """The plan-cache hit shares its root, and the price rides on it:
        a second request reads the memo instead of walking the plan."""
        platform = build_demo_platform()
        first = platform.prepare(SCAN).expr
        cost = admission_cost(first)
        again = platform.prepare(SCAN).expr
        assert again is first and again._admission_cost == cost
        again._admission_cost = -1.0  # a stand-in only the memo can return
        assert admission_cost(platform.prepare(SCAN).expr) == -1.0


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class TestSessions:
    def test_auth_and_lookup(self):
        platform = build_demo_platform()
        manager = SessionManager(platform.security, platform.clock)
        manager.register_tenant("acme", "pw", ("analyst",))
        with pytest.raises(SecurityError, match="authentication failed"):
            manager.open_session("acme", "wrong")
        with pytest.raises(SecurityError, match="authentication failed"):
            manager.open_session("ghost", "pw")
        session = manager.open_session("acme", "pw")
        assert manager.get(session.session_id) is session
        assert session.user.roles == frozenset({"analyst"})
        with pytest.raises(SecurityError, match="no live session"):
            manager.get("nope")
        manager.close_session(session.session_id)
        with pytest.raises(SecurityError, match="no live session"):
            manager.get(session.session_id)

    def test_idle_expiry_and_sweep(self):
        clock = VirtualClock()
        platform = build_demo_platform(clock=clock)
        manager = SessionManager(platform.security, platform.clock,
                                 idle_timeout_ms=100.0)
        manager.register_tenant("acme", "pw")
        stale = manager.open_session("acme", "pw")
        clock.charge_ms(50.0)
        fresh = manager.open_session("acme", "pw")
        manager.get(fresh.session_id)  # touch
        clock.charge_ms(80.0)  # stale is 130ms idle, fresh 80ms
        assert manager.sweep_idle() == 1
        assert manager.get(fresh.session_id) is fresh
        with pytest.raises(SecurityError, match="no live session"):
            manager.get(stale.session_id)
        assert manager.snapshot()["expired"] == 1

    def test_session_variables_feed_queries(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        server.sessions.bind(session.session_id, "id", [_string("C2")])
        response = server.execute(session.session_id, LOOKUP)
        assert len(response.items) == 1
        # request-level bindings override the session's
        response = server.execute(session.session_id, LOOKUP,
                                  {"id": [_string("no-such")]})
        assert response.items == []


# ---------------------------------------------------------------------------
# the serving front-end
# ---------------------------------------------------------------------------

class TestDataServer:
    def test_request_runs_as_the_session_user(self):
        platform, server = build_server()
        platform.security.protect_element(("PROFILE", "RATING"), ["manager"],
                                          action="remove")
        session = server.open_session("acme", "pw")  # analyst, not manager
        response = server.execute(session.session_id, SCAN)
        assert response.items
        for profile in response.items:
            names = [child.name.local for child in profile.child_elements()]
            assert "RATING" not in names and "CID" in names
        # the platform's direct API still defaults to ADMIN: full view
        [admin_profile] = platform.call("getProfileByID", [_string("C1")])
        assert "RATING" in [child.name.local
                            for child in admin_profile.child_elements()]

    def test_quota_shed_surfaces_and_counts(self):
        platform, server = build_server()
        server.admission.set_quota("acme", capacity=2, refill_per_s=1)
        session = server.open_session("acme", "pw")
        variables = {"id": [_string("C1")]}
        server.execute(session.session_id, LOOKUP, variables)
        server.execute(session.session_id, LOOKUP, variables)
        with pytest.raises(AdmissionError) as info:
            server.execute(session.session_id, LOOKUP, variables)
        assert info.value.reason == "quota"
        snap = platform.metrics_snapshot()
        assert snap["server.requests"] == 3
        assert snap["server.completed"] == 2
        assert snap["server.shed{reason=quota}"] == 1
        assert snap["server.latency_ms{kind=lookup}"]["count"] == 2

    def test_latency_histogram_percentiles(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        for cid in ("C1", "C2", "C3"):
            server.execute(session.session_id, LOOKUP,
                           {"id": [_string(cid)]})
        histogram = platform.metrics.histogram("server.latency_ms",
                                               kind="lookup")
        assert histogram.count == 3
        p50, p99 = histogram.percentile(50), histogram.percentile(99)
        assert p50 is not None and p99 is not None
        assert histogram.min <= p50 <= p99 <= histogram.max

    def test_deadline_budget_fails_doomed_requests_cleanly(self):
        platform, server = build_server()
        # even in partial-results mode a blown deadline is a hard error:
        # degradation must not silently absorb it
        platform.configure(partial_results=True)
        session = server.open_session("acme", "pw")
        # the demo's rating service charges 30 simulated ms per customer;
        # a 40ms budget dooms the 4-customer scan partway through
        with pytest.raises(DeadlineExceededError):
            server.execute(session.session_id, SCAN, budget_ms=40.0)
        snap = platform.metrics_snapshot()
        assert snap["server.deadline_exceeded"] == 1
        # ...and a later request with room succeeds: the deadline was
        # reset with the request that installed it
        response = server.execute(session.session_id, SCAN)
        assert len(response.items) == 4

    def test_deadline_aborts_retry_backoff(self):
        platform = build_demo_platform()
        platform.set_source_policy("ccdb", retry=5)
        platform.ctx.databases["ccdb"].available = False
        with pytest.raises(DeadlineExceededError):
            platform.execute(SCAN, budget_ms=100.0)


# ---------------------------------------------------------------------------
# close semantics (satellite)
# ---------------------------------------------------------------------------

class TestPlatformClose:
    def test_close_is_idempotent_and_queries_fail_cleanly(self):
        platform = build_demo_platform()
        assert not platform.closed
        platform.close()
        platform.close()  # idempotent
        assert platform.closed
        with pytest.raises(PlatformClosedError):
            platform.execute("1 + 1")
        with pytest.raises(PlatformClosedError):
            platform.call("getProfile")
        with pytest.raises(PlatformClosedError):
            platform.prepare("1 + 1")

    def test_context_manager_closes(self):
        with build_demo_platform() as platform:
            assert platform.execute("1 + 1")[0].value == 2
        with pytest.raises(PlatformClosedError):
            platform.execute("1 + 1")

    def test_server_surfaces_closed_platform(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        platform.close()
        with pytest.raises(PlatformClosedError):
            server.execute(session.session_id, LOOKUP,
                           {"id": [_string("C1")]})


# ---------------------------------------------------------------------------
# deterministic compilation (satellite)
# ---------------------------------------------------------------------------

class TestGensymDeterminism:
    def test_fresh_platforms_compile_byte_identical_plans(self):
        first = build_demo_platform()
        second = build_demo_platform()
        # interleave unrelated compiles on the first so its (scoped)
        # numbering would diverge if state leaked across compilations
        first.explain("for $o in ORDER() return $o/AMOUNT")
        first.call("getProfileByID", [_string("C1")])
        for query in (SCAN, LOOKUP):
            variables = {"id": []} if "$id" in query else None
            assert first.explain(query, variables) == \
                second.explain(query, variables)

    def test_warm_view_cache_recompiles_identically(self):
        platform = build_demo_platform()
        cold = platform.explain(SCAN)
        platform.plan_cache.clear()  # keep the view cache warm
        assert platform.explain(SCAN) == cold
