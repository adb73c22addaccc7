"""Continuous production observability (O-CONT): sampler, windowed
metrics, tail retention, flight recorder and the plan-stats store.

Covers the tentpole contracts — always-on sampled tracing whose retained
trace set is byte-deterministic under the virtual clock, windowed rates
that forget, a flight ledger that reconciles exactly with the admission
counters — and the satellites: the one shared nearest-rank percentile
(edge cases included), bucket rotation at window boundaries, and the
stable ``ALDSP-E501`` gate over every tracing surface.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.demo import build_demo_platform
from repro.errors import AdmissionError, ObservabilityError
from repro.observability import (
    NOOP_SPAN,
    TRACE_ALL,
    ContinuousConfig,
    ContinuousTracer,
    FlightRecord,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    TraceSampler,
    WindowedCounter,
    WindowedHistogram,
    chrome_trace_json,
    nearest_rank,
    plan_fingerprint,
)
from repro.observability.profile import OperatorActuals
from repro.runtime.observed import DECAY, ObservedStatistics
from repro.server import AdmissionController, DataServer, TenantQuota
from repro.xml.items import AtomicValue

LOOKUP = "for $c in CUSTOMER() where $c/CID eq $id return $c/LAST_NAME"
SCAN = "getProfile()"


def _cid(value: str) -> dict:
    return {"id": [AtomicValue(value, "xs:string")]}


# ---------------------------------------------------------------------------
# the one shared percentile (satellite: dedupe)
# ---------------------------------------------------------------------------


class TestNearestRank:
    def test_empty_returns_none(self):
        assert nearest_rank([], 50) is None

    def test_single_sample_every_quantile(self):
        assert nearest_rank([7.0], 0.0) == 7.0
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([7.0], 100.0) == 7.0

    def test_extremes_hit_min_and_max(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(ordered, 0.0) == 1.0
        assert nearest_rank(ordered, 100.0) == 4.0

    @pytest.mark.parametrize("q", [-0.1, 100.1, 1000])
    def test_out_of_range_raises_even_on_empty(self, q):
        with pytest.raises(ValueError):
            nearest_rank([1.0], q)
        with pytest.raises(ValueError):
            nearest_rank([], q)


class TestHistogramPercentileEdges:
    def test_empty_histogram_is_none(self):
        assert Histogram().percentile(50) is None

    def test_single_sample(self):
        hist = Histogram()
        hist.observe(42.0)
        assert hist.percentile(0.0) == 42.0
        assert hist.percentile(100.0) == 42.0

    def test_out_of_range_raises(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.percentile(-1)
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_driver_percentile_is_the_same_function(self):
        from repro.server.driver import percentile

        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        for q in (0.0, 25, 50, 75, 99, 100.0):
            assert percentile(samples, q) == nearest_rank(sorted(samples), q)


# ---------------------------------------------------------------------------
# windowed metrics: rotation at bucket boundaries
# ---------------------------------------------------------------------------


class TestWindowedCounter:
    def make(self):
        clock = VirtualClock()
        # 4 buckets x 100ms = one 400ms window
        return clock, WindowedCounter(clock, bucket_ms=100.0, nbuckets=4)

    def test_counts_inside_the_window(self):
        clock, counter = self.make()
        counter.inc()
        clock.set_ms(150.0)
        counter.inc(2)
        assert counter.total() == 3.0

    def test_forgets_past_the_window(self):
        clock, counter = self.make()
        counter.inc(5)
        # bucket epoch 0 stays live while now is in epochs 1..3 ...
        clock.set_ms(399.0)
        assert counter.total() == 5.0
        # ... and falls out exactly at the window boundary (epoch 4)
        clock.set_ms(400.0)
        assert counter.total() == 0.0

    def test_lazy_rotation_reclaims_a_stale_slot(self):
        clock, counter = self.make()
        counter.inc(5)          # epoch 0, slot 0
        clock.set_ms(401.0)     # epoch 4 maps onto slot 0 again
        counter.inc(1)
        assert counter.total() == 1.0

    def test_reset_clears_everything(self):
        clock, counter = self.make()
        counter.inc(9)
        counter.reset()
        assert counter.total() == 0.0

    def test_snapshot_rate_uses_window_seconds(self):
        clock, counter = self.make()
        counter.inc(8)
        snap = counter.snapshot()
        assert snap["window_total"] == 8.0
        assert snap["rate_per_s"] == pytest.approx(8.0 / 0.4)


class TestWindowedHistogram:
    def make(self):
        clock = VirtualClock()
        return clock, WindowedHistogram(clock, bucket_ms=100.0, nbuckets=4)

    def test_merges_live_buckets(self):
        clock, hist = self.make()
        hist.observe(10.0)
        clock.set_ms(150.0)
        hist.observe(30.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["min"] == 10.0 and snap["max"] == 30.0
        assert snap["p50"] == 10.0 and snap["p99"] == 30.0

    def test_rotation_drops_old_samples(self):
        clock, hist = self.make()
        hist.observe(10.0)
        clock.set_ms(400.0)
        assert hist.snapshot()["count"] == 0
        assert hist.percentile(50) is None

    def test_stale_bucket_reset_on_write(self):
        clock, hist = self.make()
        hist.observe(10.0)      # epoch 0, slot 0
        clock.set_ms(450.0)     # epoch 4 reuses slot 0
        hist.observe(99.0)
        snap = hist.snapshot()
        assert snap["count"] == 1 and snap["max"] == 99.0


class TestWindowedMetrics:
    def test_same_series_same_instrument(self):
        metrics = MetricsRegistry(VirtualClock())
        a = metrics.counter("server.shed", window=True, reason="quota")
        b = metrics.counter("server.shed", window=True, reason="quota")
        c = metrics.counter("server.shed", window=True, reason="cost")
        assert a is b and a is not c

    def test_snapshot_is_sorted_and_typed(self):
        metrics = MetricsRegistry(VirtualClock())
        metrics.histogram("b.latency", window=True).observe(5.0)
        metrics.counter("a.requests", window=True).inc()
        snap = metrics.window_snapshot()
        assert list(snap) == sorted(snap)
        assert "window_total" in snap["a.requests"]
        assert snap["b.latency"]["count"] == 1


# ---------------------------------------------------------------------------
# sampler determinism
# ---------------------------------------------------------------------------


class TestTraceSampler:
    def test_same_seed_same_decision_stream(self):
        a = TraceSampler(rate=0.5, seed=11)
        b = TraceSampler(rate=0.5, seed=11)
        assert [a.decide() for _ in range(64)] == \
            [b.decide() for _ in range(64)]

    def test_counts_and_extremes(self):
        always = TraceSampler(rate=1.0, seed=0)
        never = TraceSampler(rate=0.0, seed=0)
        assert all(always.decide() for _ in range(8))
        assert not any(never.decide() for _ in range(8))
        assert always.snapshot()["sampled"] == 8
        assert never.snapshot() == {
            "rate": 0.0, "seed": 0, "decisions": 8, "sampled": 0}

    def test_validates_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(rate=1.5)
        with pytest.raises(ValueError):
            ContinuousConfig(sample_rate=-0.1)
        with pytest.raises(ValueError):
            ContinuousConfig(retain_capacity=0)


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


def _record(tenant="acme", outcome="completed", **kwargs) -> FlightRecord:
    kwargs.setdefault("session_id", "s-1")
    kwargs.setdefault("fingerprint", "abc123")
    kwargs.setdefault("cost", 1.0)
    kwargs.setdefault("admission", "admitted")
    kwargs.setdefault("elapsed_ms", 1.0)
    kwargs.setdefault("ts_ms", 0.0)
    return FlightRecord(tenant=tenant, outcome=outcome, **kwargs)


class TestFlightRecorder:
    def test_seq_is_assigned_in_record_order(self):
        recorder = FlightRecorder(capacity=4)
        seqs = [recorder.record(_record()).seq for _ in range(3)]
        assert seqs == [1, 2, 3]

    def test_ring_evicts_but_ledger_remembers(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(_record(outcome="shed"))
        recorder.record(_record())
        recorder.record(_record())
        snap = recorder.snapshot()
        assert snap["recorded"] == 3 and snap["retained"] == 2
        assert snap["dropped"] == 1
        # the shed fell out of the ring but not out of the ledger
        assert snap["outcomes"] == {"completed": 2, "shed": 1}
        assert [r.outcome for r in recorder.records()] == \
            ["completed", "completed"]

    def test_filters_and_limit(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(_record(tenant="acme"))
        recorder.record(_record(tenant="globex", outcome="shed"))
        recorder.record(_record(tenant="acme", outcome="error"))
        assert len(recorder.records(tenant="acme")) == 2
        assert [r.tenant for r in recorder.records(outcome="shed")] == \
            ["globex"]
        # limit keeps the most recent
        assert [r.seq for r in recorder.records(limit=2)] == [2, 3]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_to_dict_rounds_and_sorts_phases(self):
        record = _record(phases={"execute_ms": 1.23456, "admit_ms": 0.1})
        record.seq = 7
        as_dict = record.to_dict()
        assert list(as_dict["phases"]) == ["admit_ms", "execute_ms"]
        assert as_dict["phases"]["execute_ms"] == 1.235
        assert as_dict["seq"] == 7


# ---------------------------------------------------------------------------
# plan-stats feedback store
# ---------------------------------------------------------------------------


class TestPlanStats:
    def test_first_observation_seeds_then_ewma(self):
        store = ObservedStatistics()
        store.observe("aaa", {1: OperatorActuals(
            rows=10, elapsed_ms=100.0, roundtrips=2)})
        assert store.operators("aaa")[1].ewma_rows == 10.0
        store.observe("aaa", {1: OperatorActuals(
            rows=20, elapsed_ms=100.0, roundtrips=2)})
        stats = store.operators("aaa")[1]
        assert stats.ewma_rows == pytest.approx(10 + DECAY * 10)
        assert stats.ewma_elapsed_ms == pytest.approx(100.0)

    def test_store_keys_by_fingerprint_and_operator(self):
        store = ObservedStatistics()
        actuals = OperatorActuals(rows=5, elapsed_ms=50.0, roundtrips=1)
        store.observe("aaa", {1: actuals, 2: actuals})
        store.observe("bbb", {1: actuals})
        store.set_estimate("aaa", 25.0)
        assert set(store.operators("aaa")) == {1, 2}
        snap = store.snapshot()
        assert snap["traces_observed"] == 2
        assert snap["plans"]["aaa"]["estimate"] == 25.0
        assert snap["plans"]["bbb"]["estimate"] is None
        assert snap["plans"]["aaa"]["operators"][1]["observations"] == 1

    def test_empty_aggregates_are_not_an_observation(self):
        store = ObservedStatistics()
        store.observe("aaa", {})
        assert store.snapshot()["traces_observed"] == 0

    def test_fingerprint_is_stable_and_short(self):
        assert plan_fingerprint("q") == plan_fingerprint("q")
        assert plan_fingerprint("q") != plan_fingerprint("q2")
        assert len(plan_fingerprint("q")) == 12


# ---------------------------------------------------------------------------
# the continuous tracer: sampling, retention, determinism
# ---------------------------------------------------------------------------


def make_tracer(sample_rate=1.0, seed=0, slow_ms=250.0, retain_capacity=8):
    clock = VirtualClock()
    config = ContinuousConfig(sample_rate=sample_rate, seed=seed,
                              slow_ms=slow_ms, retain_capacity=retain_capacity)
    return clock, ContinuousTracer(clock, config)


class TestContinuousTracer:
    def test_unsampled_requests_allocate_nothing(self):
        clock, tracer = make_tracer(sample_rate=0.0)
        with tracer.request("fp") as request:
            assert not request.sampled
            assert tracer.start("query", "q") is NOOP_SPAN
            assert tracer.instant("mark") is NOOP_SPAN
            assert tracer.current() is None
        assert request.retained is False
        snap = tracer.snapshot()
        assert snap["spans_allocated"] == 0
        assert snap["unsampled_calls"] == 2
        assert snap["traces_retained"] == 0

    def test_fast_healthy_is_summarized_not_retained(self):
        clock, tracer = make_tracer(slow_ms=1000.0)
        with tracer.request("fp") as request, tracer.start("query", "q"):
            clock.charge_ms(5.0)
        assert request.retained is False
        snap = tracer.snapshot()
        assert snap["traces_summarized"] == 1
        assert snap["traces_retained"] == 0
        assert tracer.retained_roots() == []

    def test_slow_request_is_retained(self):
        clock, tracer = make_tracer(slow_ms=10.0)
        with tracer.request("fp") as request, tracer.start("query", "q"):
            clock.charge_ms(50.0)
        assert request.retained is True
        roots = tracer.retained_roots()
        assert len(roots) == 1 and roots[0].name == "q"
        assert tracer.last_root is roots[0]

    @pytest.mark.parametrize("kwargs", [
        {"outcome": "error"},
        {"outcome": "deadline"},
        {"degraded": 2},
        {"outcome": "shed"},
    ])
    def test_unhealthy_requests_always_retained(self, kwargs):
        clock, tracer = make_tracer(slow_ms=1e9)
        with tracer.request("fp") as request, tracer.start("query", "q"):
            clock.charge_ms(1.0)
            request.outcome = kwargs.get("outcome")
            request.degradations.extend(range(kwargs.get("degraded", 0)))
        assert request.retained is True

    def test_retention_needs_a_span_tree(self):
        # a sampled request that never opened a span has nothing to keep
        clock, tracer = make_tracer(slow_ms=0.0)
        with tracer.request("fp") as request:
            request.outcome = "error"
        assert request.retained is False
        assert tracer.snapshot()["traces_summarized"] == 1

    def test_retained_ring_is_bounded(self):
        clock, tracer = make_tracer(slow_ms=0.0, retain_capacity=2)
        for i in range(5):
            with tracer.request("fp"), tracer.start("query", f"q{i}"):
                clock.charge_ms(1.0)
        assert tracer.snapshot()["traces_retained"] == 5
        assert [root.name for root in tracer.retained_roots()] == ["q3", "q4"]

    def test_nested_begin_request_is_a_noop(self):
        clock, tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.request("fp") as outer:
                with tracer.request("fp2") as inner:
                    # the child shares the outer request's account
                    assert inner.recorder is outer.recorder
                    assert inner.degradations is outer.degradations
                with tracer.start("query", "q"):
                    clock.charge_ms(1.0)
                raise ValueError("boom")
        assert outer.outcome == "error" and inner.outcome is None
        assert tracer.snapshot()["requests"] == 1

    def test_window_fed_for_every_request_sampled_or_not(self):
        clock = VirtualClock()
        metrics = MetricsRegistry(clock)
        tracer = ContinuousTracer(clock, ContinuousConfig(sample_rate=0.0),
                                  metrics=metrics)
        with tracer.request("fp") as request:
            clock.charge_ms(3.0)
            request.outcome = "shed"
        snap = metrics.window_snapshot()
        assert snap["trace.requests"]["window_total"] == 1
        assert snap["trace.latency_ms"]["count"] == 1
        assert snap["trace.failed{outcome=shed}"]["window_total"] == 1


class TestRetainedTraceDeterminism:
    QUERIES = [SCAN, LOOKUP, SCAN, LOOKUP, SCAN, SCAN]

    def run_once(self) -> tuple[str, dict]:
        platform = build_demo_platform(customers=2, clock=VirtualClock())
        platform.configure(continuous=ContinuousConfig(sample_rate=0.5, seed=13, slow_ms=0.0))
        tracer = platform.tracer
        for i, query in enumerate(self.QUERIES):
            variables = _cid(f"C{1 + i % 2}") if query is LOOKUP else None
            platform.execute(query, variables)
        trace_json = chrome_trace_json(tracer.retained_roots())
        return trace_json, tracer.snapshot()

    def test_same_seed_byte_identical_retained_traces(self):
        first_json, first_snap = self.run_once()
        second_json, second_snap = self.run_once()
        assert first_json == second_json
        assert first_snap == second_snap
        # rate 0.5 over 6 requests with this seed samples some, not all
        assert 0 < first_snap["requests_sampled"] < len(self.QUERIES)
        assert first_snap["traces_retained"] == first_snap["requests_sampled"]


# ---------------------------------------------------------------------------
# the platform surface: gates, plan stats, windows
# ---------------------------------------------------------------------------


class TestPlatformContinuous:
    def test_aldsp_e501_gates_every_tracing_surface(self):
        platform = build_demo_platform(customers=1, clock=VirtualClock())
        platform.configure(tracing_allowed=False)
        for attempt in (lambda: platform.configure(continuous=TRACE_ALL),
                        lambda: platform.configure(continuous=ContinuousConfig()),
                        lambda: platform.profile(SCAN)):
            with pytest.raises(ObservabilityError, match="ALDSP-E501"):
                attempt()
        assert platform.config.continuous is None and not platform.tracer.enabled
        # execution itself is not gated, and re-allowing recovers
        platform.execute(SCAN)
        platform.configure(tracing_allowed=True)
        platform.configure(continuous=ContinuousConfig())
        assert platform.tracer.enabled

    def test_error_carries_stable_code(self):
        error = ObservabilityError("nope")
        assert error.code == "ALDSP-E501"
        assert "ALDSP-E501" in str(error)

    def test_plan_stats_fed_from_sampled_queries(self):
        platform = build_demo_platform(customers=2, clock=VirtualClock())
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        platform.call("getProfile")
        stats = platform.plan_stats()
        assert stats["traces_observed"] == 1
        [(fingerprint, entry)] = stats["plans"].items()
        assert fingerprint == plan_fingerprint(platform.plan_key(SCAN, None))
        assert entry["operators"]  # per-operator EWMAs exist

    def test_profile_feeds_plan_stats_too(self):
        platform = build_demo_platform(customers=1, clock=VirtualClock())
        platform.profile(SCAN)
        assert platform.plan_stats()["traces_observed"] == 1

    def test_window_is_always_on(self):
        platform = build_demo_platform(customers=1, clock=VirtualClock())
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        platform.call("getProfile")
        assert platform.window_snapshot()["trace.requests"][
            "window_total"] == 1

    def test_reset_stats_clears_the_window(self):
        platform = build_demo_platform(customers=1, clock=VirtualClock())
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        platform.call("getProfile")
        platform.reset_stats()
        assert platform.window_snapshot()["trace.requests"][
            "window_total"] == 0

    def test_set_continuous_off_restores_noop(self):
        platform = build_demo_platform(customers=1, clock=VirtualClock())
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        assert platform.tracer.enabled
        platform.configure(continuous=None)
        assert not platform.tracer.enabled
        platform.execute(SCAN)  # runs untraced


# ---------------------------------------------------------------------------
# the serving surface: flight records reconcile with admission
# ---------------------------------------------------------------------------


def build_server(quota: TenantQuota | None = None, flight_capacity: int = 64):
    platform = build_demo_platform(customers=2, clock=VirtualClock())
    admission = AdmissionController(platform.clock, max_concurrent=2,
                                    queue_soft=3, queue_hard=5)
    server = DataServer(platform, admission=admission,
                        flight_capacity=flight_capacity)
    server.register_tenant("acme", "pw", roles=("analyst",), quota=quota)
    return platform, server


class TestServerFlight:
    def test_completed_request_record_has_phases_and_fingerprint(self):
        platform, server = build_server()
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=0.0))
        session = server.open_session("acme", "pw")
        response = server.execute(session.session_id, LOOKUP, _cid("C1"))
        [record] = server.flight()
        assert record.outcome == "completed"
        assert record.admission == "admitted"
        assert record.fingerprint == response.fingerprint != ""
        assert set(record.phases) == {"prepare_ms", "admit_ms", "execute_ms"}
        assert response.phases == record.phases
        assert record.sampled and record.retained
        assert record.items == 1 and record.error is None

    def test_ledger_reconciles_with_admission_counters(self):
        platform, server = build_server(
            quota=TenantQuota(capacity=2, refill_per_s=0.0))
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=0.0))
        session = server.open_session("acme", "pw")
        outcomes = []
        for _ in range(4):  # 2 admitted, then the quota sheds 2
            try:
                server.execute(session.session_id, LOOKUP, _cid("C1"))
                outcomes.append("completed")
            except AdmissionError:
                outcomes.append("shed")
        # one admitted request that errors during execution
        platform.ctx.databases["custdb"].available = False
        # the quota is empty: restock it so the request reaches execution
        server.admission.set_quota("acme", 10, 10_000)
        with pytest.raises(Exception):
            server.execute(session.session_id, LOOKUP, _cid("C1"))
        # and one that dies before admission (unknown function)
        with pytest.raises(Exception):
            server.execute(session.session_id, "NO_SUCH()")
        ledger = server.flight_recorder.snapshot()["outcomes"]
        admission = server.admission.snapshot()
        assert ledger["completed"] + ledger.get("deadline", 0) + \
            ledger["error"] == admission["admitted"]
        assert ledger["shed"] == admission["shed_quota"] + \
            admission["shed_overload"] + admission["shed_cost"]
        assert ledger["invalid"] == 1
        assert admission["tenants"]["acme"]["shed"] == ledger["shed"]
        assert len(admission["recent_sheds"]) == ledger["shed"]
        assert admission["recent_sheds"][0]["reason"] == "quota"

    def test_shed_requests_are_flight_recorded_and_trace_retained(self):
        platform, server = build_server(
            quota=TenantQuota(capacity=1, refill_per_s=0.0))
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=1e9))
        tracer = platform.tracer
        session = server.open_session("acme", "pw")
        server.execute(session.session_id, LOOKUP, _cid("C1"))
        with pytest.raises(AdmissionError):
            server.execute(session.session_id, LOOKUP, _cid("C2"))
        shed = server.flight(outcome="shed")
        assert len(shed) == 1
        assert shed[0].admission == "shed:quota"
        assert shed[0].error is not None
        # tail retention: the shed kept its tree, the fast-healthy did not
        assert shed[0].retained
        assert tracer.snapshot()["traces_retained"] == 1
        assert tracer.snapshot()["traces_summarized"] == 1

    def test_every_request_recorded_even_unsampled(self):
        platform, server = build_server()
        platform.configure(continuous=ContinuousConfig(sample_rate=0.0))
        session = server.open_session("acme", "pw")
        server.execute(session.session_id, LOOKUP, _cid("C1"))
        [record] = server.flight()
        assert not record.sampled and not record.retained
        assert record.outcome == "completed"

    def test_flight_works_without_continuous_tracing(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        server.execute(session.session_id, LOOKUP, _cid("C1"))
        [record] = server.flight()
        assert record.outcome == "completed" and not record.sampled

    def test_server_window_series_roll(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        server.execute(session.session_id, LOOKUP, _cid("C1"))
        snap = platform.window_snapshot()
        assert snap["server.requests"]["window_total"] == 1
        assert snap["server.completed"]["window_total"] == 1
        assert snap["server.latency_ms{kind=lookup}"]["count"] == 1
        # past the window everything is forgotten, unlike the registry
        platform.clock.set_ms(platform.clock.now_ms() + 61_000.0)
        assert platform.window_snapshot()["server.requests"][
            "window_total"] == 0
        assert server.metrics.counter("server.requests").value == 1

    def test_snapshot_includes_flight_ledger(self):
        platform, server = build_server()
        session = server.open_session("acme", "pw")
        server.execute(session.session_id, LOOKUP, _cid("C1"))
        snap = server.snapshot()
        assert snap["flight"]["recorded"] == 1
        assert snap["flight"]["outcomes"] == {"completed": 1}
