"""Source resilience layer tests (DESIGN.md R-RESIL).

Scripted fault injection, retry/backoff, circuit breakers, per-source
timeouts and partial-results degradation — plus the clock-accounting
contracts they depend on (connect timeouts are never free, async branches
all complete before an exception propagates, fn-bea:timeout charges the
same across clock modes).
"""

import pytest

from repro.clock import VirtualClock, WallClock
from repro.errors import CircuitOpenError, DynamicError, SourceError
from repro.relational import Database, LatencyModel
from repro.resilience import (
    CircuitBreaker,
    CircuitBreakerConfig,
    FaultInjector,
    ResilienceManager,
    RetryPolicy,
    SourcePolicy,
)
from repro.runtime.asyncexec import AsyncExecutor
from repro.services import Platform
from repro.xml import serialize

from tests.conftest import build_ccdb, build_platform


def make_db(clock, rows=3):
    db = Database("src", clock=clock,
                  latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=1.0,
                                       connect_timeout_ms=10.0))
    db.create_table("T", [("ID", "int"), ("V", "varchar")], primary_key=["ID"])
    db.load("T", [{"ID": i, "V": f"v{i}"} for i in range(rows)])
    return db


class TestFaultInjector:
    def test_fail_first_n_calls(self):
        clock = VirtualClock()
        injector = FaultInjector().fail_first(2, latency_ms=4.0)
        for i in (1, 2):
            with pytest.raises(SourceError, match=f"call #{i}"):
                injector.on_call("src", clock)
        injector.on_call("src", clock)  # third call passes
        assert clock.now_ms() == 8.0  # each injected failure charged 4ms
        assert injector.snapshot() == {
            "seed": 0, "calls": 3, "failures": 2, "spikes": 0, "drops": 0,
        }

    def test_probabilistic_failures_replay_with_same_seed(self):
        def firing_pattern(seed):
            clock = VirtualClock()
            injector = FaultInjector(seed=seed).fail_with_probability(0.4)
            pattern = []
            for _ in range(40):
                try:
                    injector.on_call("src", clock)
                    pattern.append(0)
                except SourceError:
                    pattern.append(1)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)

    def test_rng_draws_do_not_depend_on_firing(self):
        # A deterministic rule ahead of a probabilistic one must not shift
        # the probabilistic rule's draw sequence.
        plain = FaultInjector(seed=3).fail_with_probability(0.5)
        mixed = FaultInjector(seed=3).fail_first(5).fail_with_probability(0.5)
        clock = VirtualClock()

        def outcomes(injector):
            seen = []
            for _ in range(20):
                try:
                    injector.on_call("src", clock)
                    seen.append(0)
                except SourceError:
                    seen.append(1)
            return seen

        base = outcomes(plain)
        shifted = outcomes(mixed)
        # After the 5 scripted failures, firing must match the plain run.
        assert shifted[5:] == base[5:]

    def test_latency_spike_every_nth(self):
        clock = VirtualClock()
        injector = FaultInjector().latency_spike(25.0, every=2)
        for _ in range(4):
            injector.on_call("src", clock)
        assert clock.now_ms() == 50.0  # calls 2 and 4 spiked
        assert injector.injected_spikes == 2

    def test_latency_spike_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            FaultInjector().latency_spike(10.0)
        with pytest.raises(ValueError):
            FaultInjector().latency_spike(10.0, every=2, probability=0.5)

    def test_drop_mid_result_ships_and_charges_the_prefix(self):
        clock = VirtualClock()
        db = make_db(clock, rows=4)
        FaultInjector().drop_mid_result(keep_rows=2).attach(db)
        from repro.relational.connection import Connection

        with pytest.raises(SourceError, match="dropped mid-result after 2 of 4"):
            Connection(db).execute_query('SELECT t1."ID" AS ID FROM "T" t1')
        # The two shipped rows were charged before the connection died.
        assert db.stats.rows_shipped == 2
        assert clock.now_ms() == 5.0 + 2 * 1.0
        assert db.faults.injected_drops == 1


class TestConnectTimeout:
    def test_unavailable_database_charges_connect_timeout(self):
        clock = VirtualClock()
        db = make_db(clock)
        db.available = False
        with pytest.raises(SourceError, match="unavailable"):
            db.check_call()
        assert clock.now_ms() == 10.0  # a failed connect is never free

    def test_unavailable_adaptor_charges_connect_timeout(self):
        from repro.sources.adaptor import Adaptor

        clock = VirtualClock()
        adaptor = Adaptor("ws", clock)
        adaptor.available = False
        adaptor.connect_timeout_ms = 15.0
        with pytest.raises(SourceError, match="unavailable"):
            adaptor.invoke([])
        assert clock.now_ms() == 15.0
        assert adaptor.invocations == 0


class TestRetryPolicy:
    def test_backoff_schedule_is_charged_to_the_clock(self):
        clock = VirtualClock()
        db = make_db(clock)
        FaultInjector().fail_first(2).attach(db)
        manager = ResilienceManager(clock)
        manager.register_stats("src", db.stats)
        manager.set_policy("src", SourcePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_ms=10.0, multiplier=2.0)
        ))
        result = manager.call("src", lambda: db.check_call() or "ok")
        assert result == "ok"
        # Two failed attempts cost nothing here (check_call with the source
        # up charges nothing; the injected failures carry no latency), so
        # the clock shows exactly the backoff schedule: 10 then 20.
        assert clock.now_ms() == 30.0
        assert db.stats.attempts == 3
        assert db.stats.retries == 2
        assert db.stats.failures == 2

    def test_exhausted_retries_annotate_and_raise(self):
        clock = VirtualClock()
        manager = ResilienceManager(clock)
        manager.set_policy("src", SourcePolicy(retry=RetryPolicy(max_attempts=2)))

        def always_fails():
            raise SourceError("down")

        with pytest.raises(SourceError) as info:
            manager.call("src", always_fails)
        assert info.value.resilience_attempts == 2
        assert info.value.resilience_elapsed_ms == clock.now_ms() == 10.0

    def test_only_source_errors_are_retried(self):
        manager = ResilienceManager(VirtualClock())
        manager.set_policy("src", SourcePolicy(retry=RetryPolicy(max_attempts=3)))
        attempts = []

        def programming_error():
            attempts.append(1)
            raise DynamicError("a bug, not an outage")

        with pytest.raises(DynamicError):
            manager.call("src", programming_error)
        assert len(attempts) == 1

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(backoff_ms=100.0, multiplier=1.0, jitter=0.5, seed=42)
        import random

        delays_a = [policy.delay_ms(1, random.Random(42)) for _ in range(1)]
        delays_b = [policy.delay_ms(1, random.Random(42)) for _ in range(1)]
        assert delays_a == delays_b
        assert 100.0 <= delays_a[0] <= 150.0


class TestCircuitBreaker:
    def test_lifecycle_closed_open_halfopen_closed(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=2,
                                                      cooldown_ms=100.0), clock)
        breaker.before_call("src")
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call("src")
        clock.charge_ms(100.0)
        breaker.before_call("src")  # cooled down: one probe admitted
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert [(frm, to) for _t, frm, to in breaker.transitions] == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "closed"),
        ]

    def test_failed_probe_reopens(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=1,
                                                      cooldown_ms=50.0), clock)
        breaker.record_failure()
        clock.charge_ms(50.0)
        breaker.before_call("src")
        breaker.record_failure()
        assert breaker.state == "open"

    def test_open_circuit_sheds_without_retry_or_cost(self):
        clock = VirtualClock()
        manager = ResilienceManager(clock)
        manager.set_policy("src", SourcePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_ms=10.0),
            breaker=CircuitBreakerConfig(failure_threshold=1, cooldown_ms=1e6),
        ))

        def always_fails():
            raise SourceError("down")

        with pytest.raises(SourceError):
            manager.call("src", always_fails)
        tripped_at = clock.now_ms()
        calls = []
        with pytest.raises(CircuitOpenError):
            manager.call("src", lambda: calls.append(1))
        # Shed without invoking the source, retrying, or charging the clock.
        assert calls == []
        assert clock.now_ms() == tripped_at
        assert manager.breaker_state("src") == "open"

    def test_breaker_trips_counted_once_per_open(self):
        clock = VirtualClock()
        db = make_db(clock)
        manager = ResilienceManager(clock)
        manager.register_stats("src", db.stats)
        manager.set_policy("src", SourcePolicy(
            breaker=CircuitBreakerConfig(failure_threshold=2, cooldown_ms=1e6)
        ))

        def always_fails():
            raise SourceError("down")

        for _ in range(2):
            with pytest.raises(SourceError):
                manager.call("src", always_fails)
        assert db.stats.breaker_trips == 1


class TestPerAttemptTimeout:
    def test_slow_attempt_charges_exactly_the_budget(self):
        clock = VirtualClock()
        manager = ResilienceManager(clock)
        manager.set_policy("src", SourcePolicy(timeout_ms=40.0))

        from repro.errors import SourceTimeoutError

        with pytest.raises(SourceTimeoutError, match="40ms budget"):
            manager.call("src", lambda: clock.charge_ms(90.0))
        assert clock.now_ms() == 40.0  # abandoned at the budget, not at 90

    def test_timeout_is_retryable(self):
        clock = VirtualClock()
        manager = ResilienceManager(clock)
        manager.set_policy("src", SourcePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_ms=5.0),
            timeout_ms=40.0,
        ))
        durations = iter([90.0, 10.0])

        def attempt():
            clock.charge_ms(next(durations))
            return "ok"

        assert manager.call("src", attempt) == "ok"
        assert clock.now_ms() == 40.0 + 5.0 + 10.0


class TestPartialResults:
    def test_federated_query_survives_a_dead_source(self):
        platform = build_platform()
        platform.configure(partial_results=True)
        platform.set_source_policy("ccdb", retry=2)
        platform.ctx.databases["ccdb"].available = False
        profiles = platform.call("getProfile")
        assert len(profiles) == 2  # every customer still answered
        for profile in profiles:
            cards = [el for el in profile.child_elements()
                     if el.name.local == "CREDIT_CARDS"]
            assert cards and not cards[0].child_elements()  # degraded: empty
        [record] = platform.last_degradations
        assert record.source == "ccdb"
        assert record.attempts == 2
        assert "unavailable" in record.error
        assert record.elapsed_ms > 0
        health = platform.source_health()
        assert health["ccdb"]["degraded"] == 1
        assert health["ccdb"]["retries"] == 1
        assert health["ccdb"]["available"] is False

    def test_without_partial_mode_the_failure_propagates(self):
        platform = build_platform()
        platform.ctx.databases["ccdb"].available = False
        with pytest.raises(SourceError, match="unavailable"):
            platform.call("getProfile")

    def test_degradation_records_reset_per_query(self):
        platform = build_platform()
        platform.configure(partial_results=True)
        platform.ctx.databases["ccdb"].available = False
        platform.call("getProfile")
        assert platform.last_degradations
        platform.ctx.databases["ccdb"].available = True
        platform.call("getProfile")
        assert platform.last_degradations == []

    def test_async_branch_degrades_to_empty(self):
        platform = build_platform(deploy_profile=False)
        platform.configure(partial_results=True)
        platform.ctx.databases["ccdb"].available = False
        result = platform.execute(
            "<R>{fn-bea:async(CUSTOMER())}{fn-bea:async(CREDIT_CARD())}</R>"
        )
        [element] = result
        names = [el.name.local for el in element.child_elements()]
        assert "CUSTOMER" in names and "CREDIT_CARD" not in names
        assert any(r.source == "fn-bea:async" or r.source == "ccdb"
                   for r in platform.last_degradations)

    def test_flaky_adaptor_recovers_with_retry(self):
        platform = build_platform(deploy_profile=True)
        adaptor = None
        for definition in platform.registry.functions():
            if definition.adaptor is not None:
                adaptor = definition.adaptor
        assert adaptor is not None and adaptor.name == "RatingService.getRating"
        FaultInjector(seed=1).fail_first(1).attach(adaptor)
        platform.set_source_policy("RatingService.getRating", retry=2)
        profiles = platform.call("getProfile")
        assert len(profiles) == 2
        assert all(any(el.name.local == "RATING" for el in p.child_elements())
                   for p in profiles)
        health = platform.source_health()["RatingService.getRating"]
        assert health["kind"] == "webservice"
        assert health["retries"] == 1 and health["failures"] == 1
        assert platform.last_degradations == []

    def test_fail_over_composes_with_open_breaker(self):
        platform = build_platform(deploy_profile=False)
        platform.set_source_policy("ccdb", breaker=1)
        platform.ctx.databases["ccdb"].available = False
        query = 'fn-bea:fail-over(CREDIT_CARD(), <FALLBACK/>)'
        [first] = platform.execute(query)
        assert first.name.local == "FALLBACK"
        assert platform.ctx.resilience.breaker_state("ccdb") == "open"
        before = platform.clock.now_ms()
        [second] = platform.execute(query)
        assert second.name.local == "FALLBACK"
        # The open breaker shed the call without a connect-timeout charge.
        assert platform.clock.now_ms() == before

    def test_submit_never_degrades_but_retries(self):
        platform = build_platform()
        [obj] = platform.read_for_update("ProfileService", "getProfileByID", "C1")
        obj.set("CREDIT_CARDS/CREDIT_CARD/NUMBER", "9999")
        platform.configure(partial_results=True)  # must NOT apply to updates
        platform.set_source_policy("ccdb", retry=2)
        FaultInjector().fail_first(1).attach(platform.ctx.databases["ccdb"])
        result = platform.submit(obj)
        assert result.rows_updated == 1
        assert platform.ctx.databases["ccdb"].stats.retries == 1
        rows = platform.ctx.databases["ccdb"].table("CREDIT_CARD").rows
        assert any(row["NUMBER"] == "9999" for row in rows)

    def test_submit_aborts_atomically_when_retries_exhaust(self):
        from repro.errors import TransactionError

        platform = build_platform()
        [obj] = platform.read_for_update("ProfileService", "getProfileByID", "C1")
        obj.setLAST_NAME("Smith")
        obj.set("CREDIT_CARDS/CREDIT_CARD/NUMBER", "9999")
        platform.configure(partial_results=True)
        platform.set_source_policy("ccdb", retry=2)
        platform.ctx.databases["ccdb"].available = False
        with pytest.raises(TransactionError):
            platform.submit(obj)
        # Nothing committed anywhere, and nothing was absorbed.
        assert platform.ctx.databases["custdb"].table("CUSTOMER") \
            .lookup_pk(("C1",))["LAST_NAME"] == "Jones"
        assert platform.last_degradations == []


class TestAsyncContract:
    def test_wall_clock_branches_all_complete_before_raise(self):
        clock = WallClock()
        executor = AsyncExecutor(clock)
        log = []

        def fail_fast():
            raise SourceError("first")

        def slow_ok():
            clock.charge_ms(30)
            log.append("ran")

        def fail_late():
            clock.charge_ms(50)
            raise DynamicError("second")

        try:
            with pytest.raises(SourceError, match="first"):
                executor.run_parallel([fail_fast, slow_ok, fail_late])
            # Later branches ran to completion; the FIRST (branch-order)
            # exception propagated even though another also failed.
            assert log == ["ran"]
        finally:
            executor.shutdown()


class TestTimeoutCrossMode:
    """fn-bea:timeout must cost ≈ the limit in BOTH clock modes when the
    primary overruns (the wall-clock path used to wait the primary out and
    then sleep the limit again on top)."""

    LIMIT = 60.0
    SLOW = 200.0
    QUERY = f"fn-bea:timeout(slow(), {LIMIT:g}, 7)"

    def _platform(self, clock):
        platform = Platform(clock=clock)
        platform.register_java_function(
            "slow", lambda: 1, [], "xs:integer", latency_ms=self.SLOW)
        return platform

    def test_virtual_mode_charges_exactly_the_limit(self):
        platform = self._platform(VirtualClock())
        result = platform.execute(self.QUERY)
        assert [item.value for item in result] == [7]
        assert platform.clock.now_ms() == self.LIMIT

    def test_wall_mode_fails_over_at_the_limit_without_double_charge(self):
        platform = self._platform(WallClock())
        start = platform.clock.now_ms()
        result = platform.execute(self.QUERY)
        elapsed = platform.clock.now_ms() - start
        platform.close()
        assert [item.value for item in result] == [7]
        # Failed over around the limit: well before the 200ms primary
        # would have finished, and nowhere near limit+limit.
        assert self.LIMIT <= elapsed < self.SLOW * 0.9


@pytest.mark.chaos
class TestChaosDeterminism:
    """Same seed + virtual clock ⇒ bit-for-bit identical runs."""

    def _run(self, seed):
        platform = build_platform(customers=2)
        platform.configure(partial_results=True)
        platform.set_source_policy("*", retry=RetryPolicy(
            max_attempts=3, backoff_ms=5.0, jitter=0.3, seed=seed,
        ), breaker=CircuitBreakerConfig(failure_threshold=3, cooldown_ms=200.0))
        FaultInjector(seed=seed).fail_with_probability(0.4, latency_ms=2.0) \
            .latency_spike(10.0, every=3) \
            .attach(platform.ctx.databases["ccdb"])
        results = [serialize(item) for item in platform.call("getProfile")]
        ccdb = platform.ctx.databases["ccdb"]
        return {
            "results": results,
            "elapsed": platform.clock.now_ms(),
            "stats": ccdb.stats.resilience_snapshot(),
            "faults": ccdb.faults.snapshot(),
            "transitions": platform.ctx.resilience.breaker_transitions("ccdb"),
            "degradations": [r.to_dict() for r in platform.last_degradations],
        }

    def test_two_runs_identical_with_same_seed(self):
        assert self._run(11) == self._run(11)

    def test_different_seed_changes_the_fault_sequence(self):
        runs = {seed: self._run(seed)["faults"]["failures"] for seed in range(6)}
        assert len(set(runs.values())) > 1


class TestObservability:
    def test_source_health_lists_every_source(self):
        platform = build_platform()
        health = platform.source_health()
        assert set(health) == {"custdb", "ccdb", "RatingService.getRating"}
        assert health["custdb"]["kind"] == "database"
        assert health["custdb"]["policy"] is None

    def test_policy_shows_in_health_and_clears(self):
        platform = build_platform()
        platform.set_source_policy("ccdb", retry=4, breaker=2, timeout_ms=80.0)
        policy = platform.source_health()["ccdb"]["policy"]
        assert policy["retry"]["max_attempts"] == 4
        assert policy["breaker"]["failure_threshold"] == 2
        assert policy["timeout_ms"] == 80.0
        platform.set_source_policy("ccdb")  # all None: remove
        assert platform.source_health()["ccdb"]["policy"] is None

    def test_reset_stats_clears_resilience_counters(self):
        platform = build_platform()
        platform.configure(partial_results=True)
        platform.ctx.databases["ccdb"].available = False
        platform.call("getProfile")
        assert platform.source_health()["ccdb"]["attempts"] > 0
        platform.reset_stats()
        health = platform.source_health()["ccdb"]
        assert health["attempts"] == health["failures"] == health["degraded"] == 0
        assert platform.last_degradations == []

    def test_no_policy_is_a_pure_pass_through(self):
        # With no policies and partial mode off, two identical federations
        # behave identically whether or not the resilience layer is asked
        # for anything — the guard path is never entered.
        baseline = build_platform()
        wired = build_platform()
        a = [serialize(i) for i in baseline.call("getProfile")]
        b = [serialize(i) for i in wired.call("getProfile")]
        assert a == b
        assert baseline.clock.now_ms() == wired.clock.now_ms()
        assert wired.ctx.resilience._guards == {}


def test_circuit_open_error_is_a_source_error():
    assert issubclass(CircuitOpenError, SourceError)


def test_build_ccdb_helper_importable():
    # build_ccdb is part of the shared fixture surface the chaos suite uses.
    db = build_ccdb(VirtualClock())
    assert "CREDIT_CARD" in db.tables
