"""Service-quality machinery tests (sections 5.4–5.6): fn-bea:async,
fn-bea:fail-over, fn-bea:timeout, and the function cache."""

import pytest

from repro.clock import VirtualClock, WallClock
from repro.errors import SourceError
from repro.runtime.asyncexec import AsyncExecutor
from repro.runtime.cache import FunctionCache
from repro.relational import Database
from repro.xml import AtomicValue, element, serialize

from tests.conftest import build_platform


class TestAsyncExecutor:
    def test_virtual_overlap_takes_max(self):
        clock = VirtualClock()
        executor = AsyncExecutor(clock)

        def work(ms):
            def thunk():
                clock.charge_ms(ms)
                return ms
            return thunk

        results = executor.run_parallel([work(30), work(50), work(10)])
        assert results == [30, 50, 10]
        assert clock.now_ms() == 50  # max, not 90

    def test_wall_clock_threads_overlap(self):
        clock = WallClock()
        executor = AsyncExecutor(clock)
        start = clock.now_ms()
        executor.run_parallel([lambda: clock.charge_ms(40)] * 3)
        elapsed = clock.now_ms() - start
        assert elapsed < 100  # three 40ms sleeps overlapped
        executor.shutdown()

    def test_branch_exception_propagates_after_all_branches(self):
        clock = VirtualClock()
        executor = AsyncExecutor(clock)
        log = []

        def failing():
            clock.charge_ms(10)
            raise SourceError("boom")

        def ok():
            clock.charge_ms(30)
            log.append("ran")
            return 1

        with pytest.raises(SourceError):
            executor.run_parallel([failing, ok])
        assert log == ["ran"]
        assert clock.now_ms() == 30

    def test_measure(self):
        clock = VirtualClock()
        executor = AsyncExecutor(clock)
        result, elapsed, failed = executor.measure(lambda: clock.charge_ms(25) or "v")
        assert elapsed == 25 and not failed
        assert clock.now_ms() == 0  # measurement did not advance the clock


class TestAsyncInQueries:
    def test_sibling_async_calls_overlap(self):
        ws_log = []
        platform = build_platform(ws_latency_ms=40.0, ws_log=ws_log, deploy_profile=False)
        query = '''
        for $c in CUSTOMER()
        where $c/CID eq "C1"
        return <R>{
            fn-bea:async(getRating(<getRating><lName>{data($c/LAST_NAME)}</lName>
                                   <ssn>{data($c/SSN)}</ssn></getRating>)),
            fn-bea:async(getRating(<getRating><lName>{data($c/LAST_NAME)}</lName>
                                   <ssn>{data($c/SSN)}</ssn></getRating>))
        }</R>
        '''
        start = platform.clock.now_ms()
        platform.execute(query)
        elapsed = platform.clock.now_ms() - start
        assert platform.ctx.stats.service_calls == 2
        assert platform.ctx.async_exec.groups_run >= 1
        # two 40ms calls overlapped: well under the 80ms serial cost
        assert elapsed < 80

    def test_single_async_is_transparent(self):
        platform = build_platform(deploy_profile=False)
        out = platform.execute('fn-bea:async((1, 2))')
        assert [i.value for i in out] == [1, 2]


class TestFailover:
    def test_failover_returns_primary_on_success(self):
        platform = build_platform(deploy_profile=False)
        out = platform.execute('fn-bea:fail-over(CUSTOMER(), ())')
        assert len(out) == 2

    def test_failover_to_alternate_on_source_error(self):
        platform = build_platform(deploy_profile=False)
        platform.ctx.databases["custdb"].available = False
        out = platform.execute('fn-bea:fail-over(CUSTOMER(), CREDIT_CARD())')
        assert serialize(out[0]).startswith("<CREDIT_CARD>")

    def test_failover_empty_alternate_gives_partial_result(self):
        platform = build_platform(deploy_profile=False)
        platform.ctx.databases["custdb"].available = False
        assert platform.execute('fn-bea:fail-over(CUSTOMER(), ())') == []

    def test_programming_errors_not_swallowed(self):
        from repro.errors import DynamicError

        platform = build_platform(deploy_profile=False)
        with pytest.raises(DynamicError):
            platform.execute('fn-bea:fail-over(1 div 0, 99)')

    def test_timeout_returns_primary_when_fast(self):
        platform = build_platform(ws_latency_ms=10.0, deploy_profile=False)
        out = platform.execute('''
            fn-bea:timeout(
              getRating(<getRating><lName>x</lName><ssn>101</ssn></getRating>),
              50, <DEFAULT>0</DEFAULT>)
        ''')
        assert serialize(out[0]).startswith("<getRatingResponse>")

    def test_timeout_fails_over_when_slow(self):
        platform = build_platform(ws_latency_ms=200.0, deploy_profile=False)
        start = platform.clock.now_ms()
        out = platform.execute('''
            fn-bea:timeout(
              getRating(<getRating><lName>x</lName><ssn>101</ssn></getRating>),
              30, <DEFAULT>0</DEFAULT>)
        ''')
        elapsed = platform.clock.now_ms() - start
        assert serialize(out) == "<DEFAULT>0</DEFAULT>"
        # the caller waited the limit, not the full 200ms
        assert elapsed == pytest.approx(30, abs=1)

    def test_timeout_handles_unavailable_source(self):
        platform = build_platform(deploy_profile=False)
        platform.ctx.databases["custdb"].available = False
        out = platform.execute('fn-bea:timeout(CUSTOMER(), 100, <ALT/>)')
        assert serialize(out) == "<ALT/>"


class TestFunctionCache:
    def test_hit_after_miss(self):
        clock = VirtualClock()
        cache = FunctionCache(clock)
        cache.enable("f", ttl_ms=1000)
        key = cache.argument_key([[AtomicValue("a", "xs:string")]])
        assert cache.get("f", key) is None
        cache.put("f", key, [AtomicValue(1, "xs:integer")])
        assert cache.get("f", key) == [AtomicValue(1, "xs:integer")]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_ttl_expiry(self):
        clock = VirtualClock()
        cache = FunctionCache(clock)
        cache.enable("f", ttl_ms=100)
        cache.put("f", "k", [AtomicValue(1, "xs:integer")])
        clock.charge_ms(150)
        assert cache.get("f", "k") is None
        assert cache.stats.expirations == 1

    def test_disabled_function_not_stored(self):
        cache = FunctionCache(VirtualClock())
        cache.put("f", "k", [AtomicValue(1, "xs:integer")])
        assert cache.get("f", "k") is None

    def test_argument_key_distinguishes_values(self):
        cache = FunctionCache(VirtualClock())
        k1 = cache.argument_key([[AtomicValue("a", "xs:string")]])
        k2 = cache.argument_key([[AtomicValue("b", "xs:string")]])
        assert k1 != k2
        k3 = cache.argument_key([[element("X", "v")]])
        assert k3 not in (k1, k2)

    def test_relational_backing_store(self):
        clock = VirtualClock()
        backing = Database("cachedb", clock=clock)
        cache = FunctionCache(clock, backing=backing)
        cache.enable("f", ttl_ms=1000)
        cache.put("f", "k", [element("R", 7, type_annotation="xs:integer")])
        # simulate another node: fresh in-memory map, same backing table
        other = FunctionCache(clock, backing=backing)
        other.enable("f", ttl_ms=1000)
        [item] = other.get("f", "k")
        assert serialize(item) == "<R>7</R>"

    def test_platform_caching_turns_service_calls_into_lookups(self):
        platform = build_platform(ws_latency_ms=50.0, deploy_profile=False)
        platform.enable_function_cache("getRating", ttl_ms=10_000, arity=1)
        query = '''
            getRating(<getRating><lName>J</lName><ssn>101</ssn></getRating>)
            /getRatingResult
        '''
        platform.execute(query)
        assert platform.ctx.stats.service_calls == 1
        t0 = platform.clock.now_ms()
        out = platform.execute(query)
        elapsed = platform.clock.now_ms() - t0
        assert platform.ctx.stats.service_calls == 1  # no second call
        assert elapsed < 50.0
        assert serialize(out) == "<getRatingResult>701</getRatingResult>"

    def test_stale_entry_recomputed(self):
        platform = build_platform(ws_latency_ms=50.0, deploy_profile=False)
        platform.enable_function_cache("getRating", ttl_ms=10.0, arity=1)
        query = 'getRating(<getRating><lName>J</lName><ssn>101</ssn></getRating>)'
        platform.execute(query)
        platform.clock.charge_ms(100)
        platform.execute(query)
        assert platform.ctx.stats.service_calls == 2


class TestCachedDataServiceFunction:
    """Section 5.5's own use case: the cache on a *data-service* function.
    The call stays a call, and what it runs is the body compiled like any
    plan — sources resolved, SQL pushed — not the body as declared."""

    CALLS = [("getProfile", 0, "getProfile()"),
             ("getProfileByID", 1, 'getProfileByID("C1")')]

    @staticmethod
    def _shipped(platform) -> dict:
        return {name: list(db.stats.statements)
                for name, db in platform.ctx.databases.items()}

    @pytest.mark.parametrize("name, arity, query", CALLS)
    def test_a_miss_is_the_uncached_run_and_a_hit_ships_nothing(self, name, arity, query):
        plain = build_platform()
        expected = serialize(plain.execute(query))
        cached = build_platform()
        cached.enable_function_cache(name, ttl_ms=10_000, arity=arity)
        assert serialize(cached.execute(query)) == expected
        # pushdown applied inside the body: statement for statement
        assert self._shipped(cached) == self._shipped(plain)
        assert cached.ctx.stats.service_calls == plain.ctx.stats.service_calls > 0
        cached.reset_stats()
        assert serialize(cached.execute(query)) == expected
        assert self._shipped(cached) == {"custdb": [], "ccdb": []}
        assert cached.ctx.stats.service_calls == 0
        assert cached.function_cache_stats()["hits"] == 1

    def test_a_key_per_argument(self):
        platform = build_platform()
        platform.enable_function_cache("getProfileByID", ttl_ms=10_000, arity=1)
        one = serialize(platform.execute('getProfileByID("C1")'))
        two = serialize(platform.execute('getProfileByID("C2")'))
        assert "<CID>C1</CID>" in one and "<CID>C2</CID>" in two
        assert platform.function_cache_stats()["misses"] == 2

    def test_security_filters_after_the_cache(self):
        from repro.security import User

        platform = build_platform()
        platform.enable_function_cache("getProfile", ttl_ms=10_000)
        platform.security.protect_element(
            ("PROFILE", "RATING"), ["manager"], action="replace", replacement="hidden")
        manager = serialize(platform.execute("getProfile()", user=User.of("bob", "manager")))
        agent = serialize(platform.execute("getProfile()", user=User.of("alice", "agent")))
        assert platform.function_cache_stats()["hits"] == 1  # one entry, both users
        assert "<RATING>701</RATING>" in manager and "hidden" not in manager
        assert "<RATING>hidden</RATING>" in agent and "701" not in agent

    def test_the_body_plan_is_invalidated_with_the_plans(self):
        platform = build_platform()
        platform.enable_function_cache("getProfile", ttl_ms=10.0)
        expected = serialize(platform.execute("getProfile()"))
        assert platform.plan_cache.get("#body:getProfile#0") is not None
        pushed = platform.ctx.stats.pushed_queries
        assert pushed > 0
        platform.configure(pushdown=False)
        assert platform.plan_cache.get("#body:getProfile#0") is None
        platform.clock.charge_ms(100)  # the entry is stale: the body runs again
        assert serialize(platform.execute("getProfile()")) == expected
        assert platform.ctx.stats.pushed_queries == pushed  # as recompiled: nothing pushed
