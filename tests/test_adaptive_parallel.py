"""Adaptive parallel source access (P-ADAPT).

Covers the three tentpole behaviours — closed-loop PP-k block sizing from
the observed cost model, the deep prefetch window, and scatter execution
of compiler-stamped independent regions — plus the satellite work: the
``math.ceil`` recommendation edge cases, the bounded LRU function cache,
and the configurable async worker pool (with window clamping).
"""

import pytest

from repro.clock import WallClock
from repro.compiler.verify import verify_plan
from repro.demo import build_demo_platform
from repro.errors import ObservabilityError
from repro.observability import TRACE_ALL
from repro.relational.database import LatencyModel
from repro.resilience import FaultInjector
from repro.runtime.cache import FunctionCache
from repro.runtime.observed import ObservedStatistics
from repro.xml import serialize
from repro.xml.items import AtomicValue

from tests.conftest import build_platform

CROSS_DB_QUERY = '''
for $c in CUSTOMER()
return <OUT>{
    $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID return $cc/NUMBER }</CARDS>
}</OUT>
'''

SCATTER_QUERY = '''
let $c := CUSTOMER()
let $cc := CREDIT_CARD()
return <OUT><A>{count($c)}</A><B>{count($cc)}</B>
            <A2>{count($c)}</A2><B2>{count($cc)}</B2></OUT>
'''

DEPENDENT_QUERY = '''
let $c := CUSTOMER()
let $d := $c
return <OUT>{count($c), count($d), count($d)}</OUT>
'''


def let_clauses(expr):
    from repro.xquery import ast_nodes as ast

    return [n for n in expr.walk() if isinstance(n, ast.LetClause)]


# ---------------------------------------------------------------------------
# Satellite: recommend_ppk edge cases (math.ceil, samples, per_row <= 0)
# ---------------------------------------------------------------------------


class TestRecommendPpkEdges:
    def test_fewer_than_two_samples_recommends_nothing(self):
        model = ObservedStatistics()
        assert model.recommend_ppk("src") is None
        model.record("src", 10, 5.0)
        assert model.recommend_ppk("src") is None

    def test_uniform_rows_attribute_everything_to_roundtrip(self):
        # var_rows == 0 -> per_row_ms == 0 -> batch as much as possible
        model = ObservedStatistics()
        model.record("src", 10, 5.0)
        model.record("src", 10, 5.0)
        estimate = model.estimate("src")
        assert estimate.per_row_ms == 0.0
        assert model.recommend_ppk("src") == 200
        assert model.recommend_ppk("src", k_max=64) == 64

    def test_fractional_ideal_rounds_up(self):
        # fit: roundtrip=1.0, per_row=0.3 -> ideal = 1*(1-.5)/(.5*.3) = 3.33
        model = ObservedStatistics()
        model.record("src", 0, 1.0)
        model.record("src", 10, 4.0)
        estimate = model.estimate("src")
        assert estimate.roundtrip_ms == pytest.approx(1.0)
        assert estimate.per_row_ms == pytest.approx(0.3)
        assert model.recommend_ppk("src") == 4

    def test_bounds_are_respected(self):
        model = ObservedStatistics()
        model.record("src", 0, 100.0)
        model.record("src", 10, 101.0)
        assert model.recommend_ppk("src", k_min=5, k_max=50) == 50
        model2 = ObservedStatistics()
        model2.record("src", 0, 0.01)
        model2.record("src", 10, 100.0)
        assert model2.recommend_ppk("src", k_min=5, k_max=50) == 5


# ---------------------------------------------------------------------------
# Tentpole 1: adaptive PP-k block sizing
# ---------------------------------------------------------------------------


#: one out-of-range value per validated ``EngineConfig`` field, and what
#: rejects it (a tracing policy is refused while tracing is disallowed)
REJECTED = [
    ("ppk_block_size", 0, ValueError), ("ppk_prefetch_window", 0, ValueError),
    ("batch_size", 0, ValueError), ("async_workers", 0, ValueError),
    ("replan_threshold", 1.0, ValueError), ("force_strategy", "hash-join", ValueError),
    ("continuous", TRACE_ALL, ObservabilityError),
]


class TestAdaptivePpk:
    def test_off_by_default_keeps_static_blocks(self):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(ppk_block_size=3)
        platform.execute(CROSS_DB_QUERY)
        assert platform.ctx.stats.ppk_blocks == 4
        assert platform.ctx.databases["ccdb"].stats.ppk_k_adjustments == 0

    def test_adaptive_resizes_blocks_and_preserves_results(self):
        reference = build_platform(customers=12, deploy_profile=False)
        reference.configure(ppk_block_size=3)
        expected = serialize(reference.execute(CROSS_DB_QUERY))

        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(ppk_block_size=3)
        platform.configure(adaptive_ppk=True)
        out = serialize(platform.execute(CROSS_DB_QUERY))
        assert out == expected
        # Uniform per-block row counts attribute the whole cost to the
        # roundtrip, so once two samples exist the model recommends k_max
        # and the tail collapses into one big block: fewer blocks than the
        # static plan, and the re-size is counted against the source.
        assert platform.ctx.stats.ppk_blocks < 4
        assert platform.ctx.databases["ccdb"].stats.ppk_k_adjustments >= 1

    def test_chosen_k_histogram_and_metrics_counter(self):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(ppk_block_size=3)
        platform.configure(adaptive_ppk=True)
        platform.execute(CROSS_DB_QUERY)
        snapshot = platform.metrics_snapshot()
        histograms = [key for key in snapshot if key.startswith("ppk.chosen_k")]
        assert histograms, sorted(snapshot)
        [series] = [key for key in snapshot
                    if key.startswith("source.ppk_k_adjustments") and "ccdb" in key]
        assert snapshot[series] >= 1

    def test_adjustment_counter_resets(self):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(ppk_block_size=3)
        platform.configure(adaptive_ppk=True)
        platform.execute(CROSS_DB_QUERY)
        assert platform.ctx.databases["ccdb"].stats.ppk_k_adjustments >= 1
        platform.reset_stats()
        assert platform.ctx.databases["ccdb"].stats.ppk_k_adjustments == 0

    @pytest.mark.parametrize("name, value, error", REJECTED,
                             ids=[name for name, _value, _error in REJECTED])
    def test_knob_validates_bounds(self, name, value, error):
        """A rejected change applies nothing — not even its valid fields:
        the configuration and the cached plans are the ones before it."""
        platform = build_platform(deploy_profile=False)
        plan = platform.prepare(CROSS_DB_QUERY)
        before = platform.config
        with pytest.raises(error):
            platform.configure(adaptive_ppk=True, tracing_allowed=False,
                               ppk_pipelining=False, **{name: value})
        assert platform.config is before
        assert platform.prepare(CROSS_DB_QUERY) is plan

    def test_profile_shows_block_capacity_fact(self):
        platform = build_platform(customers=4, deploy_profile=False)
        profile = platform.profile(CROSS_DB_QUERY)
        assert "k=20" in profile.text  # static capacity surfaces as a fact


# ---------------------------------------------------------------------------
# Tentpole 2: deep prefetch window
# ---------------------------------------------------------------------------


class TestPrefetchWindow:
    def test_window_results_identical_to_serial(self):
        reference = build_platform(customers=12, deploy_profile=False)
        reference.configure(ppk_block_size=2)
        reference.configure(ppk_pipelining=False)
        expected = serialize(reference.execute(CROSS_DB_QUERY))
        for window in (1, 2, 3, 8):
            platform = build_platform(customers=12, deploy_profile=False)
            platform.configure(ppk_block_size=2)
            platform.configure(ppk_prefetch_window=window)
            assert serialize(platform.execute(CROSS_DB_QUERY)) == expected

    def test_window_is_clamped_to_worker_pool(self):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(async_workers=2)
        platform.configure(ppk_prefetch_window=8)
        platform.configure(ppk_block_size=2)
        platform.execute(CROSS_DB_QUERY)
        # 6 blocks at effective W=2: one initial 2-fetch group, then two
        # join+2-fetch rounds, with the last window joined inline.
        assert platform.ctx.async_exec.max_workers == 2
        assert platform.ctx.async_exec.groups_run == 3
        assert platform.ctx.async_exec.branches_run == 8

    def test_worker_pool_knob_validates(self):
        platform = build_platform(deploy_profile=False)
        with pytest.raises(ValueError):
            platform.configure(async_workers=0)
        with pytest.raises(ValueError):
            platform.configure(ppk_prefetch_window=0)

    def test_deeper_window_overlaps_more_latency(self):
        def elapsed(window: int) -> float:
            platform = build_demo_platform(
                customers=60, orders_per_customer=0, deploy_profile=False,
                db_latency=LatencyModel(roundtrip_ms=20.0, per_row_ms=0.01),
            )
            platform.configure(ppk_block_size=5)
            platform.configure(ppk_prefetch_window=window)
            start = platform.clock.now_ms()
            platform.execute(CROSS_DB_QUERY)
            return platform.clock.now_ms() - start

        times = {w: elapsed(w) for w in (1, 2, 4)}
        assert times[2] < times[1]
        assert times[4] <= times[2]

    def test_degraded_block_mid_window_virtual_clock(self):
        def run(pipelined: bool) -> str:
            platform = build_platform(customers=12, deploy_profile=False)
            platform.configure(ppk_block_size=2)
            platform.configure(partial_results=True)
            if pipelined:
                platform.configure(ppk_prefetch_window=3)
            else:
                platform.configure(ppk_pipelining=False)
            FaultInjector().fail_first(2).attach(platform.ctx.databases["ccdb"])
            return serialize(platform.execute(CROSS_DB_QUERY))

        windowed = run(pipelined=True)
        serial = run(pipelined=False)
        assert windowed == serial  # byte-identical despite faults in-window
        # the first two blocks degraded: C1-C4 left-outer join to nothing
        for cid in ("C1", "C2", "C3", "C4"):
            assert f"<CID>{cid}</CID><CARDS/>" in windowed
        assert "<NUMBER>4405</NUMBER>" in windowed

    def test_degraded_block_mid_window_wall_clock(self):
        platform = build_demo_platform(
            customers=10, orders_per_customer=0, clock=WallClock(),
            deploy_profile=False,
            db_latency=LatencyModel(roundtrip_ms=1.0, per_row_ms=0.0,
                                    connect_timeout_ms=0.0),
        )
        platform.configure(ppk_block_size=2)
        platform.configure(ppk_prefetch_window=3)
        platform.configure(partial_results=True)
        FaultInjector().fail_first(2).attach(platform.ctx.databases["ccdb"])
        out = serialize(platform.execute(CROSS_DB_QUERY))
        platform.close()
        # Which two blocks hit the injected failures is a thread race, but
        # order and left-outer shape are invariant: every customer appears,
        # in arrival order, and exactly two blocks (four customers) degrade.
        cids = [f"C{i}" for i in range(1, 11)]
        positions = [out.index(f"<CID>{cid}</CID>") for cid in cids]
        assert positions == sorted(positions)
        assert out.count("<OUT>") == 10
        assert out.count("<CARDS/>") == 4


# ---------------------------------------------------------------------------
# Tentpole 3: scatter execution of independent regions
# ---------------------------------------------------------------------------


class TestScatterRegions:
    def test_compiler_stamps_independent_lets(self):
        platform = build_platform(deploy_profile=False)
        plan = platform.prepare(SCATTER_QUERY)
        stamped = [c for c in let_clauses(plan.expr)
                   if getattr(c, "scatter_group", None) is not None]
        assert len(stamped) == 2
        assert len({c.scatter_group for c in stamped}) == 1

    def test_dependent_let_is_not_stamped(self):
        platform = build_platform(deploy_profile=False)
        plan = platform.prepare(DEPENDENT_QUERY)
        assert all(getattr(c, "scatter_group", None) is None
                   for c in let_clauses(plan.expr))

    def test_explain_renders_scatter_groups(self):
        platform = build_platform(deploy_profile=False)
        assert "[scatter group" in platform.explain(SCATTER_QUERY)
        assert "[scatter group" not in platform.explain(DEPENDENT_QUERY)

    def test_verifier_rejects_dependent_scatter_group(self):
        # Hand-build a plan whose stamped group violates independence (the
        # stamping pass never produces one — this guards against drift).
        from repro.xml.items import AtomicValue as Atomic
        from repro.xquery import ast_nodes as ast

        first = ast.LetClause("c", ast.Literal(Atomic(1, "xs:integer")))
        second = ast.LetClause("d", ast.VarRef("c"))
        first.scatter_group = 42
        second.scatter_group = 42
        flwor = ast.FLWOR([first, second],
                          ast.SequenceExpr([ast.VarRef("c"), ast.VarRef("d")]))
        report = verify_plan(flwor)
        [finding] = [d for d in report.errors if d.code == "ALDSP-E309"]
        assert "$d" in finding.message and "$c" in finding.message

    def test_scatter_costs_max_not_sum(self):
        def elapsed(parallel: bool) -> float:
            platform = build_demo_platform(customers=4, orders_per_customer=0,
                                           deploy_profile=False)
            platform.configure(parallel_regions=parallel)
            start = platform.clock.now_ms()
            platform.execute(SCATTER_QUERY)
            return platform.clock.now_ms() - start

        # each region ships 4 rows: roundtrip + 4 * per_row = 5.2ms
        region_ms = 5.0 + 4 * 0.05
        assert elapsed(parallel=False) == pytest.approx(2 * region_ms)
        assert elapsed(parallel=True) == pytest.approx(region_ms)

    def test_scatter_results_match_serial(self):
        platform = build_platform(customers=5, deploy_profile=False)
        out = serialize(platform.execute(SCATTER_QUERY))
        reference = build_platform(customers=5, deploy_profile=False)
        reference.configure(parallel_regions=False)
        assert out == serialize(reference.execute(SCATTER_QUERY))
        assert "<A>5</A>" in out and "<B>5</B>" in out

    def test_scatter_branches_nest_under_async_group_span(self):
        platform = build_platform(customers=3, deploy_profile=False)
        profile = platform.profile(SCATTER_QUERY)
        groups = profile.root.find("async.group")
        assert groups and groups[0].attrs["branches"] == 2
        assert len(groups[0].find("async.branch")) == 2

    def test_scatter_degrades_per_branch_with_partial_results(self):
        platform = build_platform(customers=3, deploy_profile=False)
        platform.configure(partial_results=True)
        platform.ctx.databases["ccdb"].available = False
        out = serialize(platform.execute(SCATTER_QUERY))
        assert "<A>3</A>" in out  # the healthy branch is unaffected
        assert "<B>0</B>" in out  # the dead source degrades to empty
        assert platform.ctx.databases["ccdb"].stats.degraded >= 1


# ---------------------------------------------------------------------------
# Satellite: bounded LRU function cache
# ---------------------------------------------------------------------------


def _items(n: int):
    return [AtomicValue(n, "xs:integer")]


class TestFunctionCacheBound:
    def make(self, capacity: int) -> FunctionCache:
        cache = FunctionCache(max_entries=capacity)
        cache.enable("f", ttl_ms=10_000.0)
        return cache

    def test_lru_eviction_over_capacity(self):
        cache = self.make(2)
        cache.put("f", "a", _items(1))
        cache.put("f", "b", _items(2))
        cache.put("f", "c", _items(3))
        assert cache.stats.evictions == 1
        assert cache.get("f", "a") is None  # oldest entry evicted
        assert cache.get("f", "b") is not None
        assert cache.get("f", "c") is not None

    def test_get_refreshes_recency(self):
        cache = self.make(2)
        cache.put("f", "a", _items(1))
        cache.put("f", "b", _items(2))
        assert cache.get("f", "a") is not None  # a becomes most recent
        cache.put("f", "c", _items(3))
        assert cache.get("f", "b") is None  # b was the LRU entry
        assert cache.get("f", "a") is not None

    def test_set_capacity_shrinks_immediately(self):
        cache = self.make(8)
        for i in range(5):
            cache.put("f", str(i), _items(i))
        cache.set_capacity(2)
        assert cache.snapshot()["size"] == 2
        assert cache.stats.evictions == 3
        with pytest.raises(ValueError):
            cache.set_capacity(0)

    def test_snapshot_shape(self):
        cache = self.make(4)
        cache.put("f", "a", _items(1))
        cache.get("f", "a")
        cache.get("f", "zzz")
        snap = cache.snapshot()
        assert snap == {"size": 1, "capacity": 4, "hits": 1, "misses": 1,
                        "expirations": 0, "evictions": 0}

    def test_platform_exposes_cache_stats_and_metrics(self):
        platform = build_platform(deploy_profile=False)
        assert platform.function_cache_stats()["capacity"] == 512
        platform.cache.set_capacity(16)
        assert platform.function_cache_stats()["capacity"] == 16
        assert platform.metrics_snapshot()["cache.evictions"] == 0
