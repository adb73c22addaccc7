"""Cost-based plan choice (P-COST): the statistics catalog, the costing
pass over strategy alternatives, greedy join ordering, warm-started
estimates from the plan-stats store, and mid-query re-planning."""

from __future__ import annotations

import pytest

from repro import serialize
from repro.clock import VirtualClock
from repro.compiler.stats import (DEFAULT_SELECTIVITY, TableStats,
                                  clamp_selectivity)
from repro.demo import build_demo_platform
from repro.relational import Database, LatencyModel
from repro.services import Platform

JOIN_QUERY = ("for $c in CUSTOMER() for $cc in CREDIT_CARD() "
              "where $cc/CID eq $c/CID return $cc/NUMBER")

RATING_QUERY = ("fn:data(getRating(<getRating><lName>x</lName>"
                "<ssn>101</ssn></getRating>)/getRatingResult)")


def demo(customers: int = 4, **kwargs):
    return build_demo_platform(customers=customers, orders_per_customer=2,
                               deploy_profile=False, **kwargs)


def three_way_platform() -> Platform:
    """ORDERS joining CUSTOMER (unfiltered pk join) and ACCOUNT (pk join
    plus a pushed filter) — the shape the greedy join ordering permutes."""
    clock = VirtualClock()
    platform = Platform(clock=clock)
    orders = Database("orders", vendor="oracle", clock=clock)
    orders.create_table(
        "ORDERS",
        [("OID", "VARCHAR", False), ("CID", "VARCHAR"), ("AID", "VARCHAR")],
        primary_key=["OID"])
    crm = Database("crm", vendor="oracle", clock=clock)
    crm.create_table(
        "CUSTOMER", [("CID", "VARCHAR", False), ("NAME", "VARCHAR")],
        primary_key=["CID"])
    billing = Database("billing", vendor="db2", clock=clock)
    billing.create_table(
        "ACCOUNT", [("AID", "VARCHAR", False), ("BALANCE", "INTEGER")],
        primary_key=["AID"])
    for i in range(1, 9):
        orders.table("ORDERS").insert(
            {"OID": f"O{i}", "CID": f"C{1 + (i - 1) % 4}", "AID": f"A{i}"})
    for i in range(1, 5):
        crm.table("CUSTOMER").insert({"CID": f"C{i}", "NAME": f"N{i}"})
    for i in range(1, 9):
        billing.table("ACCOUNT").insert({"AID": f"A{i}", "BALANCE": 10 * i})
    for db in (orders, crm, billing):
        platform.register_database(db)
    return platform


THREE_WAY_QUERY = (
    "for $o in ORDERS() for $c in CUSTOMER() for $a in ACCOUNT() "
    "where $c/CID eq $o/CID and $a/AID eq $o/AID and $a/BALANCE gt 45 "
    "return <R>{$o/OID}{$c/NAME}{$a/BALANCE}</R>")


def spans_of_kind(profile, kind: str) -> list:
    out = []

    def walk(span):
        if span.kind == kind:
            out.append(span)
        for child in span.children:
            walk(child)

    for root in profile.tracer.roots:
        walk(root)
    return out


class TestSelectivityClamping:
    def test_missing_ndv_falls_back_to_default(self):
        stats = TableStats(rows=100)
        assert clamp_selectivity(stats, "CID") == DEFAULT_SELECTIVITY

    def test_one_over_ndv(self):
        stats = TableStats(rows=100, ndv={"CID": 20})
        assert clamp_selectivity(stats, "CID") == pytest.approx(0.05)

    def test_zero_ndv_treated_as_unknown(self):
        stats = TableStats(rows=100, ndv={"CID": 0})
        assert clamp_selectivity(stats, "CID") == DEFAULT_SELECTIVITY

    def test_floored_at_one_over_rows(self):
        # ndv larger than the table cannot make a key rarer than 1/rows
        stats = TableStats(rows=5, ndv={"CID": 50})
        assert clamp_selectivity(stats, "CID") == pytest.approx(0.2)

    def test_empty_table_clamps_to_one(self):
        stats = TableStats(rows=0, ndv={"CID": 3})
        assert clamp_selectivity(stats, "CID") == 1.0


class TestStatisticsCatalog:
    def test_live_statistics_from_registered_tables(self):
        platform = demo()
        stats = platform.statistics.table_stats("custdb", "CUSTOMER")
        assert stats.rows == 4
        assert stats.ndv["CID"] == 4
        assert stats.unique_columns == ("CID",)
        # ORDER's primary key is OID; CID repeats across orders
        orders = platform.statistics.table_stats("custdb", "ORDER")
        assert orders.rows == 8
        assert orders.ndv["CID"] == 4

    def test_overrides_shadow_and_clear(self):
        platform = demo()
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=99,
                                            ndv={"CID": 9})
        stats = platform.statistics.table_stats("custdb", "CUSTOMER")
        assert stats.rows == 99 and stats.ndv["CID"] == 9
        platform.statistics.clear_overrides()
        assert platform.statistics.table_stats("custdb", "CUSTOMER").rows == 4

    def test_unknown_database_has_no_stats(self):
        platform = demo()
        assert platform.statistics.table_stats("nosuch", "T") is None
        assert platform.statistics.latency("nosuch") is None


class TestColdStartByteIdentity:
    def test_off_by_default_and_toggle_restores_plan(self):
        platform = demo()
        before = platform.explain(JOIN_QUERY)
        assert "[cost:" not in before
        platform.configure(cost_based=True)
        stamped = platform.explain(JOIN_QUERY)
        assert "[cost:" in stamped
        platform.configure(cost_based=False)
        assert platform.explain(JOIN_QUERY) == before

    def test_functional_sources_are_untouched(self):
        # no table statistics exist for a Web service call: the costing
        # pass leaves the plan byte-identical even when enabled
        platform = demo()
        before = platform.explain(RATING_QUERY)
        platform.configure(cost_based=True)
        assert platform.explain(RATING_QUERY) == before

    def test_empty_tables_cost_safely(self):
        platform = demo(customers=0)
        expected = serialize(platform.execute(JOIN_QUERY))
        platform.configure(cost_based=True)
        assert "est_rows=0" in platform.explain(JOIN_QUERY)
        assert serialize(platform.execute(JOIN_QUERY)) == expected == ""


class TestStrategyChoice:
    @pytest.mark.parametrize("force", [None, "ppk", "index-join", "ship-all"])
    def test_every_strategy_returns_identical_results(self, force):
        platform = demo()
        expected = serialize(platform.execute(JOIN_QUERY))
        platform.configure(cost_based=True, force_strategy=force)
        assert serialize(platform.execute(JOIN_QUERY)) == expected

    def test_forced_strategies_show_in_explain(self):
        platform = demo()
        platform.configure(cost_based=True, force_strategy="index-join")
        text = platform.explain(JOIN_QUERY)
        assert "INDEX NESTED-LOOP JOIN" in text
        assert "strategy=index-join" in text
        platform.configure(cost_based=True, force_strategy="ship-all")
        assert "strategy=ship-all" in platform.explain(JOIN_QUERY)
        platform.configure(cost_based=True, force_strategy="ppk")
        text = platform.explain(JOIN_QUERY)
        assert "PP-" in text and "strategy=ppk" in text

    def test_estimates_render_with_runner_up(self):
        platform = demo()
        platform.configure(cost_based=True)
        text = platform.explain(JOIN_QUERY)
        assert "est_rows=" in text and "est_ms=" in text
        assert "via=statistics" in text and "runner-up=" in text

    def test_invalid_knob_values_rejected(self):
        platform = demo()
        with pytest.raises(ValueError):
            platform.configure(cost_based=True, force_strategy="hash-join")
        with pytest.raises(ValueError):
            platform.configure(replan_threshold=1.0)

    def test_profile_shows_estimates_next_to_actuals(self):
        platform = demo()
        platform.configure(cost_based=True)
        text = platform.profile(JOIN_QUERY).text
        assert "est_rows=" in text and "act_rows=" in text


class TestJoinOrdering:
    def test_selective_filtered_join_runs_first(self):
        platform = three_way_platform()
        expected = serialize(platform.execute(THREE_WAY_QUERY))
        platform.configure(cost_based=True)
        text = platform.explain(THREE_WAY_QUERY)
        # the ACCOUNT unit carries a pushed filter (drops ~90% of outer
        # tuples) so the greedy ordering runs it before the pass-through
        # CUSTOMER join
        assert text.index("for $a") < text.index("$c")
        assert serialize(platform.execute(THREE_WAY_QUERY)) == expected


class TestWarmStart:
    def test_second_compilation_uses_observed_rows(self):
        """The satellite regression: statistics lie (CUSTOMER rows=1), the
        first profiled run feeds the plan-stats store, and the second
        compilation of the same query estimates from observed EWMAs."""
        platform = demo()
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=1)
        platform.configure(cost_based=True)
        cold = platform.explain(JOIN_QUERY)
        assert "est_rows=1" in cold and "via=observed" not in cold
        platform.profile(JOIN_QUERY)
        platform._invalidate_plans()  # recompile
        warm = platform.explain(JOIN_QUERY)
        assert "via=observed" in warm
        assert "est_rows=4" in warm  # the scan's observed cardinality

    def test_warm_start_keyed_by_query_fingerprint(self):
        platform = demo()
        platform.configure(cost_based=True)
        platform.profile(JOIN_QUERY)
        platform._invalidate_plans()
        other = "for $o in ORDER() return $o/AMOUNT"
        assert "via=observed" not in platform.explain(other)


class TestObservedOrDeclaredLatency:
    """``StatisticsCatalog.latency`` takes each component from the fit only
    where the traffic identified it."""

    TEN_CUSTOMERS = (
        'for $c in CUSTOMER(), $cc in CREDIT_CARD() '
        'where $cc/CID eq $c/CID and $c/CID le "C1006" '
        'return <R>{$c/CID}{$cc/NUMBER}</R>')

    def platform(self):
        platform = build_demo_platform(
            customers=2000, orders_per_customer=0,
            db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.5))
        platform.configure(cost_based=True)
        for cid in ("C1", "C2", "C3"):  # one row each: no row-count variance
            platform.execute(
                f'for $cc in CREDIT_CARD() where $cc/CID eq "{cid}" return $cc')
        return platform

    def test_keyed_lookups_do_not_price_rows_at_zero(self):
        """Three keyed lookups used to read as (5.5, 0.0) — "rows are
        free" — and flip this join to a 2,000-row index join: 1,015 virtual
        ms for a 20 ms query."""
        platform = self.platform()
        assert platform.statistics.latency("ccdb") == pytest.approx((5.0, 0.5))
        assert "strategy=ppk" in platform.explain(self.TEN_CUSTOMERS)
        ccdb = platform.ctx.databases["ccdb"].stats
        start, shipped = platform.clock.now_ms(), ccdb.rows_shipped
        assert len(platform.execute(self.TEN_CUSTOMERS)) == 10
        assert platform.clock.now_ms() - start <= 25.0
        assert ccdb.rows_shipped - shipped == 10

    def test_a_scan_identifies_the_fit_and_it_replaces_the_declared_pair(self):
        platform = self.platform()
        ccdb = platform.ctx.databases["ccdb"]
        ccdb.latency = LatencyModel(roundtrip_ms=50.0, per_row_ms=5.0)
        # not identified: the declared per-row stands, the roundtrip is the
        # observed mean (5.5 at one row) less the declared per-row share
        assert platform.statistics.latency("ccdb") == pytest.approx((0.5, 5.0))
        ccdb.latency = LatencyModel(roundtrip_ms=5.0, per_row_ms=0.5)
        platform.execute("for $cc in CREDIT_CARD() return $cc/CID")
        ccdb.latency = LatencyModel(roundtrip_ms=50.0, per_row_ms=5.0)
        estimate = platform.observed.estimate("ccdb")
        assert estimate.identified and estimate.samples == 4
        assert platform.statistics.latency("ccdb") == \
            (estimate.roundtrip_ms, estimate.per_row_ms)
        assert platform.statistics.latency("ccdb") == pytest.approx((5.0, 0.5))


class TestReplanning:
    def test_ppk_to_scan_replan_recovers_and_counts(self):
        expected = serialize(demo(customers=8).execute(JOIN_QUERY))
        platform = demo(customers=8)
        platform.configure(ppk_block_size=2)
        # lie: claim 2 customers so PP-k looks like one cheap roundtrip
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=2)
        platform.configure(cost_based=True)
        platform.configure(replan_threshold=2.0)
        assert "strategy=ppk" in platform.explain(JOIN_QUERY)
        profile = platform.profile(JOIN_QUERY)
        assert serialize(platform.execute(JOIN_QUERY)) == expected
        replans = spans_of_kind(profile, "replan")
        assert len(replans) == 1
        assert replans[0].attrs["strategy_from"] == "ppk"
        assert replans[0].attrs["strategy_to"] == "scan"
        assert platform.metrics_snapshot()["runtime.replans"] >= 1

    def test_index_join_to_ppk_replan_on_overestimate(self):
        expected = serialize(demo(customers=8).execute(JOIN_QUERY))
        platform = demo(customers=8)
        # lie the other way: a huge outer makes index-join win, but the
        # real outer finishes before the build commit point
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=1000)
        platform.configure(cost_based=True)
        platform.configure(replan_threshold=2.0)
        assert "strategy=index-join" in platform.explain(JOIN_QUERY)
        profile = platform.profile(JOIN_QUERY)
        assert serialize(platform.execute(JOIN_QUERY)) == expected
        replans = spans_of_kind(profile, "replan")
        assert len(replans) == 1
        assert replans[0].attrs["strategy_from"] == "index-join"
        assert replans[0].attrs["strategy_to"] == "ppk"

    def test_a_cached_function_body_numbers_no_operator(self):
        """A cached function runs its compiled body; operator ids name the
        *calling* plan's operators, so the body carries none — the PP-k
        twin its index join re-plans to included."""
        platform = demo(customers=8)
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=1000)
        platform.deploy(f"declare function cards() {{ {JOIN_QUERY} }};", name="Cards")
        platform.configure(cost_based=True, replan_threshold=2.0)
        platform.enable_function_cache("cards", ttl_ms=10_000)
        profile = platform.profile("cards()")
        replans = spans_of_kind(profile, "replan")
        assert [span.attrs["strategy_to"] for span in replans] == ["ppk"]
        assert spans_of_kind(profile, "ppk.fetch")
        assert sorted(profile.aggregates) == [1]  # CALL cards, #1

    def test_replan_is_deterministic(self):
        def run():
            platform = demo(customers=8)
            platform.configure(ppk_block_size=2)
            platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=2)
            platform.configure(cost_based=True)
            platform.configure(replan_threshold=2.0)
            out = serialize(platform.execute(JOIN_QUERY))
            return out, platform.ctx.stats.replans, platform.clock.now_ms()

        assert run() == run()

    def test_no_replan_when_estimate_is_right(self):
        platform = demo(customers=8)
        platform.configure(ppk_block_size=2)
        platform.configure(cost_based=True, force_strategy="ppk")
        platform.configure(replan_threshold=2.0)
        platform.execute(JOIN_QUERY)
        assert platform.ctx.stats.replans == 0
