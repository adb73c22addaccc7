"""Prepared-statement caching and pipelined PP-k (roundtrip-path perf).

Covers the per-database LRU statement cache (hit/miss/eviction order, DDL
invalidation, parse-latency accounting), PP-k bucket padding (NULL pads
must not match rows, and padding is what lets varying block sizes share
one cached statement), and the pipelined PP-k prefetch (strictly lower
virtual-clock elapsed, identical results under wall and virtual clocks).
"""

from __future__ import annotations

import threading

import pytest

from repro.clock import VirtualClock, WallClock
from repro.demo import build_demo_platform
from repro.errors import DynamicError, SQLError
from repro.relational import Connection, Database, LatencyModel
from repro.xml.serialize import serialize_item

POINT_QUERY = 'SELECT t1."NAME" AS c1 FROM "T" t1 WHERE t1."ID" = ?'

PPK_QUERY = """
for $c in CUSTOMER()
return <OUT>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</OUT>
"""


def make_db(**kwargs) -> Database:
    db = Database("d", **kwargs)
    db.create_table(
        "T", [("ID", "INTEGER", False), ("NAME", "VARCHAR")], primary_key=["ID"]
    )
    db.load("T", [{"ID": 1, "NAME": "a"}, {"ID": 2, "NAME": "b"}])
    return db


def run_profile(customers: int, k: int, pipelined: bool = True,
                cache: bool = True, clock=None, db_latency=None):
    platform = build_demo_platform(
        customers=customers, orders_per_customer=0, deploy_profile=False,
        clock=clock,
        db_latency=db_latency or LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.configure(ppk_block_size=k)
    platform.configure(ppk_pipelining=pipelined)
    platform.configure(statement_cache=cache)
    start = platform.clock.now_ms()
    result = [serialize_item(item) for item in platform.execute(PPK_QUERY)]
    elapsed = platform.clock.now_ms() - start
    return platform, result, elapsed


# ---------------------------------------------------------------------------
# Statement cache: connection-level behaviour
# ---------------------------------------------------------------------------


class TestStatementCache:
    def test_repeated_statement_parses_once(self):
        db = make_db()
        conn = Connection(db)
        for key in (1, 2, 1):
            conn.execute_query(POINT_QUERY, [key])
        assert db.stats.parses == 1
        assert db.stats.stmt_cache_misses == 1
        assert db.stats.stmt_cache_hits == 2
        assert conn.prepare(POINT_QUERY) is conn.prepare(POINT_QUERY)

    def test_lru_eviction_order(self):
        db = make_db(statement_cache_capacity=2)
        conn = Connection(db)
        s1 = 'SELECT t1."ID" AS c1 FROM "T" t1'
        s2 = 'SELECT t1."NAME" AS c1 FROM "T" t1'
        s3 = 'SELECT t1."ID" AS c1, t1."NAME" AS c2 FROM "T" t1'
        conn.prepare(s1)
        conn.prepare(s2)
        conn.prepare(s1)  # touch: s2 becomes the LRU entry
        conn.prepare(s3)  # evicts s2, not s1
        assert db.statements.cached_sql() == [s1, s3]
        assert db.stats.stmt_cache_evictions == 1
        conn.prepare(s2)  # re-prepare the evicted text: a fresh miss
        assert db.stats.parses == 4

    def test_ddl_invalidates_cache(self):
        db = make_db()
        conn = Connection(db)
        conn.prepare(POINT_QUERY)
        assert len(db.statements) == 1
        db.create_table("U", [("ID", "INTEGER", False)])
        assert len(db.statements) == 0
        assert db.stats.stmt_cache_invalidations == 1
        conn.prepare(POINT_QUERY)
        assert db.stats.parses == 2
        db.drop_table("U")
        assert len(db.statements) == 0
        assert db.stats.stmt_cache_invalidations == 2

    def test_prepare_resolves_tables_early(self):
        db = make_db()
        conn = Connection(db)
        with pytest.raises(SQLError, match="no table NOPE"):
            conn.prepare('SELECT t1."X" AS c1 FROM "NOPE" t1')
        prepared = conn.prepare(POINT_QUERY)
        assert set(prepared.tables) == {"T"}
        assert prepared.is_query

    def test_prepare_dml_statement(self):
        db = make_db()
        prepared = db.statements.prepare(
            "UPDATE \"T\" SET \"NAME\" = 'z' WHERE \"ID\" = 1"
        )
        assert not prepared.is_query
        assert set(prepared.tables) == {"T"}
        conn = Connection(db)
        assert conn.execute_update(prepared) == 1
        assert db.table("T").lookup_pk((1,))["NAME"] == "z"

    def test_disabled_cache_parses_every_time(self):
        db = make_db()
        db.statements.enabled = False
        conn = Connection(db)
        conn.execute_query(POINT_QUERY, [1])
        conn.execute_query(POINT_QUERY, [2])
        assert db.stats.parses == 2
        assert db.stats.stmt_cache_hits == 0

    def test_parse_latency_charged_on_hard_parse_only(self):
        clock = VirtualClock()
        db = make_db(
            latency=LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=2.0),
            clock=clock,
        )
        conn = Connection(db)
        for key in (1, 2, 1):
            conn.execute_query(POINT_QUERY, [key])
        assert clock.now_ms() == pytest.approx(2.0)  # one hard parse, two hits


# ---------------------------------------------------------------------------
# PP-k: bucketed statements, padding, pipelining
# ---------------------------------------------------------------------------


class TestPPkRoundtripPath:
    def test_parse_count_one_per_region_bucket(self):
        # 100 customers / k=20 -> 5 full blocks, all in the same bucket:
        # the disjunctive statement is hard-parsed exactly once.
        platform, result, _ = run_profile(customers=100, k=20)
        ccdb = platform.ctx.databases["ccdb"]
        assert len(result) == 100
        assert platform.ctx.stats.ppk_blocks == 5
        assert ccdb.stats.roundtrips == 5
        assert ccdb.stats.parses == 1
        assert ccdb.stats.stmt_cache_hits == 4
        # cache off: every block pays the parse again
        platform_off, result_off, _ = run_profile(customers=100, k=20, cache=False)
        assert result_off == result
        assert platform_off.ctx.databases["ccdb"].stats.parses == 5

    def test_bucket_padding_shares_statement_and_never_matches(self):
        # 11 customers / k=4 -> blocks of 4, 4, 3; the 3-key tail block is
        # padded to the 4-ary bucket with a NULL, so all three blocks share
        # one statement — and the NULL pad must not match any row, not even
        # a CREDIT_CARD row whose CID is NULL.
        platform = build_demo_platform(customers=11, orders_per_customer=0,
                                       deploy_profile=False)
        ccdb = platform.ctx.databases["ccdb"]
        ccdb.table("CREDIT_CARD").insert(
            {"CCID": "CCX", "CID": None, "NUMBER": "NEVER"}
        )
        platform.configure(ppk_block_size=4)
        result = [serialize_item(i) for i in platform.execute(PPK_QUERY)]
        assert len(result) == 11
        assert all("NEVER" not in item for item in result)
        assert ccdb.stats.rows_shipped == 11  # padding fetched no extra rows
        assert ccdb.stats.parses == 1  # one (region, bucket) pair
        # identical to the unpipelined, uncached execution
        platform2 = build_demo_platform(customers=11, orders_per_customer=0,
                                        deploy_profile=False)
        platform2.ctx.databases["ccdb"].table("CREDIT_CARD").insert(
            {"CCID": "CCX", "CID": None, "NUMBER": "NEVER"}
        )
        platform2.configure(ppk_block_size=4)
        platform2.configure(ppk_pipelining=False)
        platform2.configure(statement_cache=False)
        baseline = [serialize_item(i) for i in platform2.execute(PPK_QUERY)]
        assert result == baseline

    def test_pipelined_strictly_faster_than_serial_same_results(self):
        _, serial_result, serial_ms = run_profile(customers=60, k=10,
                                                  pipelined=False)
        _, piped_result, piped_ms = run_profile(customers=60, k=10,
                                                pipelined=True)
        assert piped_result == serial_result
        assert piped_ms < serial_ms

    def test_wall_clock_matches_virtual_clock_results(self):
        _, virtual_result, _ = run_profile(customers=12, k=4)
        fast = LatencyModel(roundtrip_ms=1.0, per_row_ms=0.01)
        before = set(threading.enumerate())
        platform, wall_result, _ = run_profile(customers=12, k=4,
                                               clock=WallClock(),
                                               db_latency=fast)
        assert wall_result == virtual_result
        platform.close()
        assert platform.ctx.async_exec._pool is None
        # close() joins the prefetch workers: no thread this run spawned
        # survives it (shutdown(wait=True), the Platform-reset leak fix)
        assert set(threading.enumerate()) <= before

    def test_missing_correlation_alias_raises_dynamic_error(self, monkeypatch):
        platform = build_demo_platform(customers=4, orders_per_customer=0,
                                       deploy_profile=False)
        platform.configure(ppk_block_size=2)
        original = Connection.execute_query

        def broken(self, sql, params=None):
            rows = original(self, sql, params)
            if self.db.name == "ccdb":
                rows = [{"bogus": row.get("c1")} for row in rows]
            return rows

        monkeypatch.setattr(Connection, "execute_query", broken)
        with pytest.raises(DynamicError, match="correlation alias"):
            platform.execute(PPK_QUERY)

    def test_platform_statement_cache_introspection(self):
        platform, _, _ = run_profile(customers=20, k=5)
        stats = platform.statement_cache_stats()
        assert set(stats) == {"custdb", "ccdb"}
        ccdb = stats["ccdb"]
        assert ccdb["enabled"] and ccdb["size"] >= 1
        assert ccdb["hits"] + ccdb["misses"] == ccdb["hits"] + ccdb["parses"]
        platform.configure(statement_cache=False)
        assert not platform.statement_cache_stats()["ccdb"]["enabled"]
        assert platform.statement_cache_stats()["ccdb"]["size"] == 0
