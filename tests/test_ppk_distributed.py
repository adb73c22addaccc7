"""PP-k distributed join tests (section 4.2).

The running-example federation splits CUSTOMER (custdb) from CREDIT_CARD
(ccdb), so queries correlating them execute as PP-k joins: the block size
k controls the roundtrip count (ceil(N/k) requests), and the request is a
single disjunctive parameterized query per block.
"""


import pytest

from repro.compiler import PPkLetClause, PushedSQL
from repro.xml import serialize

from tests.conftest import build_platform

CROSS_DB_QUERY = '''
for $c in CUSTOMER()
return <OUT>{
    $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID return $cc/NUMBER }</CARDS>
}</OUT>
'''


def ppk_clauses(expr):
    return [n for n in expr.walk() if isinstance(n, PPkLetClause)]


class TestPlanShape:
    def test_cross_database_query_uses_ppk(self):
        platform = build_platform(deploy_profile=False)
        plan = platform.prepare(CROSS_DB_QUERY)
        clauses = ppk_clauses(plan.expr)
        assert len(clauses) == 1
        assert clauses[0].pushed.database == "ccdb"
        assert clauses[0].pushed.correlation is not None
        assert clauses[0].k == 20  # the paper's default

    def test_block_size_configurable(self):
        platform = build_platform(deploy_profile=False)
        platform.configure(ppk_block_size=5)
        plan = platform.prepare(CROSS_DB_QUERY)
        assert ppk_clauses(plan.expr)[0].k == 5

    def test_same_database_correlation_not_crossed(self):
        # CUSTOMER and ORDER share custdb: the whole region pushes as one
        # SQL (outer join), no PP-k involved.
        platform = build_platform(deploy_profile=False)
        plan = platform.prepare('''
            for $c in CUSTOMER()
            return <OUT>{ $c/CID,
                for $o in ORDER() where $o/CID eq $c/CID return $o/OID }</OUT>
        ''')
        assert isinstance(plan.expr, PushedSQL)
        assert not ppk_clauses(plan.expr)


class TestExecution:
    def test_results_match_left_outer_semantics(self):
        platform = build_platform(customers=3, deploy_profile=False)
        # remove one credit card so a customer has none
        ccdb = platform.ctx.databases["ccdb"]
        ccdb.table("CREDIT_CARD").restore(
            [r for r in ccdb.table("CREDIT_CARD").rows if r["CID"] != "C2"]
        )
        out = serialize(platform.execute(CROSS_DB_QUERY))
        assert "<CID>C2</CID><CARDS/>" in out
        assert "<NUMBER>4401</NUMBER>" in out

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_results_identical_for_any_k(self, k):
        platform = build_platform(customers=7, deploy_profile=False)
        platform.configure(ppk_block_size=k)
        out = serialize(platform.execute(CROSS_DB_QUERY))
        reference = build_platform(customers=7, deploy_profile=False)
        reference.configure(pushdown=False)
        expected = serialize(reference.execute(CROSS_DB_QUERY))
        assert out == expected

    @pytest.mark.parametrize("k,expected_blocks", [(1, 12), (4, 3), (6, 2), (12, 1), (50, 1)])
    def test_roundtrips_scale_as_n_over_k(self, k, expected_blocks):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.configure(ppk_block_size=k)
        platform.execute(CROSS_DB_QUERY)
        assert platform.ctx.stats.ppk_blocks == expected_blocks
        assert platform.ctx.databases["ccdb"].stats.roundtrips == expected_blocks

    def test_disjunctive_query_has_k_parameters(self):
        platform = build_platform(customers=6, deploy_profile=False)
        platform.configure(ppk_block_size=3)
        platform.execute(CROSS_DB_QUERY)
        [statement] = set(platform.ctx.databases["ccdb"].stats.statements)
        # one (col = ?) per distinct key in the block
        assert statement.count("?") == 3
        assert statement.count("OR") == 2

    def test_duplicate_keys_deduplicated_within_block(self):
        platform = build_platform(customers=1, deploy_profile=False)
        custdb = platform.ctx.databases["custdb"]
        # two customers sharing a CID is impossible (PK), so correlate on
        # LAST_NAME instead: many customers share a surname
        for i in range(2, 7):
            custdb.table("CUSTOMER").insert(
                {"CID": f"C{i}", "FIRST_NAME": "X", "LAST_NAME": "Jones",
                 "SSN": f"{100+i}", "SINCE": 864000}
            )
        ccdb = platform.ctx.databases["ccdb"]
        query = '''
        for $c in CUSTOMER()
        return <OUT>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/LAST_NAME
                      return $cc }</OUT>
        '''
        platform.configure(ppk_block_size=10)
        platform.execute(query)
        [statement] = set(ccdb.stats.statements)
        assert statement.count("?") == 1  # 6 tuples, 1 distinct key

    def test_ppk_tuples_counted(self):
        platform = build_platform(customers=9, deploy_profile=False)
        platform.configure(ppk_block_size=4)
        platform.execute(CROSS_DB_QUERY)
        assert platform.ctx.stats.ppk_tuples == 9

    def test_quantified_against_remote_table_uses_ppk(self):
        platform = build_platform(customers=3, deploy_profile=False)
        plan = platform.prepare('''
            for $c in CUSTOMER()
            where some $cc in CREDIT_CARD() satisfies $cc/CID eq $c/CID
            return $c/CID
        ''')
        assert ppk_clauses(plan.expr)
        out = serialize(platform.execute('''
            for $c in CUSTOMER()
            where some $cc in CREDIT_CARD() satisfies $cc/CID eq $c/CID
            return $c/CID
        '''))
        assert out == "<CID>C1</CID><CID>C2</CID><CID>C3</CID>"

    def test_aggregate_over_remote_table_via_ppk(self):
        platform = build_platform(customers=3, deploy_profile=False)
        out = serialize(platform.execute('''
            for $c in CUSTOMER()
            return <N>{ count(for $cc in CREDIT_CARD()
                              where $cc/CID eq $c/CID return $cc) }</N>
        '''))
        assert out == "<N>1</N><N>1</N><N>1</N>"


class TestLatencyTradeoff:
    def test_larger_k_means_less_total_latency(self):
        # "A small value of k means many roundtrips" — with a fixed
        # roundtrip cost, time decreases as k grows.
        times = {}
        for k in (1, 5, 20):
            platform = build_platform(customers=40, orders_per_customer=0,
                                      deploy_profile=False)
            platform.configure(ppk_block_size=k)
            start = platform.clock.now_ms()
            platform.execute(CROSS_DB_QUERY)
            times[k] = platform.clock.now_ms() - start
        assert times[1] > times[5] > times[20]
