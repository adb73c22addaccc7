"""Pushdown fallback behaviour: when a region cannot fully push, the
pushable parts still ship and the rest evaluates mid-tier, with results
always identical to naive evaluation (section 4.3's local reordering by
"acceptability for pushdown")."""

import pytest

from repro.compiler import PushedSQL
from repro.errors import DynamicError, SQLError
from repro.xml import serialize

from tests.conftest import build_platform


def both_plans(query, **kwargs):
    pushed_platform = build_platform(deploy_profile=False, **kwargs)
    pushed_out = serialize(pushed_platform.execute(query))
    naive_platform = build_platform(deploy_profile=False, **kwargs)
    naive_platform.configure(pushdown=False)
    naive_out = serialize(naive_platform.execute(query))
    return pushed_platform, pushed_out, naive_out


class TestPartialPredicatePushdown:
    def test_mixed_conjuncts_split(self):
        # contains() with a computed needle is not pushable; the SINCE
        # range is. The scan must still carry the pushable predicate.
        query = '''
            for $c in CUSTOMER()
            where $c/SINCE ge 864000 and contains($c/LAST_NAME, lower-case("ONES"))
            return $c/CID
        '''
        platform, pushed, naive = both_plans(query, customers=4)
        assert pushed == naive == "<CID>C1</CID>"
        custdb_sql = [s for s in platform.ctx.databases["custdb"].stats.statements
                      if "CUSTOMER" in s]
        assert any('"SINCE" >=' in s for s in custdb_sql)
        assert all("LOWER" not in s for s in custdb_sql)

    def test_fully_unpushable_predicate_still_correct(self):
        query = '''
            for $c in CUSTOMER()
            where string-length(normalize-space($c/LAST_NAME)) gt 4
            return $c/CID
        '''
        _platform, pushed, naive = both_plans(query, customers=4)
        assert pushed == naive

    def test_multi_step_path_evaluated_midtier(self):
        platform = build_platform(customers=2)
        out = platform.execute('''
            for $p in getProfile()
            return sum($p/ORDERS/ORDER/AMOUNT)
        ''')
        assert [i.value for i in out] == [30, 70]

    def test_instance_of_in_where_not_pushed(self):
        query = '''
            for $c in CUSTOMER()
            where data($c/SINCE) instance of xs:int
            return $c/CID
        '''
        platform, pushed, naive = both_plans(query, customers=3)
        assert pushed == naive
        assert pushed.count("<CID>") == 3

    def test_positional_predicate_not_pushed(self):
        query = "(for $c in CUSTOMER() return $c/CID)[2]"
        _platform, pushed, naive = both_plans(query, customers=3)
        assert pushed == naive == "<CID>C2</CID>"


class TestScanFallback:
    def test_disabled_pushdown_uses_adaptor_scan(self):
        platform = build_platform(customers=2, deploy_profile=False)
        platform.configure(pushdown=False)
        out = platform.execute("CUSTOMER()")
        assert len(out) == 2
        # the fallback scan selects every column explicitly
        [statement] = platform.ctx.databases["custdb"].stats.statements
        assert statement.startswith("SELECT") and "CID" in statement

    def test_nulls_are_missing_elements_in_scans(self):
        platform = build_platform(customers=1, deploy_profile=False)
        platform.ctx.databases["custdb"].table("CUSTOMER").update_at(
            0, {"LAST_NAME": None})
        [row] = platform.execute("CUSTOMER()")
        assert "<LAST_NAME>" not in serialize(row)
        # and under the pushed row template as well
        platform2 = build_platform(customers=1, deploy_profile=False)
        platform2.configure(pushdown=False)
        platform2.ctx.databases["custdb"].table("CUSTOMER").update_at(
            0, {"LAST_NAME": None})
        [row2] = platform2.execute("CUSTOMER()")
        assert serialize(row) == serialize(row2)


class TestArithmeticOnAStringColumn:
    """Arithmetic on a string column fails with the engine's own error on
    both sides of the pushdown boundary: pushed, the source raises
    SQLError (as it does for a mixed comparison); mid-tier, the evaluator
    raises DynamicError.  Neither is Python's TypeError."""

    @pytest.mark.parametrize("query, sql", [
        ("for $o in ORDER() return $o/OID + 1", 't1."OID" + 1'),
        ("for $o in ORDER() return - $o/OID", '0 - t1."OID"'),
    ])
    def test_pushed_and_midtier(self, query, sql):
        pushed = build_platform(deploy_profile=False)
        assert sql in pushed.explain(query)
        with pytest.raises(SQLError, match="cannot apply"):
            pushed.execute(query)
        naive = build_platform(deploy_profile=False)
        naive.configure(pushdown=False)
        with pytest.raises(DynamicError, match="cannot treat 'O1' as a number"):
            naive.execute(query)


class TestPushdownKnobs:
    def test_clause_join_pushdown_ablation(self):
        query = '''
            for $c in CUSTOMER(), $o in ORDER()
            where $c/CID eq $o/CID and matches($o/OID, "^O\\d+$")
            return <P>{ $c/CID, $o/OID }</P>
        '''
        platform = build_platform(customers=3, deploy_profile=False)
        out_joined = serialize(platform.execute(query))
        ablated = build_platform(customers=3, deploy_profile=False)
        ablated.configure(clause_join_pushdown=False)
        out_ablated = serialize(ablated.execute(query))
        assert out_joined == out_ablated
        # with clause-level join pushdown, one statement contains the JOIN
        joined_sql = platform.ctx.databases["custdb"].stats.statements
        assert any("JOIN" in s for s in joined_sql)

    def test_pushed_tuple_clause_binds_both_vars(self):
        platform = build_platform(customers=3, deploy_profile=False)
        query = '''
            for $c in CUSTOMER(), $o in ORDER()
            where $c/CID eq $o/CID and matches($o/OID, "^O\\d+$")
            return <P>{ data($c/LAST_NAME), data($o/AMOUNT) }</P>
        '''
        out = platform.execute(query)
        assert len(out) == 6
        from repro.compiler import PushedTupleForClause

        plan = platform.prepare(query)
        assert any(isinstance(n, PushedTupleForClause) for n in plan.expr.walk())


class TestClusteringRequest:
    """Section 4.2: 'In most ALDSP use cases, a constant-memory group-by
    can be chosen' — the rewriter asks the pushed scan for ORDER BY on the
    grouping columns and marks the middleware group clause pre-clustered."""

    QUERY = '''
        for $c in CUSTOMER()
        group $c as $g by $c/LAST_NAME as $l
        return <G name="{$l}">{
            string-join(for $x in $g return data($x/FIRST_NAME), "+")
        }</G>
    '''

    def test_scan_ordered_and_group_streams(self):
        platform = build_platform(customers=12, deploy_profile=False)
        platform.execute(self.QUERY)
        [statement] = platform.ctx.databases["custdb"].stats.statements
        assert 'ORDER BY t1."LAST_NAME"' in statement
        # constant memory: peak = largest group, not the whole input
        assert platform.evaluator.group_stats.peak_resident <= 3

    def test_results_match_naive(self):
        platform = build_platform(customers=12, deploy_profile=False)
        clustered = serialize(platform.execute(self.QUERY))
        naive = build_platform(customers=12, deploy_profile=False)
        naive.configure(pushdown=False)
        assert clustered == serialize(naive.execute(self.QUERY))

    def test_explicitly_ordered_scan_not_reclustered(self):
        # The inner FLWOR pushes with its own ORDER BY; the rewriter must
        # not override a source ordering the query asked for.
        platform = build_platform(customers=6, deploy_profile=False)
        query = '''
            for $c in (for $x in CUSTOMER() order by $x/SINCE descending return $x)
            group $c as $g by $c/LAST_NAME as $l
            return <G>{ $l, count($g) }</G>
        '''
        out = platform.execute(query)
        assert len(out) >= 1
        [statement] = platform.ctx.databases["custdb"].stats.statements
        assert '"SINCE" DESC' in statement
        assert statement.count("ORDER BY") == 1


class TestOrderPushdownToScan:
    """Section 4.3: ordering work delegated to the source in fallback
    plans — the mid-tier sort disappears when all keys are scan columns."""

    QUERY = '''
        for $c in CUSTOMER()
        let $tag := concat(data($c/CID), ":",
                           string-length(normalize-space($c/LAST_NAME)))
        order by $c/SINCE descending
        return <T>{$tag}</T>
    '''

    def test_order_shipped_with_scan(self):
        platform = build_platform(customers=4, deploy_profile=False)
        platform.execute(self.QUERY)
        [statement] = platform.ctx.databases["custdb"].stats.statements
        assert 'ORDER BY t1."SINCE" DESC' in statement
        # and the plan has no mid-tier sort left
        assert "mid-tier sort" not in platform.explain(self.QUERY)

    def test_results_match_naive(self):
        platform = build_platform(customers=4, deploy_profile=False)
        ordered = serialize(platform.execute(self.QUERY))
        naive = build_platform(customers=4, deploy_profile=False)
        naive.configure(pushdown=False)
        assert ordered == serialize(naive.execute(self.QUERY))

    def test_multiplying_clause_keeps_midtier_sort(self):
        platform = build_platform(customers=3, deploy_profile=False)
        query = '''
            for $c in CUSTOMER()
            for $i in (1, 2)
            order by $c/SINCE descending
            return <T>{ data($c/CID), $i }</T>
        '''
        out = serialize(platform.execute(query))
        naive = build_platform(customers=3, deploy_profile=False)
        naive.configure(pushdown=False)
        assert out == serialize(naive.execute(query))
        assert "order by" in platform.explain(query)

    def test_empty_greatest_not_delegated(self):
        platform = build_platform(customers=3, deploy_profile=False)
        query = '''
            for $c in CUSTOMER()
            let $x := string-length(normalize-space($c/CID))
            order by $c/SINCE descending empty greatest
            return <T>{$x}</T>
        '''
        out = serialize(platform.execute(query))
        naive = build_platform(customers=3, deploy_profile=False)
        naive.configure(pushdown=False)
        assert out == serialize(naive.execute(query))
