"""The pushdown patterns of Tables 1 and 2 (section 4.4).

Each test compiles the paper's XQuery snippet, asserts the plan collapsed
into a single pushed region whose generated SQL has the paper's shape, and
executes it against the simulated Oracle database to check the results.
"""

import pytest

from repro.clock import VirtualClock
from repro.compiler import Compiler, PushedSQL, TableMeta
from repro.runtime import DynamicContext, Evaluator
from repro.schema import leaf, shape, shape_sequence
from repro.services.metadata import MetadataRegistry, SourceFunctionDef
from repro.relational import Database
from repro.xml import serialize
from repro.xquery.typecheck import FunctionSignature


def build_env():
    clock = VirtualClock()
    db = Database("custdb", vendor="oracle", clock=clock)
    db.create_table(
        "CUSTOMER",
        [("CID", "VARCHAR", False), ("FIRST_NAME", "VARCHAR"),
         ("LAST_NAME", "VARCHAR"), ("SINCE", "INTEGER")],
        primary_key=["CID"],
    )
    db.create_table(
        "ORDER",
        [("OID", "VARCHAR", False), ("CID", "VARCHAR"), ("AMOUNT", "INTEGER")],
        primary_key=["OID"],
    )
    db.load("CUSTOMER", [
        {"CID": "C1", "FIRST_NAME": "Al", "LAST_NAME": "Jones", "SINCE": 100},
        {"CID": "C2", "FIRST_NAME": "Bo", "LAST_NAME": "Smith", "SINCE": 200},
        {"CID": "C3", "FIRST_NAME": "Cy", "LAST_NAME": "Jones", "SINCE": 300},
    ])
    db.load("ORDER", [
        {"OID": "O1", "CID": "C1", "AMOUNT": 10},
        {"OID": "O2", "CID": "C1", "AMOUNT": 20},
        {"OID": "O3", "CID": "C3", "AMOUNT": 30},
    ])
    registry = MetadataRegistry()
    for table, pk in (("CUSTOMER", ("CID",)), ("ORDER", ("OID",))):
        columns = [(c.name, c.xs_type) for c in db.table(table).columns]
        meta = TableMeta("custdb", table, table, columns, pk, "oracle")
        sig = FunctionSignature(
            table, [], shape_sequence(shape(table, [leaf(n, t, "?") for n, t in columns]))
        )
        registry.register(SourceFunctionDef(table, sig, "table", table_meta=meta))
    compiler = Compiler(registry=registry)
    ctx = DynamicContext(registry, clock=clock)
    ctx.attach_database(db)
    return compiler, Evaluator(ctx), ctx, db


@pytest.fixture
def env():
    return build_env()


def compile_and_run(env, query):
    compiler, evaluator, ctx, db = env
    plan = compiler.compile_expression(query)
    assert isinstance(plan.expr, PushedSQL), f"not fully pushed: {type(plan.expr)}"
    sql = ctx.renderer(plan.expr.vendor).render(plan.expr.select)
    result = evaluator.eval(plan.expr, {})
    return sql, serialize(result), db


class TestTable1:
    def test_a_simple_select_project(self, env):
        sql, out, db = compile_and_run(env, '''
            for $c in CUSTOMER()
            where $c/CID eq "C1"
            return $c/FIRST_NAME
        ''')
        assert sql == ('SELECT t1."FIRST_NAME" AS c1 FROM "CUSTOMER" t1 '
                       "WHERE t1.\"CID\" = 'C1'")
        assert out == "<FIRST_NAME>Al</FIRST_NAME>"

    def test_b_inner_join(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER(), $o in ORDER()
            where $c/CID eq $o/CID
            return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>
        ''')
        assert 'JOIN "ORDER" t2 ON t1."CID" = t2."CID"' in sql
        assert "LEFT OUTER" not in sql
        assert out.count("<CUSTOMER_ORDER>") == 3

    def test_c_outer_join_with_nesting(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            return <CUSTOMER>{
                $c/CID,
                for $o in ORDER() where $c/CID eq $o/CID return $o/OID
            }</CUSTOMER>
        ''')
        assert 'LEFT OUTER JOIN "ORDER" t2' in sql
        # every customer appears, childless ones without OIDs
        assert out.count("<CUSTOMER>") == 3
        assert "<CID>C2</CID></CUSTOMER>" in out
        assert "<OID>O1</OID><OID>O2</OID>" in out

    def test_d_if_then_else_case(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            return <CUSTOMER>{
                if ($c/CID eq "C1") then $c/FIRST_NAME else $c/LAST_NAME
            }</CUSTOMER>
        ''')
        assert "CASE WHEN t1.\"CID\" = 'C1' THEN" in sql
        assert "<CUSTOMER>Al</CUSTOMER>" in out
        assert "<CUSTOMER>Smith</CUSTOMER>" in out

    def test_e_group_by_with_aggregation(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            group $c as $p by $c/LAST_NAME as $l
            return <CUSTOMER>{ $l, count($p) }</CUSTOMER>
        ''')
        assert 'COUNT(*)' in sql
        assert 'GROUP BY t1."LAST_NAME"' in sql
        assert "<CUSTOMER>Jones 2</CUSTOMER>" in out

    def test_f_group_by_as_distinct(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            group by $c/LAST_NAME as $l
            return $l
        ''')
        assert sql.startswith("SELECT DISTINCT")
        assert "GROUP BY" not in sql
        assert out == "Jones Smith"


class TestTable2:
    def test_g_outer_join_with_aggregation(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            return <CUSTOMER>{
                $c/CID,
                <ORDERS>{ count(for $o in ORDER() where $o/CID eq $c/CID return $o) }</ORDERS>
            }</CUSTOMER>
        ''')
        assert 'LEFT OUTER JOIN "ORDER" t2' in sql
        assert 'COUNT(t2."OID")' in sql
        assert 'GROUP BY t1."CID"' in sql
        assert "<CID>C2</CID><ORDERS>0</ORDERS>" in out

    def test_h_exists_semi_join(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            where some $o in ORDER() satisfies $c/CID eq $o/CID
            return $c/CID
        ''')
        assert "WHERE EXISTS(SELECT 1 FROM \"ORDER\" t2" in sql
        assert out == "<CID>C1</CID><CID>C3</CID>"

    def test_h_every_becomes_not_exists(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            where every $o in ORDER() satisfies $o/AMOUNT gt 0
            return $c/CID
        ''')
        assert "NOT EXISTS(" in sql
        assert out.count("<CID>") == 3

    def test_i_subsequence_rownum(self, env):
        sql, out, _ = compile_and_run(env, '''
            let $cs :=
              for $c in CUSTOMER()
              let $oc := count(for $o in ORDER() where $c/CID eq $o/CID return $o)
              order by $oc descending
              return <CUSTOMER>{ data($c/CID), $oc }</CUSTOMER>
            return subsequence($cs, 1, 2)
        ''')
        assert "ROWNUM" in sql
        assert "ORDER BY COUNT" in sql
        assert out == "<CUSTOMER>C1 2</CUSTOMER><CUSTOMER>C3 1</CUSTOMER>"


class TestMorePushables:
    def test_let_bound_scalar(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $o in ORDER()
            let $double := $o/AMOUNT * 2
            where $double gt 30
            return $double
        ''')
        assert 'WHERE t1."AMOUNT" * 2 > 30' in sql
        assert out == "40 60"

    def test_string_function_pushed(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            where upper-case($c/LAST_NAME) eq "SMITH"
            return $c/CID
        ''')
        assert 'UPPER(t1."LAST_NAME")' in sql
        assert out == "<CID>C2</CID>"

    def test_contains_becomes_like(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $c in CUSTOMER()
            where contains($c/LAST_NAME, "one")
            return $c/CID
        ''')
        assert "LIKE '%one%'" in sql
        assert out == "<CID>C1</CID><CID>C3</CID>"

    def test_order_by_pushed(self, env):
        sql, out, _ = compile_and_run(env, '''
            for $o in ORDER()
            order by $o/AMOUNT descending
            return $o/OID
        ''')
        assert 'ORDER BY t1."AMOUNT" DESC' in sql
        assert out == "<OID>O3</OID><OID>O2</OID><OID>O1</OID>"

    def test_whole_row_scan(self, env):
        compiler, evaluator, ctx, _ = env
        plan = compiler.compile_expression("CUSTOMER()")
        assert isinstance(plan.expr, PushedSQL)
        out = serialize(evaluator.eval(plan.expr, {}))
        assert out.count("<CUSTOMER>") == 3
        assert "<SINCE>100</SINCE>" in out

    def test_grouped_variable_emitted_raw_clusters_midtier(self, env):
        compiler, evaluator, ctx, _ = env
        plan = compiler.compile_expression('''
            for $c in CUSTOMER()
            let $cid := $c/CID
            group $cid as $ids by $c/LAST_NAME as $name
            return <CUSTOMER_IDS name="{$name}">{ $ids }</CUSTOMER_IDS>
        ''')
        assert isinstance(plan.expr, PushedSQL)
        assert plan.expr.regroup  # clustered-scan mode
        out = serialize(evaluator.eval(plan.expr, {}))
        assert '<CUSTOMER_IDS name="Jones">C1 C3</CUSTOMER_IDS>' in out
        assert '<CUSTOMER_IDS name="Smith">C2</CUSTOMER_IDS>' in out

    def test_parameters_from_external_variables(self, env):
        from repro.schema import atomic

        compiler, evaluator, ctx, _ = env
        plan = compiler.compile_expression('''
            for $c in CUSTOMER() where $c/SINCE gt $threshold return $c/CID
        ''', externals={"threshold": atomic("xs:integer")})
        from repro.xml import AtomicValue

        assert isinstance(plan.expr, PushedSQL)
        assert len(plan.expr.param_exprs) == 1
        with ctx.tracer.request(bindings={
                "threshold": [AtomicValue(150, "xs:integer")]}):
            out = serialize(evaluator.eval(plan.expr, {}))
        assert out == "<CID>C2</CID><CID>C3</CID>"


#: returns that read no column of the row they are evaluated for
COLUMNLESS_RETURNS = [
    "for $c in CUSTOMER() return <R/>",
    'for $c in CUSTOMER() return <R>{"A"}</R>',
    "for $c in CUSTOMER() return <R>{1}</R>",
    'for $c in CUSTOMER() return "A"',
]


class TestColumnlessReturn:
    """A region whose ``return`` reads no column used to ship
    ``SELECT  FROM "CUSTOMER" t1``; it projects a hidden constant and
    returns one template instance per row."""

    def test_hidden_constant_is_projected(self, env):
        sql, out, _ = compile_and_run(env, "for $c in CUSTOMER() return <R/>")
        assert sql == 'SELECT 1 AS c1 FROM "CUSTOMER" t1'
        assert out == "<R/><R/><R/>"

    @pytest.mark.parametrize("vendor", ["oracle", "db2", "sqlserver", "sybase"])
    @pytest.mark.parametrize("query", COLUMNLESS_RETURNS)
    def test_one_instance_per_row_in_every_dialect(self, query, vendor):
        from repro import Platform
        from tests.conftest import build_custdb

        def run(pushdown):
            clock = VirtualClock()
            platform = Platform(clock=clock)
            platform.register_database(
                build_custdb(clock, customers=3, vendor=vendor))
            platform.configure(pushdown=pushdown)
            return platform, platform.execute(query)

        platform, pushed = run(True)
        assert f"sql[{vendor}]: SELECT 1 AS c1 FROM" in platform.explain(query)
        assert len(pushed) == 3
        assert serialize(pushed) == serialize(run(False)[1])

    def test_group_keys_stand_in_under_distinct(self, env):
        compiler, evaluator, _, _ = env
        query = "for $c in CUSTOMER() group by $c/LAST_NAME as $k return <R/>"
        plan = compiler.compile_expression(query)
        assert isinstance(plan.expr, PushedSQL) and plan.expr.select.distinct
        assert serialize(evaluator.eval(plan.expr, {})) == "<R/><R/>"


class TestNonPushable:
    def test_constructor_never_pushed_but_wrapped(self, env):
        compiler, _, _, _ = env
        plan = compiler.compile_expression(
            'for $c in CUSTOMER() return <X>{ $c/CID }</X>'
        )
        # the region pushes; the constructor lives in the template
        assert isinstance(plan.expr, PushedSQL)
        from repro.xquery import ast

        assert isinstance(plan.expr.template, ast.ElementCtor)

    def test_sybase_pagination_falls_back_midtier(self, env):
        compiler, evaluator, ctx, db = env
        db.vendor = "sybase"
        # re-register metadata with the sybase vendor
        for definition in ctx.registry.functions():
            if definition.table_meta is not None:
                definition.table_meta.vendor = "sybase"
        plan = compiler.compile_expression('''
            let $cs := for $o in ORDER() order by $o/AMOUNT descending return $o/OID
            return subsequence($cs, 1, 2)
        ''')
        from repro.xquery import ast

        assert isinstance(plan.expr, ast.FunctionCall)
        assert plan.expr.name == "fn:subsequence"
        assert isinstance(plan.expr.args[0], PushedSQL)
        out = serialize(evaluator.eval(plan.expr, {}))
        assert out == "<OID>O3</OID><OID>O2</OID>"
