"""Table 1 (paper p. 1044): pushed patterns (a)–(f).

For each pattern the harness compiles the paper's XQuery snippet, asserts
the plan is one pushed SQL region with the paper's SQL shape, executes it
end to end, and benchmarks the compile+execute path.  The report block
prints the XQuery → SQL pairs exactly as Table 1 lays them out.
"""

from __future__ import annotations

import pytest

from repro.compiler import PushedSQL
from repro.compiler.pipeline import inline_binds
from repro.demo import build_demo_platform

PATTERNS = {
    "(a) simple select-project": (
        'for $c in CUSTOMER() where $c/CID eq "C1" return $c/FIRST_NAME',
        ["SELECT", 'FROM "CUSTOMER" t1', "WHERE t1.\"CID\" = 'C1'"],
    ),
    "(b) inner join": (
        "for $c in CUSTOMER(), $o in ORDER() where $c/CID eq $o/CID "
        "return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>",
        ['JOIN "ORDER" t2 ON t1."CID" = t2."CID"'],
    ),
    "(c) outer join": (
        "for $c in CUSTOMER() return <CUSTOMER>{ $c/CID, "
        "for $o in ORDER() where $c/CID eq $o/CID return $o/OID }</CUSTOMER>",
        ['LEFT OUTER JOIN "ORDER" t2'],
    ),
    "(d) if-then-else": (
        'for $c in CUSTOMER() return <CUSTOMER>{ if ($c/CID eq "C1") '
        "then $c/FIRST_NAME else $c/LAST_NAME }</CUSTOMER>",
        ["CASE WHEN t1.\"CID\" = 'C1' THEN", "ELSE", "END"],
    ),
    "(e) group-by with aggregation": (
        "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l "
        "return <CUSTOMER>{ $l, count($p) }</CUSTOMER>",
        ["COUNT(*)", 'GROUP BY t1."LAST_NAME"'],
    ),
    "(f) group-by equivalent of SQL distinct": (
        "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l",
        ["SELECT DISTINCT"],
    ),
}


@pytest.fixture(scope="module")
def platform():
    return build_demo_platform(customers=20, orders_per_customer=3,
                               deploy_profile=False)


@pytest.mark.parametrize("name", list(PATTERNS))
def test_table1_pattern(platform, benchmark, report, name):
    query, sql_markers = PATTERNS[name]
    plan = platform.prepare(query)
    assert isinstance(plan.expr, PushedSQL), f"{name}: plan did not fully push"
    # the plan cache serves the query's literals as binds (``= ?``): Table 1
    # prints them inline, so render each bind back as its literal
    select, _params = inline_binds(
        plan.expr.select, plan.expr.param_exprs,
        {bind: items[0] for bind, items in plan.binds.items()})
    sql = platform.ctx.renderer(plan.expr.vendor).render(select)
    for marker in sql_markers:
        assert marker in sql, f"{name}: expected {marker!r} in {sql}"

    def run():
        platform.plan_cache.clear()
        return platform.execute(query)

    result = benchmark(run)
    assert result, f"{name}: no results"
    report(f"Table 1{name}", [
        "XQuery:", *(f"  {line.strip()}" for line in query.strip().splitlines()),
        "generated SQL (oracle):",
        f"  {sql}",
        f"rows produced: {len(result)}",
    ])
