"""Plans as declared data: every fact a compiled plan's nodes hold is
declared on the node's class (``repro.xquery.ast_nodes``) as structure, a
stamp of that class, or a memo (an ``_``-prefixed name).

``clone()``, plan agreement, ``every_node()`` and the plan-identity dump
read the declaration, so an attribute a pass sets without declaring it
would be copied by accident or compared by nobody.  This gate compiles the
plan-identity corpus and the two cost-based re-planning plans, executes
the platform-backed ones so the runtime's memos are on them, and checks
every node they hold — found by following every attribute, not the
declaration under test.
"""

from __future__ import annotations

import dataclasses

from repro.compiler.algebra import IndexJoinForClause, PPkLetClause
from repro.schema.types import ITEM_STAR
from repro.xquery import ast_nodes as ast
from tests.test_costing import JOIN_QUERY, demo
from tests.test_plan_identity import plan_corpus


def held_nodes(value, nodes: dict) -> None:
    """Every node reachable from ``value`` through any attribute but a
    memo, by id: children, stamps, records (a region's correlation)."""
    if isinstance(value, ast.AstNode):
        if id(value) in nodes:
            return
        nodes[id(value)] = value
        for name, held in vars(value).items():
            if name[0] != "_":
                held_nodes(held, nodes)
    elif isinstance(value, (list, tuple)):
        for entry in value:
            held_nodes(entry, nodes)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for held in vars(value).values():
            held_nodes(held, nodes)


def undeclared(node: ast.AstNode) -> set[str]:
    """What ``node`` holds that its class does not declare, and the
    structure its class declares that the node lacks."""
    cls = type(node)
    structure, stamps = ast.structure_of(cls), ast.stamps_of(cls)
    extra = {name for name in vars(node)
             if name[0] != "_" and name not in structure and name not in stamps}
    missing = {f"(missing) {name}" for name in structure
               if name not in vars(node) and not isinstance(getattr(cls, name, None), property)}
    return extra | missing


def compiled_plans(tmp_path):
    """``(label, plan expression)``: the corpus, executed where it can be
    without external bindings, then the re-planning plans, executed."""
    for _title, cases in plan_corpus(tmp_path):
        for _heading, subject, query, variables in cases:
            externals = {name: ITEM_STAR for name in variables} if variables else None
            make = getattr(subject, "_compiler", lambda: subject)
            plan = make().compile_expression(query, externals=externals)
            if hasattr(subject, "evaluator") and not variables:
                subject.evaluator.eval(plan.expr, {})
            yield query, plan.expr
    for rows, changes in ((1000, {}), (2, {"ppk_block_size": 2})):
        platform = demo(customers=8)
        platform.statistics.set_table_stats("custdb", "CUSTOMER", rows=rows)
        platform.configure(cost_based=True, replan_threshold=2.0, **changes)
        plan = platform.prepare(JOIN_QUERY)
        platform.execute(JOIN_QUERY)
        assert platform.ctx.stats.replans == 1
        yield f"re-planned {JOIN_QUERY} ({rows} customers declared)", plan.expr


def test_every_fact_a_plan_node_holds_is_declared(tmp_path):
    found: dict[str, set[str]] = {}
    twins = memos = 0
    for label, expr in compiled_plans(tmp_path):
        nodes: dict = {}
        held_nodes(expr, nodes)
        # the derived traversal reaches exactly what the attributes hold
        assert {id(node) for node in expr.every_node()} == set(nodes), label
        walked = {id(node) for node in expr.walk()}
        for key, node in nodes.items():
            for name in undeclared(node):
                found.setdefault(type(node).__name__, set()).add(name)
            twins += key not in walked and isinstance(node, PPkLetClause)
            memos += any(name[0] == "_" for name in vars(node))
    assert found == {}
    # the gate saw a node held only in a stamp, and memos the runtime wrote
    assert twins >= 1 and memos > 100


def test_the_costed_strategy_classes_declare_the_cost_stamps():
    for cls in (PPkLetClause, IndexJoinForClause):
        assert {"op_id", "est_strategy", "est_rows", "est_outer"} <= set(ast.stamps_of(cls))
    assert ast.stamps_of(IndexJoinForClause)["replan_ppk"] is None
    assert ast.stamps_of(ast.GroupByClause)["pre_clustered"] is False
