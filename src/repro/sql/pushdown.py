"""Pushdown analysis helpers (section 4.4).

Utilities shared by the region compiler: conjunct splitting, and the
classification of which XQuery expressions are
pushable ("clauses of the extended FLWOR, constant expressions, certain
functions and operators, ... other expressions can first be evaluated in
the XQuery runtime engine and then pushed as SQL parameters").
"""

from __future__ import annotations

from ..compiler.algebra import SourceCall
from ..xquery import ast_nodes as ast
from ..xquery.functions import all_builtins, is_builtin

#: comparison op -> SQL operator
COMPARISON_TO_SQL = {"eq": "=", "ne": "<>", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: aggregate builtins -> SQL aggregate
AGGREGATE_TO_SQL = {
    "fn:count": "COUNT",
    "fn:sum": "SUM",
    "fn:avg": "AVG",
    "fn:min": "MIN",
    "fn:max": "MAX",
}

#: xs: constructor functions are pushable as pass-through casts (the SQL
#: column types already line up with the XML schema types).
_CAST_PREFIX = "xs:"


def split_conjuncts(condition: ast.AstNode | None) -> list[ast.AstNode]:
    """Flatten a where condition into its AND-ed conjuncts.

    Left-to-right order is preserved and ``None`` (no condition) yields the
    empty list, so ``split_conjuncts`` and :func:`join_conjuncts` form a
    round-trip: ``split(join(cs)) == cs`` for any conjunct list whose
    members are not themselves ``AndExpr`` nodes, and ``join(split(c))``
    rebuilds a condition equivalent to ``c`` (AND is left-associated).
    """
    if condition is None:
        return []
    if isinstance(condition, ast.AndExpr):
        return split_conjuncts(condition.left) + split_conjuncts(condition.right)
    return [condition]


def join_conjuncts(conjuncts: list[ast.AstNode]) -> ast.AstNode | None:
    """Rebuild a left-associated AND chain; inverse of :func:`split_conjuncts`
    (the empty list maps back to ``None``)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for extra in conjuncts[1:]:
        result = ast.AndExpr(result, extra)
    return result


def is_table_call(expr: ast.AstNode) -> bool:
    return isinstance(expr, SourceCall) and expr.kind == "table" and expr.table_meta is not None


def unwrap_data(node: ast.AstNode) -> ast.AstNode:
    while (
        isinstance(node, ast.FunctionCall)
        and node.name == "fn:data"
        and len(node.args) == 1
    ):
        node = node.args[0]
    return node


def column_access(expr: ast.AstNode, row_vars: dict) -> tuple[str, str] | None:
    """If ``expr`` is (possibly atomized) ``$rowvar/COLUMN``, return
    (var, column); otherwise None."""
    expr = unwrap_data(expr)
    if not isinstance(expr, ast.PathExpr):
        return None
    if not isinstance(expr.base, ast.VarRef) or expr.base.name not in row_vars:
        return None
    if len(expr.steps) != 1:
        return None
    step = expr.steps[0]
    if step.axis != "child" or step.predicates or not isinstance(step.test, ast.NameTest):
        return None
    if step.test.name == "*":
        return None
    return expr.base.name, step.test.name


def sql_function_for(name: str) -> tuple[str, str] | None:
    """SQL pushdown info recorded on the builtin, if any."""
    if not is_builtin(name):
        return None
    return all_builtins()[name].sql


def is_cast_constructor(name: str) -> bool:
    return name.startswith(_CAST_PREFIX)


#: node types that are categorically non-pushable (section 4.4): node
#: constructors are rebuilt mid-tier from templates; sequence-type
#: expressions and validation never push.
NON_PUSHABLE_SCALAR = (ast.ElementCtor, ast.AttributeCtor, ast.CastExpr)
