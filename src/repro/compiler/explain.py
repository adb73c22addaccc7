"""Plan explanation: a readable rendering of a compiled plan.

``explain(plan)`` shows the operator tree the runtime will interpret —
which regions were pushed (and their SQL), where PP-k joins run and with
what block size, which joins use the hash-index method, and what stays in
the middleware.  ``Platform.explain(query)`` is the user-facing entry.

``Platform.profile(query)`` reuses this renderer: it passes an
``annotate`` callback that appends per-operator actuals to operator
lines, joined on the **operator ids** stamped by
:func:`assign_operator_ids` during compilation (stage 6), so explain and
profile agree on which operator is which across plan-cache hits.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sql.dialects import SqlRenderer, capabilities_for
from ..xquery import ast_nodes as ast
from ..xquery.functions import is_builtin
from .algebra import (
    ColumnSlot,
    Costed,
    GroupSlot,
    IndexJoinForClause,
    NestedSlot,
    PPkLetClause,
    PushedSQL,
    PushedTupleForClause,
    SourceCall,
)

Annotator = Optional[Callable[[ast.AstNode], str]]


_OPERATORS = (PushedSQL, PPkLetClause, PushedTupleForClause,
              IndexJoinForClause, ast.GroupByClause, ast.OrderByClause)
#: operators whose pushed region is their own plumbing and shares their id
OPAQUE_OPERATORS = (PPkLetClause, PushedTupleForClause)


def is_operator(node: ast.AstNode) -> bool:
    """Does ``node`` get an operator id?  The operator classes, and the
    function calls the runtime traces: source calls, the service-quality
    ``fn-bea:`` operators and residual (non-builtin) user calls — the
    cache-pinned ones the optimizer was told not to inline."""
    return isinstance(node, _OPERATORS) or (
        isinstance(node, ast.FunctionCall)
        and (isinstance(node, SourceCall) or not is_builtin(node.name)))


def assign_operator_ids(expr: ast.AstNode) -> int:
    """Stamp a stable ``op_id`` on every operator (:func:`is_operator`),
    pre-order, not descending into the :data:`OPAQUE_OPERATORS`.  Runs
    once per compiled plan (the tree is cached, so explain, profile and
    the tracer all see the same ids)."""
    counter = 0

    def visit(node: ast.AstNode) -> None:
        nonlocal counter
        if is_operator(node):
            counter += 1
            node.op_id = counter
        if isinstance(node, OPAQUE_OPERATORS):
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return counter


def explain(expr: ast.AstNode, indent: int = 0, annotate: Annotator = None) -> str:
    """Render an (optimized, pushed) expression tree as an explain plan.

    ``annotate``, when given, maps a node to a suffix appended to that
    operator's first line (``Platform.profile``'s actuals)."""
    return "\n".join(_lines(expr, indent, annotate))


def _mark(lines: list[str], node: ast.AstNode, annotate: Annotator) -> list[str]:
    if annotate is not None:
        suffix = annotate(node)
        if suffix:
            lines[0] += suffix
    return lines


def _pad(depth: int) -> str:
    return "  " * depth


def _est_suffix(node: Costed) -> str:
    """The costing pass's stamps, those set: chosen strategy, estimated
    rows/time and the runner-up.  Plans compiled without cost-based choice
    carry none, so their rendering is unchanged."""
    if node.est_strategy is None and node.est_rows is None:
        return ""
    bits = [form.format(value) for value, form in (
        (node.est_strategy, "strategy={}"), (node.est_rows, "est_rows={:.0f}"),
        (node.est_ms, "est_ms={:.2f}"), (node.est_via, "via={}"),
        (node.est_runner_up, f"runner-up={{}}({node.est_runner_up_ms or 0.0:.2f}ms)"))
        if value is not None]
    return f" [cost: {', '.join(bits)}]"


def _sql_of(pushed: PushedSQL) -> str:
    return SqlRenderer(capabilities_for(pushed.vendor)).render(pushed.select)


def _dialect_label(pushed: PushedSQL) -> str:
    """The dialect that renders this region's SQL, e.g. ``oracle`` — or
    ``acme->sql92`` when an unknown vendor fell back to base SQL92 — so
    pushdown diagnostics (``ALDSP-1xx``) can be cross-referenced with the
    explain plan."""
    dialect = capabilities_for(pushed.vendor).name
    if dialect == pushed.vendor.lower():
        return dialect
    return f"{pushed.vendor}->{dialect}"


def _lines(node: ast.AstNode, depth: int, annotate: Annotator = None) -> list[str]:
    pad = _pad(depth)
    if isinstance(node, PushedSQL):
        lines = [f"{pad}PUSHED SQL -> {node.database} "
                 f"({node.vendor}){_est_suffix(node)}"]
        lines.append(f"{pad}  sql[{_dialect_label(node)}]: {_sql_of(node)}")
        if node.param_exprs:
            lines.append(f"{pad}  parameters: {len(node.param_exprs)} middleware expression(s)")
        if node.correlation is not None:
            lines.append(
                f"{pad}  correlation: column {node.correlation.column_alias} "
                "(disjunctive block predicate added per PP-k block)"
            )
        if node.regroup:
            lines.append(f"{pad}  mid-tier regroup on: {', '.join(node.regroup)} "
                         "(clustered, no sort)")
        lines.append(f"{pad}  rebuild: {_describe_template(node.template)}")
        return _mark(lines, node, annotate)
    if isinstance(node, ast.FLWOR):
        lines = [f"{pad}FLWOR"]
        for clause in node.clauses:
            lines.extend(_clause_lines(clause, depth + 1, annotate))
        lines.append(f"{pad}  return")
        lines.extend(_lines(node.return_expr, depth + 2, annotate))
        return lines
    if isinstance(node, SourceCall):
        return _mark(
            [f"{pad}SOURCE CALL {node.name}() [{node.kind}] (adaptor invocation)"],
            node, annotate)
    if isinstance(node, ast.FunctionCall):
        lines = [f"{pad}CALL {node.name}({len(node.args)} args)"]
        for arg in node.args:
            lines.extend(_lines(arg, depth + 1, annotate))
        return _mark(lines, node, annotate)
    if isinstance(node, ast.ElementCtor):
        lines = [f"{pad}CONSTRUCT <{node.name}>"]
        for part in node.content:
            lines.extend(_lines(part, depth + 1, annotate))
        return lines
    if isinstance(node, ast.TypeswitchExpr):
        return [f"{pad}TYPESWITCH ({len(node.cases)} cases, mid-tier)"]
    label = type(node).__name__
    children = list(node.children())
    if not children:
        return [f"{pad}{label}"]
    lines = [f"{pad}{label}"]
    for child in children:
        lines.extend(_lines(child, depth + 1, annotate))
    return lines


def _clause_lines(clause: ast.Clause, depth: int,
                  annotate: Annotator = None) -> list[str]:
    pad = _pad(depth)
    if isinstance(clause, PPkLetClause):
        pushed = clause.pushed
        method = "index nested loops" if clause.k > 1 else "index nested loop (k=1)"
        lines = [f"{pad}PP-{clause.k} JOIN (let ${clause.var}) "
                 f"using {method}{_est_suffix(clause)}"]
        lines.append(f"{pad}  -> {pushed.database} "
                     f"sql[{_dialect_label(pushed)}]: {_sql_of(pushed)}")
        lines.append(f"{pad}  + disjunctive block predicate on "
                     f"{pushed.correlation.column_alias if pushed.correlation else '?'}")
        return _mark(lines, clause, annotate)
    if isinstance(clause, PushedTupleForClause):
        pushed = clause.pushed
        lines = [f"{pad}PUSHED JOIN for ${', $'.join(clause.vars)} "
                 f"-> {pushed.database} ({pushed.vendor})"]
        lines.append(f"{pad}  sql[{_dialect_label(pushed)}]: {_sql_of(pushed)}")
        return _mark(lines, clause, annotate)
    if isinstance(clause, IndexJoinForClause):
        return _mark([f"{pad}INDEX NESTED-LOOP JOIN for ${clause.var} "
                      f"(hash-indexed inner, built once){_est_suffix(clause)}"],
                     clause, annotate)
    if isinstance(clause, ast.ForClause):
        lines = [f"{pad}for ${clause.var} in"]
        lines.extend(_lines(clause.expr, depth + 1, annotate))
        return lines
    if isinstance(clause, ast.LetClause):
        group = clause.scatter_group
        suffix = f" [scatter group {group}]" if group is not None else ""
        lines = [f"{pad}let ${clause.var} :={suffix}"]
        lines.extend(_lines(clause.expr, depth + 1, annotate))
        return lines
    if isinstance(clause, ast.WhereClause):
        return [f"{pad}where (mid-tier filter)"]
    if isinstance(clause, ast.GroupByClause):
        mode = "pre-clustered (streaming)" if clause.pre_clustered \
            else "sort-then-group"
        keys = ", ".join(var for _e, var in clause.keys)
        return _mark([f"{pad}group by {keys} [{mode}]"], clause, annotate)
    if isinstance(clause, ast.OrderByClause):
        return _mark([f"{pad}order by ({len(clause.specs)} keys, mid-tier sort)"],
                     clause, annotate)
    return [f"{pad}{type(clause).__name__}"]


def _describe_template(template: ast.AstNode) -> str:
    if isinstance(template, ColumnSlot):
        if template.element_name:
            return f"element <{template.element_name}> from column {template.alias}"
        return f"value of column {template.alias}"
    if isinstance(template, ast.ElementCtor):
        slots = sum(1 for n in template.walk() if isinstance(n, ColumnSlot))
        nested = sum(1 for n in template.walk() if isinstance(n, NestedSlot))
        grouped = sum(1 for n in template.walk() if isinstance(n, GroupSlot))
        bits = [f"<{template.name}> with {slots} column slot(s)"]
        if nested:
            bits.append(f"{nested} nested join slot(s)")
        if grouped:
            bits.append(f"{grouped} group slot(s)")
        return ", ".join(bits)
    return type(template).__name__
