"""Scatter-group stamping: parallel access to independent regions (P-ADAPT).

The paper overlaps source latencies only where the query author asked for
it (``fn-bea:async``, section 5.4).  This pass makes the common case
automatic: consecutive let-bound source regions — ``PushedSQL`` regions or
raw table scans — that are *data independent* (no let's expression refers
to a variable bound by another member of the run) are stamped with a shared
``scatter_group`` id.  The evaluator fetches each stamped group's branches
through one :class:`~repro.runtime.asyncexec.AsyncExecutor` parallel group,
so under the virtual clock the group costs the *maximum* of its members
rather than the sum — without any query annotation.

Only whole-sequence ``let`` bindings qualify: a ``for`` clause interleaves
its binding with downstream tuple flow, so scattering it would change the
streaming shape.  Correlated regions (PP-k, pushed tuple-for) never
qualify — their clauses are not ``LetClause`` instances.  The plan verifier
re-proves the independence rule on every compiled plan (ALDSP-E309).
"""

from __future__ import annotations

from ..sql.pushdown import free_vars, is_table_call
from ..xquery import ast_nodes as ast
from .algebra import PushedSQL


def stamp_scatter_groups(expr: ast.AstNode) -> int:
    """Stamp runs of independent let-bound source regions; returns the
    number of groups stamped (group ids are unique across the plan)."""
    counter = [0]
    for node in expr.walk():
        if isinstance(node, ast.FLWOR):
            _stamp_flwor(node, counter)
    return counter[0]


def scatter_eligible(clause: ast.Clause) -> bool:
    """True for a let whose expression is an uncorrelated source region."""
    if not isinstance(clause, ast.LetClause):
        return False
    expr = clause.expr
    if isinstance(expr, PushedSQL):
        return expr.correlation is None
    return is_table_call(expr)


def _stamp_flwor(node: ast.FLWOR, counter: list[int]) -> None:
    run: list[ast.LetClause] = []
    run_vars: set[str] = set()

    def close_run() -> None:
        nonlocal run, run_vars
        if len(run) >= 2:
            counter[0] += 1
            for member in run:
                member.scatter_group = counter[0]
        run = []
        run_vars = set()

    for clause in node.clauses:
        if not scatter_eligible(clause):
            close_run()
            continue
        if free_vars(clause.expr) & run_vars:
            # Depends on a member of the current run: that run ends here,
            # but this clause may anchor the next one.
            close_run()
        run.append(clause)  # type: ignore[arg-type]
        run_vars.add(clause.var)  # type: ignore[attr-defined]
    close_run()
