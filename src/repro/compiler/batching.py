"""Batch-capability stamping (P-BATCH) — written, no longer read.

The FLWOR runtime (``runtime/batchexec.py``) runs every FLWOR, stamped or
not, so nothing under ``runtime/`` consults ``batch_capable`` or
``batch_supported`` any more.  The stage stays for two outside readers
that a runtime change may not edit: the layered benchmark wraps
``stamp_batch_capability`` by module path (``benchmarks/layered/trace.py``)
and ``tests/golden/plan_identity.txt`` pins the stamps.  ROADMAP item 3
records the ``[benchmark]`` PR that lets the module, its call in
``pipeline.py`` and the stamps go together.

The stamp is runtime-only metadata, like ``op_id``: it is **not**
rendered in ``explain`` output.
"""

from __future__ import annotations

from ..xquery import ast_nodes as ast
from .algebra import IndexJoinForClause, PPkLetClause, PushedTupleForClause

#: the clause types of the FLWOR runtime (runtime/batchexec.py)
_BATCH_CLAUSES = (
    ast.ForClause,
    ast.LetClause,
    ast.WhereClause,
    ast.OrderByClause,
    ast.GroupByClause,
    PPkLetClause,
    PushedTupleForClause,
    IndexJoinForClause,
)


def stamp_batch_capability(expr: ast.AstNode) -> None:
    """Mark every FLWOR in ``expr`` (and each clause) batch-capable or not."""
    for node in expr.walk():
        if isinstance(node, ast.FLWOR):
            capable = True
            for clause in node.clauses:
                supported = isinstance(clause, _BATCH_CLAUSES)
                clause.batch_supported = supported
                capable = capable and supported
            node.batch_capable = capable
