"""Inverse functions and user-defined transformation rules (section 4.5).

A developer who interposes a data-transforming function (e.g. ``int2date``
over a seconds-since-epoch column) can:

* declare another function as its **inverse** (``date2int``), and
* register a **transformation rule** ``(op, f) -> g`` whose right-hand side
  is an XQuery function applying the inverse to both operands.

The optimizer then rewrites ``f(x) op y`` via the rule, inlines ``g``, and
cancels ``f_inv(f(x)) -> x``, leaving a predicate on the raw column that the
SQL pushdown framework can ship to the source.  The same registry feeds
lineage analysis so updates through transformed values work (section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StaticError
from ..xquery import ast_nodes as ast


@dataclass(frozen=True)
class TransformRule:
    """``(op, function) -> replacement`` — e.g. ``(gt, int2date) ->
    gt-intfromdate`` from the paper."""

    op: str  # comparison operator: eq ne lt le gt ge
    function: str  # the interposed function's name
    replacement: str  # name of the rewriting function (declared in XQuery)


class InverseRegistry:
    """Inverse-function declarations plus transformation rules."""

    def __init__(self):
        self._inverses: dict[str, str] = {}
        self._rules: dict[tuple[str, str], str] = {}

    # -- declarations -----------------------------------------------------------

    def declare_inverse(self, function: str, inverse: str) -> None:
        """Declare ``inverse(function(x)) == x`` (and register the converse
        direction as well, matching ALDSP's bidirectional use in lineage)."""
        self._inverses[function] = inverse

    def inverse_of(self, function: str) -> str | None:
        return self._inverses.get(function)

    def is_inverse_pair(self, outer: str, inner: str) -> bool:
        """Is ``outer(inner(x)) == x``?"""
        return self._inverses.get(inner) == outer or self._inverses.get(outer) == inner

    def register_rule(self, op: str, function: str, replacement: str) -> None:
        if op not in ("eq", "ne", "lt", "le", "gt", "ge"):
            raise StaticError(f"transformation rules require a value comparison, got {op}")
        self._rules[(op, function)] = replacement

    def rule_for(self, op: str, function: str) -> str | None:
        return self._rules.get((op, function))

    def rules(self) -> list[TransformRule]:
        return [TransformRule(op, fn, repl) for (op, fn), repl in self._rules.items()]

    # -- rewriting ----------------------------------------------------------------

    def apply_transforms(self, node: ast.AstNode) -> ast.AstNode:
        """Rewrite comparisons per the registered rules.

        ``f($e) op other`` (or mirrored) becomes a call to the replacement
        function; the optimizer's inlining + cancellation passes then reduce
        it to a pushable predicate.
        """
        return self.transformed(node)[0]

    def transformed(self, node: ast.AstNode) -> tuple[ast.AstNode, bool]:
        """:meth:`apply_transforms`, plus whether any rule fired (with no
        rule registered the tree is not walked at all)."""
        if not self._rules:
            return node, False
        fired = False

        def visit(current: ast.AstNode) -> ast.AstNode:
            nonlocal fired
            current = current.transform_children(visit)
            if not isinstance(current, ast.Comparison):
                return current
            for left_first in (True, False):
                side = current.left if left_first else current.right
                other = current.right if left_first else current.left
                call = _unwrap_data(side)
                if isinstance(call, ast.FunctionCall):
                    op = current.op if left_first else _mirror(current.op)
                    replacement = self.rule_for(op, call.name)
                    if replacement is not None:
                        fired = True
                        return ast.FunctionCall(replacement, [side, other])
            return current

        return visit(node), fired

    def cancel_inverses(self, node: ast.AstNode) -> ast.AstNode:
        """Rewrite ``g(f(x)) -> x`` for declared inverse pairs."""
        if not self._inverses:
            return node
        node = node.transform_children(self.cancel_inverses)
        if isinstance(node, ast.FunctionCall) and len(node.args) == 1:
            inner = _unwrap_data(node.args[0])
            if isinstance(inner, ast.FunctionCall) and len(inner.args) == 1:
                if self.is_inverse_pair(node.name, inner.name):
                    return inner.args[0]
        return node


def _unwrap_data(node: ast.AstNode) -> ast.AstNode:
    """Atomization wrappers and typematch guards inserted by the analysis
    phase are transparent for rule matching: ``g(typematch(data(f(x))))``
    still cancels (the value the guards protect never materializes)."""
    while True:
        if isinstance(node, ast.FunctionCall) and node.name == "fn:data" and len(node.args) == 1:
            node = node.args[0]
        elif isinstance(node, ast.TypeMatch):
            node = node.operand
        else:
            return node


def _mirror(op: str) -> str:
    return {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}[op]
