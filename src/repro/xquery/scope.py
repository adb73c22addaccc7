"""The one scope rule: what each variable reference sees.

Every binder class declares, on itself, the names it binds and which of
its parts see them (:meth:`~repro.xquery.ast_nodes.AstNode.scoping`), and
every class that holds a variable name says where (``_vars``).  The walk
here is the only reader of the first declaration; the readers of scope
derive from it:

* :func:`free_vars` — what the rewriter, the scatter pass and the plan
  verifier take to be a tree's free variables;
* :func:`walk` with callbacks — the verifier's scope pass: unbound uses,
  shadowing binders, open reconstruction templates;
* :func:`use_counts` and :func:`reach` — the reads of one binding (dead
  ``let`` slots, PP-k pairing, let inlining);
* :func:`bound_vars` and :func:`var_names` — what view unfolding renames
  and what gensym canonicalization numbers.

The rule for ``group … by`` (paper section 3.1) is the typechecker's: after
it, the scope is the FLWOR's entry scope plus the clause's key and grouped
variables.  The runtime builds each group row from exactly that.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterator, Optional

from .ast_nodes import AstNode

#: what a use resolves to when no binding in scope has its name
UNBOUND = object()
#: … and inside a closed part (a reconstruction template)
CLOSED = object()


def walk(root: AstNode, use: Callable, bind: Optional[Callable] = None,
         scope: Optional[dict] = None) -> None:
    """Visit ``root`` under the scope rule.

    ``use(node, name, binder)`` is called for each name a node reads (a
    variable reference, a group-by's grouped variable), with the node whose
    binding it sees — ``scope``'s value for a name bound outside ``root``,
    :data:`UNBOUND` for none, :data:`CLOSED` for none inside a closed part.
    ``bind(binder, name, scope)`` is called once per binding, as it first
    comes into scope, with the scope it joins (before it does)."""
    announced: set = set()

    def visit(node: AstNode, scope: dict, missing: object) -> None:
        rule = node.scoping()
        if rule is None:
            for child in node.children():
                visit(child, scope, missing)
            return
        for name in rule.uses:
            use(node, name, scope.get(name, missing))
        for part, names in rule.parts:
            if names is None:
                visit(part, {}, CLOSED)
                continue
            inner = scope
            if names:
                inner = dict(scope)
                for name, binder in names:
                    if bind is not None and (binder, name) not in announced:
                        announced.add((binder, name))
                        bind(binder, name, inner)
                    inner[name] = binder
            visit(part, inner, missing)

    visit(root, scope if scope is not None else {}, UNBOUND)


def _ignore(*_args) -> None:
    pass


def free_vars(node: AstNode) -> set[str]:
    """Variables referenced by ``node`` but not bound within it — on the
    surface AST and the optimized algebra alike."""
    free: set[str] = set()

    def use(_node, name, binder):
        if binder is UNBOUND:
            free.add(name)

    walk(node, use)
    return free


def use_counts(root: AstNode) -> Counter:
    """How often each binding in ``root`` is read: ``(binder, name)`` ->
    count (a grouped variable naming it is a read too)."""
    counts: Counter = Counter()

    def use(_node, name, binder):
        if isinstance(binder, AstNode):
            counts[binder, name] += 1

    walk(root, use)
    return counts


def reach(root: AstNode, binder: AstNode, name: str) -> tuple[list[AstNode], set[str]]:
    """The nodes in ``root`` that read ``binder``'s ``$name``, and every
    name bound where that binding is in scope (a binding of the same name
    included, which hides it)."""
    readers: list[AstNode] = []
    rebound: set[str] = set()

    def use(node, used, seen):
        if seen is binder and used == name:
            readers.append(node)

    def bind(_binder, bound, scope):
        if scope.get(name) is binder:
            rebound.add(bound)

    walk(root, use, bind)
    return readers, rebound


def bound_vars(node: AstNode) -> tuple[str, ...]:
    """Every variable bound inside ``node`` (free ones are not), once each."""
    bound: dict[str, None] = {}
    walk(node, _ignore, lambda _binder, name, _scope: bound.setdefault(name))
    return tuple(bound)


def var_names(node: AstNode) -> Iterator[str]:
    """Every variable name ``node``'s tree holds, binders and references,
    in pre-order: a node's own (in ``_vars`` order) before its children's."""
    for sub in node.walk():
        for attr in sub._vars:
            yield from _strings(getattr(sub, attr))


def _strings(value) -> Iterator[str]:
    if value.__class__ is str:
        yield value
    elif isinstance(value, (list, tuple)):
        for entry in value:
            yield from _strings(entry)
