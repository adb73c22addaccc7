"""Query optimization (section 4.2).

The ALDSP optimizer is a rewrite-rule engine.  The passes here implement
the general optimizations the paper describes:

* **source resolution** — calls to registered external functions become
  :class:`~repro.compiler.algebra.SourceCall` nodes carrying metadata;
* **view unfolding** — user-level data-service functions are inlined
  (with alpha-renaming) and unnested, the XQuery analogue of relational
  view unfolding; partially optimized view bodies are cached
  (:mod:`repro.compiler.views`);
* **predicate pushdown through views** — ``f()[pred]`` pushes the
  predicate into the unfolded body as a where clause;
* **source-access elimination** — navigation into constructors selects the
  contributing content directly (enabled by structural typing), so unused
  branches — and therefore the source accesses feeding them — disappear
  (the paper's ``$x/LAST_NAME`` example);
* **inverse-function rewriting** (section 4.5) via
  :class:`~repro.compiler.inverse.InverseRegistry`.

SQL pushdown itself runs after these passes (:mod:`repro.sql.generate`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..schema.types import AnyItemType, AtomicItemType
from ..xquery import ast_nodes as ast
from ..xquery.scope import bound_vars, free_vars, reach, var_names

if TYPE_CHECKING:
    from ..services.metadata import MetadataRegistry
from ..xquery.parser import fresh_var
from .algebra import SourceCall
from .inverse import InverseRegistry

_MAX_INLINE_DEPTH = 16
_MAX_FIXPOINT_ROUNDS = 25


class Optimizer:
    def __init__(
        self,
        registry: "MetadataRegistry",
        module: ast.Module | None = None,
        inverse_registry: InverseRegistry | None = None,
        view_cache=None,
        no_inline: set[tuple[str, int]] | None = None,
    ):
        self.registry = registry
        self.module = module
        self.inverses = inverse_registry or InverseRegistry()
        self.view_cache = view_cache
        #: functions that must stay as calls — e.g. functions with result
        #: caching enabled (the cache works at call granularity, section 5.5)
        self.no_inline = no_inline or set()
        self._changed = False

    # -- entry point ------------------------------------------------------------

    def optimize(self, expr: ast.AstNode) -> ast.AstNode:
        expr = self.resolve_sources(expr)
        expr = self.inline_functions(expr)
        expr, fired = self.inverses.transformed(expr)
        if fired:
            # Transformation rules introduce replacement-function calls that
            # must themselves be unfolded before cancellation can fire.
            expr = self.inline_functions(expr)
        expr = self.simplify(expr)
        if self.inverses.rules():
            # Simplification (constructor-navigation elimination in
            # particular) can expose new transform-rule matches that were
            # hidden behind a view's result shape — run a second round.
            expr = self.inverses.apply_transforms(expr)
            expr = self.inline_functions(expr)
            expr = self.resolve_sources(expr)
            expr = self.simplify(expr)
        return expr

    # -- source resolution --------------------------------------------------------

    def resolve_sources(self, node: ast.AstNode) -> ast.AstNode:
        node = node.transform_children(self.resolve_sources)
        if isinstance(node, ast.FunctionCall) and not isinstance(node, SourceCall):
            definition = self.registry.lookup(node.name, len(node.args))
            if definition is not None:
                call = SourceCall(node.name, node.args, definition.kind, definition.table_meta)
                call.static_type = node.static_type or definition.signature.result
                return call
        return node

    # -- view unfolding ----------------------------------------------------------

    def inline_functions(self, node: ast.AstNode, depth: int = 0) -> ast.AstNode:
        node = node.transform_children(lambda c: self.inline_functions(c, depth))
        if not isinstance(node, ast.FunctionCall) or isinstance(node, SourceCall):
            return node
        if self.module is None or depth >= _MAX_INLINE_DEPTH:
            return node
        if (node.name, len(node.args)) in self.no_inline:
            return node
        decl = self.module.function(node.name, len(node.args))
        if decl is None or decl.body is None or decl.errors:
            return node
        view, bound = self._view_body(decl, depth)
        # Every variable bound inside the body gets a fresh name (uniform
        # renaming preserves shadowing, and fresh names are globally
        # unique, so the body can be spliced into any context); the
        # parameters become let clauses (simplification may inline them).
        rename = {name: fresh_var(name.lstrip("#")) for name in bound}
        lets: list[ast.Clause] = []
        for param, arg in zip(decl.params, node.args):
            fresh = fresh_var(param.name)
            rename.setdefault(param.name, fresh)
            lets.append(ast.LetClause(fresh, arg))
        # one pass: the private copy comes out already renamed
        body = view.clone(rename)
        result: ast.AstNode = ast.FLWOR(lets, body) if lets else body
        result.static_type = node.static_type
        return result

    def _view_body(self, decl: ast.FunctionDecl,
                   depth: int) -> tuple[ast.AstNode, tuple[str, ...]]:
        """The query-independent part of view optimization is performed once
        and cached (section 4.2's view sub-optimizer): the partially
        optimized body and the names it binds.  The body is shared by every
        compile that hits the cache, so the caller clones it and never
        mutates it."""
        key = (decl.name, decl.arity())
        if self.view_cache is not None:
            cached = self.view_cache.get(*key)
            if cached is not None:
                return cached
        body = decl.body.clone()
        body = self.resolve_sources(body)
        body = self.inline_functions(body, depth + 1)
        body = self.simplify(body)
        entry = (body, bound_vars(body))
        if self.view_cache is not None:
            self.view_cache.put(*key, entry)
        return entry

    # -- simplification rules -------------------------------------------------------

    def simplify(self, node: ast.AstNode) -> ast.AstNode:
        for _round in range(_MAX_FIXPOINT_ROUNDS):
            self._changed = False
            node = self._simplify_once(node)
            node = self.inverses.cancel_inverses(node)
            if not self._changed:
                break
        return node

    def _simplify_once(self, node: ast.AstNode) -> ast.AstNode:
        node = node.transform_children(self._simplify_once)
        rewritten = self._rewrite(node)
        if rewritten is not node:
            self._changed = True
        return rewritten

    def _rewrite(self, node: ast.AstNode) -> ast.AstNode:
        if isinstance(node, ast.PathExpr):
            return self._rewrite_path(node)
        if isinstance(node, ast.FunctionCall) and node.name == "fn:data":
            return self._rewrite_data(node)
        if isinstance(node, ast.FilterExpr):
            return self._rewrite_filter(node)
        if isinstance(node, ast.FLWOR):
            return self._rewrite_flwor(node)
        if isinstance(node, ast.SequenceExpr):
            return self._rewrite_sequence(node)
        if isinstance(node, ast.IfExpr):
            return self._rewrite_if(node)
        return node

    # constructor navigation: <E>{c1, c2...}</E>/NAME  ->  matching content
    def _rewrite_path(self, node: ast.PathExpr) -> ast.AstNode:
        if not node.steps or not isinstance(node.base, ast.ElementCtor):
            return node
        step = node.steps[0]
        if step.axis != "child" or not isinstance(step.test, ast.NameTest) or step.predicates:
            return node
        selected = _select_content(node.base, step.test.name)
        if selected is None:
            return node
        rest = node.steps[1:]
        result = selected if not rest else ast.PathExpr(selected, rest)
        return result

    # fn:data(<E>{x}</E>) with text-only content -> fn:data(x)
    def _rewrite_data(self, node: ast.FunctionCall) -> ast.AstNode:
        arg = node.args[0]
        if isinstance(arg, ast.ElementCtor) and not arg.attributes and len(arg.content) == 1:
            content = arg.content[0]
            if not _may_contain_elements(content):
                return ast.FunctionCall("fn:data", [content])
        if isinstance(arg, ast.FunctionCall) and arg.name == "fn:data":
            return arg
        if isinstance(arg, ast.Literal):
            return arg
        return node

    # f()[pred]  ->  push the predicate into the unfolded FLWOR
    def _rewrite_filter(self, node: ast.FilterExpr) -> ast.AstNode:
        if not isinstance(node.base, ast.FLWOR):
            # General filters become FLWORs so predicates are visible to
            # pushdown and lineage: e()[p] -> for $v in e() where p' return $v
            if all(not _is_positional(p) for p in node.predicates):
                var = fresh_var("flt")
                clauses: list[ast.Clause] = [ast.ForClause(var, node.base)]
                for pred in node.predicates:
                    clauses.append(ast.WhereClause(
                        _substitute_context(pred.clone(), ast.VarRef(var))
                    ))
                self._changed = True
                return ast.FLWOR(clauses, ast.VarRef(var))
            return node
        flwor = node.base
        if any(isinstance(c, (ast.GroupByClause, ast.OrderByClause)) for c in flwor.clauses):
            return node
        # Only the leading non-positional predicates become `where`s: a
        # positional one numbers what the predicates before it left, so it
        # and everything after it stay a filter, in order.
        leading = next((n for n, pred in enumerate(node.predicates) if _is_positional(pred)),
                       len(node.predicates))
        if leading == 0:
            return node
        for pred in node.predicates[:leading]:
            condition = _substitute_context(pred.clone(), flwor.return_expr)
            flwor.clauses.append(ast.WhereClause(condition))
        remaining = node.predicates[leading:]
        return ast.FilterExpr(flwor, remaining) if remaining else flwor

    def _rewrite_flwor(self, node: ast.FLWOR) -> ast.AstNode:
        clauses: list[ast.Clause] = []
        changed = False
        for clause in node.clauses:
            # for over a single-item expression binds exactly once: a let.
            if isinstance(clause, ast.ForClause) and isinstance(
                clause.expr, (ast.ElementCtor, ast.Literal)
            ) and clause.pos_var is None:
                clauses.append(ast.LetClause(clause.var, clause.expr, clause.declared_type))
                changed = True
                continue
            # Unnesting: for $x in (FLWOR without group/order) -> splice.
            if isinstance(clause, ast.ForClause) and isinstance(clause.expr, ast.FLWOR):
                inner = clause.expr
                if not any(
                    isinstance(c, (ast.GroupByClause, ast.OrderByClause)) for c in inner.clauses
                ):
                    clauses.extend(inner.clauses)
                    clauses.append(ast.ForClause(clause.var, inner.return_expr,
                                                 clause.pos_var, clause.declared_type))
                    changed = True
                    continue
            # let $x := (FLWOR lets only) — flatten pure-let wrappers.
            if isinstance(clause, ast.LetClause) and isinstance(clause.expr, ast.FLWOR):
                inner = clause.expr
                if all(isinstance(c, ast.LetClause) for c in inner.clauses):
                    clauses.extend(inner.clauses)
                    clauses.append(ast.LetClause(clause.var, inner.return_expr,
                                                 clause.declared_type))
                    changed = True
                    continue
            clauses.append(clause)
        node.clauses = clauses

        # Inline cheap lets; drop unused lets (this is what lets unused
        # source accesses disappear entirely).
        node = self._inline_and_prune_lets(node)

        # A FLWOR with no clauses is its return expression.
        if not node.clauses:
            self._changed = True
            return node.return_expr
        # for $x in () return ... -> ()
        for clause in node.clauses:
            if isinstance(clause, ast.ForClause) and isinstance(clause.expr, ast.EmptySequence):
                self._changed = True
                return ast.EmptySequence()
        if changed:
            self._changed = True
        return node

    def _inline_and_prune_lets(self, node: ast.FLWOR) -> ast.FLWOR:
        index = 0
        while index < len(node.clauses):
            clause = node.clauses[index]
            if isinstance(clause, ast.LetClause):
                readers, rebinds = reach(node, clause, clause.var)
                # A grouped source (``group $v as ...``) names the variable
                # outside expression position: it pins the let in place.
                if any(type(reader) is not ast.VarRef for reader in readers):
                    index += 1
                    continue
                # The clauses and the return that see the let: a group-by
                # ends its scope (its keys still read the let, but after it
                # ``$var`` is an outer binding of the same name).
                in_scope = [part for part, seen in node.scoping().parts
                            if (clause.var, clause) in seen]
                tail = node.return_expr if in_scope[-1] is node.return_expr else None
                end = index + 1 + len(in_scope) - (tail is not None)
                later, after = node.clauses[index + 1:end], node.clauses[end:]
                # A binder in that scope stops the substitution when it binds
                # ``$var`` again (a reference may then be another variable's)
                # or a variable the let's expression reads (a substituted
                # copy would be captured).
                uses = len(readers)
                rebound = not rebinds.isdisjoint({clause.var, *free_vars(clause.expr)})
                if uses == 0 and not rebound:
                    del node.clauses[index]
                    self._changed = True
                    continue
                # A single use is safe to substitute when no later for
                # clause multiplies the tuple stream (the substituted
                # expression would otherwise be re-evaluated per tuple).
                # A let-bound constructor whose every use is navigated is
                # also substituted: each copy collapses via constructor-
                # navigation elimination, which is the whole point of view
                # unfolding (section 4.2).
                multiplies = any(isinstance(c, ast.ForClause) for c in later)
                navigated_ctor = isinstance(clause.expr, ast.ElementCtor) and all(
                    _uses_only_navigated(scope, clause.var) for scope in in_scope
                )
                if not rebound and (
                    _is_cheap(clause.expr)
                    or (uses == 1 and not multiplies)
                    or navigated_ctor
                ):
                    replacement = clause.expr
                    node.clauses = (
                        node.clauses[:index]
                        + [_substitute_var(c, clause.var, replacement) for c in later]
                        + after
                    )
                    if tail is not None:
                        node.return_expr = _substitute_var(tail, clause.var, replacement)
                    self._changed = True
                    continue
                # Partial substitution: navigated uses of a let-bound
                # constructor collapse via constructor-navigation
                # elimination even when other uses need the whole value —
                # this is what lets a predicate on a view result reach the
                # source while the result itself is still returned intact.
                if not rebound and isinstance(clause.expr, ast.ElementCtor):
                    changed_any = False
                    new_later = []
                    for c in later:
                        rewritten, changed = _substitute_navigated_uses(
                            c, clause.var, clause.expr
                        )
                        changed_any = changed_any or changed
                        new_later.append(rewritten)
                    if changed_any:
                        node.clauses = node.clauses[:index + 1] + new_later + after
                        self._changed = True
            index += 1
        return node

    def _rewrite_sequence(self, node: ast.SequenceExpr) -> ast.AstNode:
        items: list[ast.AstNode] = []
        changed = False
        for item in node.items:
            if isinstance(item, ast.SequenceExpr):
                items.extend(item.items)
                changed = True
            elif isinstance(item, ast.EmptySequence):
                changed = True
            else:
                items.append(item)
        if not items:
            return ast.EmptySequence()
        if len(items) == 1:
            return items[0]
        if changed:
            node.items = items
            self._changed = True
        return node

    def _rewrite_if(self, node: ast.IfExpr) -> ast.AstNode:
        condition = node.condition
        if isinstance(condition, ast.Literal) and condition.value.type_name == "xs:boolean":
            return node.then_branch if condition.value.value else node.else_branch
        if isinstance(condition, ast.FunctionCall) and condition.name in ("fn:true", "fn:false"):
            return node.then_branch if condition.name == "fn:true" else node.else_branch
        return node


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


def canonicalize_gensyms(node: ast.AstNode) -> ast.AstNode:
    """Renumber every compiler-generated (``#``-prefixed) variable in
    deterministic pre-order, keeping prefixes (``#flt7`` -> ``#flt2``).

    Run after optimization: two compiles of the same query then produce
    byte-identical plans even when they burned different gensym numbers on
    the way (a cold view-plan cache sub-optimizes the view body, a warm one
    skips straight to the cached copy).  The active compilation scope's
    counter is restarted just past the canonical range, so later passes
    (SQL pushdown) also draw deterministic numbers.

    Within one compilation every gensym names exactly one binder (the
    counter never repeats, and inlined view bodies are alpha-renamed into
    the current scope), so a name-keyed total rename cannot merge or
    capture binders.
    """
    from ..xquery.parser import LIFTED_PREFIX, reset_gensym_scope

    mapping: dict[str, str] = {}

    def visit_name(name: str) -> None:
        # (a lifted literal's ``$#litK`` is an external, not a gensym)
        if name.startswith("#") and name not in mapping \
                and not name.startswith(LIFTED_PREFIX):
            prefix = name[1:].rstrip("0123456789") or "g"
            mapping[name] = f"#{prefix}{len(mapping) + 1}"

    for name in var_names(node):
        visit_name(name)
    reset_gensym_scope(len(mapping) + 1)
    if mapping:
        for sub in node.walk():
            sub.rename_vars(mapping)
    return node


def _substitute_navigated_uses(node: ast.AstNode, name: str,
                               replacement: ast.AstNode) -> tuple[ast.AstNode, bool]:
    """Substitute ``replacement`` only where ``$name`` is a path base."""
    changed = False

    def visit(current: ast.AstNode) -> ast.AstNode:
        nonlocal changed
        current = current.transform_children(visit)
        if (
            isinstance(current, ast.PathExpr)
            and isinstance(current.base, ast.VarRef)
            and current.base.name == name
        ):
            changed = True
            current.base = replacement.clone()
        return current

    return visit(node), changed


def _substitute_var(node: ast.AstNode, name: str, replacement: ast.AstNode) -> ast.AstNode:
    node = node.transform_children(lambda c: _substitute_var(c, name, replacement))
    if isinstance(node, ast.VarRef) and node.name == name:
        return replacement.clone()
    return node


def _substitute_context(node: ast.AstNode, replacement: ast.AstNode) -> ast.AstNode:
    node = node.transform_children(lambda c: _substitute_context(c, replacement))
    if isinstance(node, ast.ContextItem):
        return replacement.clone()
    return node


def _uses_only_navigated(node: ast.AstNode, name: str) -> bool:
    """Every reference to ``$name`` is a path-expression base (so a
    substituted constructor will be eliminated by navigation)."""
    if isinstance(node, ast.PathExpr) and isinstance(node.base, ast.VarRef) \
            and node.base.name == name:
        return all(_uses_only_navigated(s, name) for s in node.steps)
    if isinstance(node, ast.VarRef) and node.name == name:
        return False
    return all(_uses_only_navigated(child, name) for child in node.children())


def _is_cheap(expr: ast.AstNode) -> bool:
    """Safe to substitute at each use site (no repeated expensive work)."""
    if isinstance(expr, (ast.VarRef, ast.Literal, ast.EmptySequence, ast.ContextItem)):
        return True
    if isinstance(expr, ast.PathExpr):
        return _is_cheap(expr.base) and not any(s.predicates for s in expr.steps)
    if isinstance(expr, ast.FunctionCall) and expr.name == "fn:data":
        return all(_is_cheap(a) for a in expr.args)
    return False


def _may_contain_elements(expr: ast.AstNode) -> bool:
    """Conservatively, could this content expression yield element nodes?

    Used by the ``fn:data(<E>{x}</E>) -> fn:data(x)`` rule: it only fires
    when the content is definitely text-only (atomizing an element with
    element children is an error, so the rewrite must not change that)."""
    if isinstance(expr, ast.Literal):
        return False
    if isinstance(expr, ast.ElementCtor):
        return True
    if isinstance(expr, ast.FunctionCall):
        if expr.name == "fn:data" or expr.name.startswith("xs:"):
            return False
    if isinstance(expr, (ast.Arithmetic, ast.Comparison, ast.AndExpr, ast.OrExpr,
                         ast.UnaryMinus, ast.Quantified)):
        return False
    static = expr.static_type
    if static is not None and not static.is_empty:
        from ..schema.types import AtomicItemType, TextItemType

        return not all(
            isinstance(alt, (AtomicItemType, TextItemType)) for alt in static.alternatives
        )
    return True


def _is_positional(pred: ast.AstNode) -> bool:
    """A predicate that may select by position stays a filter, with a focus
    of its own: one that reads the focus's position or size, or that is not
    a boolean or nodes only — by its shape, or else by its static type (a
    rewrite may have left it untyped, and then it may be anything)."""
    static = pred.static_type
    boolean_or_nodes = isinstance(pred, _BOOLEAN_SHAPES) or (static is not None and all(
        alt == _BOOLEAN or not isinstance(alt, (AnyItemType, AtomicItemType))
        for alt in static.alternatives))
    return _reads_position(pred) or not boolean_or_nodes


_BOOLEAN = AtomicItemType("xs:boolean")
_BOOLEAN_SHAPES = (ast.Comparison, ast.AndExpr, ast.OrExpr, ast.Quantified, ast.PathExpr)


def _reads_position(expr: ast.AstNode) -> bool:
    """``fn:position()`` / ``fn:last()`` outside a nested predicate (a
    filter's or a step's predicates have a focus of their own)."""
    if isinstance(expr, ast.FunctionCall) and expr.name in ("fn:position", "fn:last"):
        return True
    if isinstance(expr, ast.Step):
        return False
    children = [expr.base] if isinstance(expr, ast.FilterExpr) else expr.children()
    return any(map(_reads_position, children))


def _select_content(ctor: ast.ElementCtor, name: str) -> ast.AstNode | None:
    """Select the content expressions of ``ctor`` that contribute child
    elements named ``name``; None when any contribution is ambiguous."""
    matching: list[ast.AstNode] = []
    for part in ctor.content:
        verdict = _contributes_element(part, name)
        if verdict == "yes":
            matching.append(part)
        elif verdict == "maybe":
            return None
    if not matching:
        return ast.EmptySequence()
    if len(matching) == 1:
        return matching[0]
    return ast.SequenceExpr(matching)


def _contributes_element(part: ast.AstNode, name: str) -> str:
    """Does this content expression yield elements named ``name``?
    Returns "yes" / "no" / "maybe"."""
    if isinstance(part, ast.ElementCtor):
        return "yes" if part.name == name else "no"
    if isinstance(part, ast.Literal):
        return "no"
    if isinstance(part, ast.FunctionCall) and part.name == "fn:data":
        return "no"
    static = part.static_type
    if static is not None and not static.is_empty:
        from ..schema.types import AtomicItemType, ElementItemType, TextItemType

        verdicts = []
        for alt in static.alternatives:
            if isinstance(alt, ElementItemType):
                if alt.name is None:
                    return "maybe"
                verdicts.append("yes" if alt.name == name else "no")
            elif isinstance(alt, (AtomicItemType, TextItemType)):
                verdicts.append("no")
            else:
                return "maybe"
        if all(v == "no" for v in verdicts):
            return "no"
        if all(v == "yes" for v in verdicts):
            return "yes"
        return "maybe"
    if isinstance(part, ast.FLWOR):
        return _contributes_element(part.return_expr, name)
    if isinstance(part, ast.IfExpr):
        a = _contributes_element(part.then_branch, name)
        b = _contributes_element(part.else_branch, name)
        if a == b:
            return a
        if isinstance(part.else_branch, ast.EmptySequence):
            # if (...) then <X> else (): contributes X-elements conditionally,
            # which is still selectable (empty when the branch is not taken).
            return a
        return "maybe"
    if isinstance(part, ast.EmptySequence):
        return "no"
    return "maybe"
