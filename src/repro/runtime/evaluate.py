"""The plan interpreter: evaluates optimized expression trees.

The optimized/pushed tree *is* the executable plan (code generation in
ALDSP produces "a data structure that can be interpreted efficiently at
runtime", section 3.3).  This module interprets *expressions*: paths,
constructors, comparisons, function and source calls, pushed SQL regions
and the service-quality functions (async / fail-over / timeout / cache).
A FLWOR is handed to the FLWOR runtime (:mod:`repro.runtime.batchexec`),
the one pull-based pipeline of clause operators (section 5.2), which
compiles the clause expressions (:mod:`repro.runtime.rowcompile`) and
comes back here for the shapes that compiler bridges.
"""

from __future__ import annotations

from typing import Iterator

from ..clock import VirtualClock
from ..compiler.algebra import PushedSQL, SourceCall
from ..errors import DynamicError, SourceError, TypeMatchError
from ..schema.dynamic import value_matches
from ..xml.items import (
    AtomicValue,
    AttributeNode,
    DocumentNode,
    ElementNode,
    Item,
    Node,
    TextNode,
    iter_descendants,
)
from ..xml.qname import QName
from ..xquery import ast_nodes as ast
from ..xquery.functions import (
    all_builtins,
    arithmetic_value,
    atomize,
    compare_atomics,
    effective_boolean_value,
    numeric_value,
)
from .context import DynamicContext
from .operators.group import GroupStats
from .operators.pushedsql import execute_pushed

Env = dict


class Evaluator:
    def __init__(self, ctx: DynamicContext):
        self.ctx = ctx
        self._depth = 0
        self.group_stats = GroupStats()

    # -- entry points ----------------------------------------------------------

    def eval(self, node: ast.AstNode, env: Env) -> list[Item]:
        return list(self.iter_eval(node, env))

    def iter_eval(self, node: ast.AstNode, env: Env) -> Iterator[Item]:
        """Lazy evaluation; FLWORs and pushed regions stream."""
        if isinstance(node, ast.FLWOR):
            yield from self._eval_flwor(node, env)
            return
        if isinstance(node, PushedSQL):
            yield from execute_pushed(node, env, self)
            return
        yield from self._eval_strict(node, env)

    # -- strict node dispatch -----------------------------------------------------

    def _eval_strict(self, node: ast.AstNode, env: Env) -> list[Item]:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise DynamicError(f"cannot evaluate {type(node).__name__}")
        return method(node, env)

    def _eval_Literal(self, node: ast.Literal, env: Env) -> list[Item]:
        return [node.value]

    def _eval_EmptySequence(self, node, env) -> list[Item]:
        return []

    def _eval_VarRef(self, node: ast.VarRef, env: Env) -> list[Item]:
        return list(self.variable(node.name, env))

    def variable(self, name: str, env: Env) -> list[Item]:
        """The sequence bound to ``$name`` — the binding itself, not a
        copy: callers that hand it on must copy it first."""
        if name in env:
            return env[name]
        externals = self.ctx.external_variables
        if name in externals:
            return externals[name]
        # Module-level variable declarations (evaluated lazily, cached).
        if self.ctx.module is not None and name in self.ctx.module.variables:
            decl = self.ctx.module.variables[name]
            cached = getattr(decl, "_cached_value", None)
            if cached is None:
                if decl.value is None:
                    raise DynamicError(
                        f"external variable ${name} was not bound"
                    )
                cached = self.eval(decl.value, {})
                decl._cached_value = cached
            return cached
        raise DynamicError(f"unbound variable ${name}")

    def _eval_ContextItem(self, node, env) -> list[Item]:
        if "." not in env:
            raise DynamicError("no context item")
        return list(env["."])

    def _eval_SequenceExpr(self, node: ast.SequenceExpr, env: Env) -> list[Item]:
        return self._eval_parts(node.items, env)

    def _eval_RangeTo(self, node: ast.RangeTo, env: Env) -> list[Item]:
        start = self._single_numeric(node.start, env, "range")
        end = self._single_numeric(node.end, env, "range")
        if start is None or end is None:
            return []
        return [AtomicValue(i, "xs:integer") for i in range(int(start), int(end) + 1)]

    def _eval_Arithmetic(self, node: ast.Arithmetic, env: Env) -> list[Item]:
        left = self._single_numeric(node.left, env, node.op)
        right = self._single_numeric(node.right, env, node.op)
        if left is None or right is None:
            return []
        return [arithmetic_value(node.op, left, right)]

    def _eval_UnaryMinus(self, node: ast.UnaryMinus, env: Env) -> list[Item]:
        value = self._single_numeric(node.operand, env, "unary -")
        if value is None:
            return []
        return [AtomicValue(-value, "xs:integer" if isinstance(value, int) else "xs:double")]

    def _single_numeric(self, expr: ast.AstNode, env: Env, op: str):
        atoms = atomize(self.eval(expr, env))
        if not atoms:
            return None
        if len(atoms) > 1:
            raise DynamicError(f"{op}: operand has more than one item")
        return numeric_value(atoms[0])

    def _eval_Comparison(self, node: ast.Comparison, env: Env) -> list[Item]:
        left = atomize(self.eval(node.left, env))
        right = atomize(self.eval(node.right, env))
        if node.general:
            result = any(
                compare_atomics(node.op, _coerce(a, b), _coerce(b, a))
                for a in left
                for b in right
            )
            return [AtomicValue(result, "xs:boolean")]
        if not left or not right:
            return []
        if len(left) > 1 or len(right) > 1:
            raise DynamicError("value comparison over multi-item sequence")
        return [AtomicValue(compare_atomics(node.op, left[0], right[0]), "xs:boolean")]

    def _eval_AndExpr(self, node: ast.AndExpr, env: Env) -> list[Item]:
        value = effective_boolean_value(self.eval(node.left, env)) and \
            effective_boolean_value(self.eval(node.right, env))
        return [AtomicValue(value, "xs:boolean")]

    def _eval_OrExpr(self, node: ast.OrExpr, env: Env) -> list[Item]:
        value = effective_boolean_value(self.eval(node.left, env)) or \
            effective_boolean_value(self.eval(node.right, env))
        return [AtomicValue(value, "xs:boolean")]

    def _eval_IfExpr(self, node: ast.IfExpr, env: Env) -> list[Item]:
        if effective_boolean_value(self.eval(node.condition, env)):
            return self.eval(node.then_branch, env)
        return self.eval(node.else_branch, env)

    def _eval_Quantified(self, node: ast.Quantified, env: Env) -> list[Item]:
        result = self._quantify(node, env, 0)
        return [AtomicValue(result, "xs:boolean")]

    def _quantify(self, node: ast.Quantified, env: Env, index: int) -> bool:
        if index == len(node.bindings):
            return effective_boolean_value(self.eval(node.satisfies, env))
        var, expr = node.bindings[index]
        some = node.kind == "some"
        for item in self.iter_eval(expr, env):
            extended = dict(env)
            extended[var] = [item]
            matched = self._quantify(node, extended, index + 1)
            if some and matched:
                return True
            if not some and not matched:
                return False
        return not some

    def _eval_TypeswitchExpr(self, node: ast.TypeswitchExpr, env: Env) -> list[Item]:
        value = self.eval(node.operand, env)
        for var, case_type, expr in node.cases:
            if value_matches(value, case_type):
                inner = dict(env)
                if var is not None:
                    inner[var] = value
                return self.eval(expr, inner)
        inner = dict(env)
        if node.default_var is not None:
            inner[node.default_var] = value
        return self.eval(node.default_expr, inner)

    def _eval_AttributeCtor(self, node: ast.AttributeCtor, env: Env) -> list[Item]:
        """Computed attribute constructor: yields an attribute node (picked
        up by an enclosing element construction)."""
        atoms = atomize(self.eval(node.value, env))
        if not atoms and node.optional:
            return []
        text = " ".join(a.string_value() for a in atoms)
        type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
        from ..xml.items import AttributeNode as _AttributeNode

        return [_AttributeNode(QName(node.name), AtomicValue(text, type_name))]

    def _eval_CastExpr(self, node: ast.CastExpr, env: Env) -> list[Item]:
        value = self.eval(node.operand, env)
        if node.kind == "instance":
            return [AtomicValue(value_matches(value, node.target), "xs:boolean")]
        if node.kind == "treat":
            if not value_matches(value, node.target):
                raise DynamicError(
                    f"treat as {node.target.show()}: value does not match"
                )
            return value
        # cast / castable
        try:
            result = self._cast_value(value, node)
        except DynamicError:
            if node.kind == "castable":
                return [AtomicValue(False, "xs:boolean")]
            raise
        if node.kind == "castable":
            return [AtomicValue(True, "xs:boolean")]
        return result

    def _cast_value(self, value: list[Item], node: ast.CastExpr) -> list[Item]:
        atoms = atomize(value)
        if not atoms:
            if node.target.allows_empty():
                return []
            raise DynamicError("cast of empty sequence to non-optional type")
        if len(atoms) > 1:
            raise DynamicError("cast of multi-item sequence")
        target = node.target.alternatives[0]
        type_name = getattr(target, "name", "xs:string")
        return [_convert_atomic(atoms[0], type_name)]

    def _eval_TypeMatch(self, node: ast.TypeMatch, env: Env) -> list[Item]:
        value = self.eval(node.operand, env)
        if not value_matches(value, node.target):
            raise TypeMatchError(
                f"runtime type check failed: value does not match {node.target.show()}"
            )
        return value

    def _eval_ErrorExpr(self, node: ast.ErrorExpr, env: Env) -> list[Item]:
        raise DynamicError(f"evaluation of erroneous expression: {node.message}")

    # -- paths -------------------------------------------------------------------------

    def _eval_PathExpr(self, node: ast.PathExpr, env: Env) -> list[Item]:
        current: list[Item] = self.eval(node.base, env)
        for step in node.steps:
            current = self._apply_step(current, step, env)
        return current

    def _apply_step(self, items: list[Item], step: ast.Step, env: Env) -> list[Item]:
        results: list[Item] = []
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError("path step applied to an atomic value")
            results.extend(_axis(item, step))
        for predicate in step.predicates:
            results = self._filter(results, predicate, env)
        return results

    def _eval_FilterExpr(self, node: ast.FilterExpr, env: Env) -> list[Item]:
        items = self.eval(node.base, env)
        for predicate in node.predicates:
            items = self._filter(items, predicate, env)
        return items

    def _filter(self, items: list[Item], predicate: ast.AstNode, env: Env) -> list[Item]:
        kept: list[Item] = []
        size = AtomicValue(len(items), "xs:integer")
        for position, item in enumerate(items, start=1):
            inner = dict(env)
            inner["."] = [item]
            inner["#position"] = AtomicValue(position, "xs:integer")
            inner["#last"] = size
            value = self.eval(predicate, inner)
            if len(value) == 1 and isinstance(value[0], AtomicValue) and \
                    isinstance(value[0].value, (int, float)) and \
                    not isinstance(value[0].value, bool):
                if value[0].value == position:
                    kept.append(item)
            elif effective_boolean_value(value):
                kept.append(item)
        return kept

    # -- constructors ----------------------------------------------------------------------

    def _eval_ElementCtor(self, node: ast.ElementCtor, env: Env,
                          precomputed_content: list[Item] | None = None) -> list[Item]:
        attributes: list[AttributeNode] = []
        for attr in node.attributes:
            value = self.eval(attr.value, env)
            atoms = atomize(value)
            if not atoms:
                if attr.optional:
                    continue  # ALDSP's attr?="" semantics (section 3.1)
                attributes.append(
                    AttributeNode(QName(attr.name), AtomicValue("", "xs:string"))
                )
                continue
            text = " ".join(a.string_value() for a in atoms)
            type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
            attributes.append(AttributeNode(QName(attr.name), AtomicValue(text, type_name)))
        if precomputed_content is None:
            content = self._eval_parts(node.content, env)
        else:
            content = precomputed_content
        element = construct_element_content(node.name, attributes, content)
        if node.optional and not element.children():
            # Residual optional constructors (outside normalized pipelines).
            return []
        return [element]

    def _eval_parts(self, parts: list[ast.AstNode], env: Env) -> list[Item]:
        """Evaluate sibling expressions; sibling ``fn-bea:async`` calls are
        overlapped (section 5.4).

        A sibling counts as asynchronous if it *is* an ``fn-bea:async``
        call or is a constructor whose sole content is one — the common
        ``<X>{fn-bea:async(...)}</X>`` dashboard pattern.
        """
        async_targets: dict[int, ast.FunctionCall] = {}
        for i, part in enumerate(parts):
            target = _async_call_of(part)
            if target is not None:
                async_targets[i] = target
        async_results: dict[int, list[Item]] = {}
        if len(async_targets) > 1:
            order = list(async_targets)
            thunks = [
                self._async_thunk(async_targets[i].args[0], env) for i in order
            ]
            for i, result in zip(order, self.ctx.async_exec.run_parallel(thunks)):
                async_results[i] = result
        items: list[Item] = []
        for i, part in enumerate(parts):
            if i in async_results:
                if part is async_targets[i]:
                    items.extend(async_results[i])
                else:
                    assert isinstance(part, ast.ElementCtor)
                    items.extend(
                        self._eval_ElementCtor(part, env, precomputed_content=async_results[i])
                    )
            else:
                items.extend(self.eval(part, env))
        return items

    # -- function calls --------------------------------------------------------------------

    def _eval_FunctionCall(self, node: ast.FunctionCall, env: Env) -> list[Item]:
        name = node.name
        if name in ("fn:position", "fn:last"):
            key = "#position" if name == "fn:position" else "#last"
            if key not in env:
                raise DynamicError(f"{name}() used outside a predicate focus")
            return [env[key]]
        if name == "fn-bea:async":
            with self.ctx.tracer.start("async.call", name,
                                       op=getattr(node, "op_id", None)):
                return self.ctx.async_exec.run_parallel(
                    [self._async_thunk(node.args[0], env)]
                )[0]
        if name == "fn-bea:fail-over":
            return self._fail_over(node, env)
        if name == "fn-bea:timeout":
            return self._timeout(node, env)
        builtins = all_builtins()
        if name in builtins:
            builtin = builtins[name]
            if not builtin.min_args <= len(node.args) <= builtin.max_args:
                raise DynamicError(f"{name}: wrong number of arguments")
            args = [self.eval(arg, env) for arg in node.args]
            assert builtin.evaluator is not None
            return builtin.evaluator(*args)
        return self._call_user_function(node, env)

    def _async_thunk(self, expr: ast.AstNode, env: Env):
        """A branch thunk for ``fn-bea:async``.  In partial-results mode a
        branch whose source fails degrades to the empty sequence (with a
        DegradationRecord) instead of sinking the whole parallel group."""

        def thunk() -> list[Item]:
            try:
                return self.eval(expr, env)
            except SourceError as exc:
                if self.ctx.resilience.absorb("fn-bea:async", exc):
                    return []
                raise

        return thunk

    def _fail_over(self, node: ast.FunctionCall, env: Env) -> list[Item]:
        with self.ctx.tracer.start("fail-over", node.name,
                                   op=getattr(node, "op_id", None)) as span:
            try:
                result = self.eval(node.args[0], env)
                span.set(failed_over=False)
                return result
            except SourceError:
                span.set(failed_over=True)
                return self.eval(node.args[1], env)

    def _timeout(self, node: ast.FunctionCall, env: Env) -> list[Item]:
        with self.ctx.tracer.start("timeout", node.name,
                                   op=getattr(node, "op_id", None)):
            return self._timeout_inner(node, env)

    def _timeout_inner(self, node: ast.FunctionCall, env: Env) -> list[Item]:
        millis_atoms = atomize(self.eval(node.args[1], env))
        if len(millis_atoms) != 1:
            raise DynamicError("fn-bea:timeout: bad time limit")
        limit = float(numeric_value(millis_atoms[0]))
        # Only the virtual clock needs explicit charges: the branch's time
        # was *unwound* by measure().  In wall mode the time has physically
        # passed — charging again would double-count it — and measure()
        # itself bounds the wait at the limit.
        virtual = isinstance(self.ctx.clock, VirtualClock)
        result, elapsed, failed = self.ctx.async_exec.measure(
            lambda: self.eval(node.args[0], env),
            limit_ms=None if virtual else limit,
        )
        if failed:
            if isinstance(result, (SourceError, TimeoutError)):
                if virtual:
                    self.ctx.clock.charge_ms(min(elapsed, limit))
                return self.eval(node.args[2], env)
            assert isinstance(result, BaseException)
            raise result
        if elapsed > limit:
            # The primary took too long: the system fails over after the
            # time limit has elapsed (section 5.6).
            if virtual:
                self.ctx.clock.charge_ms(limit)
            return self.eval(node.args[2], env)
        if virtual:
            self.ctx.clock.charge_ms(elapsed)
        return result  # type: ignore[return-value]

    def _call_user_function(self, node: ast.FunctionCall, env: Env) -> list[Item]:
        decl = self.ctx.user_function(node.name, len(node.args))
        if decl is None or decl.body is None:
            raise DynamicError(f"unknown function {node.name}#{len(node.args)}")
        args = [self.eval(arg, env) for arg in node.args]
        cache = self.ctx.cache
        use_cache = cache is not None and cache.is_enabled(node.name)
        if use_cache:
            key = cache.argument_key(args)
            with self.ctx.tracer.start("cache.lookup", node.name,
                                       op=getattr(node, "op_id", None)) as span:
                hit = cache.get(node.name, key)
                span.set(hit=hit is not None)
            if hit is not None:
                return hit
        if self._depth >= self.ctx.max_recursion:
            raise DynamicError(f"recursion limit exceeded calling {node.name}")
        call_env: Env = {}
        for param, value in zip(decl.params, args):
            call_env[param.name] = value
        self._depth += 1
        try:
            result = self.eval(decl.body, call_env)
        finally:
            self._depth -= 1
        if use_cache:
            cache.put(node.name, key, result)
        return result

    # -- data sources -----------------------------------------------------------------------

    def _eval_SourceCall(self, node: SourceCall, env: Env) -> list[Item]:
        definition = self.ctx.registry.lookup(node.name, len(node.args))
        if definition is None:
            raise SourceError(f"source function {node.name} is not registered")
        if node.kind == "table":
            return self._scan_table(node)
        args = [self.eval(arg, env) for arg in node.args]
        cache = self.ctx.cache
        use_cache = cache is not None and cache.is_enabled(node.name)
        op_id = getattr(node, "op_id", None)
        if use_cache:
            key = cache.argument_key(args)
            with self.ctx.tracer.start("cache.lookup", node.name,
                                       op=op_id) as span:
                hit = cache.get(node.name, key)
                span.set(hit=hit is not None)
            if hit is not None:
                return hit
        assert definition.invoke is not None
        self.ctx.stats.bump(service_calls=1)
        resilience = self.ctx.resilience
        adaptor = definition.adaptor
        source = adaptor.name if adaptor is not None else node.name
        stats = adaptor.stats if adaptor is not None else None
        with self.ctx.tracer.start("source-call", source, op=op_id) as span:
            try:
                result = resilience.call(source, lambda: definition.invoke(args),
                                         stats=stats)
            except SourceError as exc:
                if resilience.absorb(source, exc):
                    span.set(degraded=True)
                    return []  # degraded: empty sequence, never cached
                raise
            span.set(rows=len(result))
        if use_cache:
            cache.put(node.name, key, result)
        return result

    def _scan_table(self, node: SourceCall) -> list[Item]:
        """Fallback full scan for an unpushed table function."""
        meta = node.table_meta
        assert meta is not None
        columns = ", ".join(f't1."{name}" AS {name}' for name, _t in meta.columns)
        sql = f'SELECT {columns} FROM "{meta.table}" t1'
        with self.ctx.tracer.start("table-scan", meta.table,
                                   op=getattr(node, "op_id", None)) as span:
            try:
                rows = self.ctx.connection(meta.database).execute_query(sql)
            except SourceError as exc:
                if self.ctx.resilience.absorb(meta.database, exc):
                    span.set(degraded=True)
                    return []
                raise
            span.set(rows=len(rows))
        items: list[Item] = []
        for row in rows:
            items.append(_row_element(meta, row))
        return items

    # -- FLWORs ------------------------------------------------------------------------------

    def _eval_flwor(self, node: ast.FLWOR, env: Env) -> Iterator[Item]:
        """Every FLWOR, at every batch size, runs the FLWOR runtime."""
        from .batchexec import eval_flwor  # function-level: it imports this module

        return eval_flwor(self, node, env)

    # -- pushed region as an expression ----------------------------------------------------------

    def _eval_PushedSQL(self, node: PushedSQL, env: Env) -> list[Item]:
        return list(execute_pushed(node, env, self))


# ---------------------------------------------------------------------------
# Shared construction / value helpers
# ---------------------------------------------------------------------------


def construct_element_content(name: str | QName, attributes: list[AttributeNode],
                              content: list[Item], owned: bool = False) -> ElementNode:
    """XQuery element construction: attribute nodes in content become
    attributes, adjacent atomic values merge into one text node separated
    by spaces, nodes are deep-copied.

    ``owned`` is the caller's word that it built every node in
    ``attributes`` and ``content`` for this call and nothing else refers to
    them; they are then adopted as they are, with no copy (the pushed
    region's reconstruction template, DESIGN.md "Owned nodes")."""
    element = ElementNode(name if isinstance(name, QName) else QName(name))
    for attr in attributes:
        element.add_attribute(attr if owned else AttributeNode(attr.name, attr.value))
    pending_atoms: list[AtomicValue] = []
    simple_type: str | None = None
    only_text = True  # no element child so far

    def flush() -> None:
        nonlocal simple_type
        element.add_child(TextNode(" ".join(a.string_value() for a in pending_atoms)))
        simple_type = pending_atoms[0].type_name if len(pending_atoms) == 1 else None
        pending_atoms.clear()

    for item in content:
        if isinstance(item, AtomicValue):
            pending_atoms.append(item)
            continue
        if pending_atoms:
            flush()
        if isinstance(item, AttributeNode):
            element.add_attribute(item if owned else AttributeNode(item.name, item.value))
        elif isinstance(item, TextNode):
            element.add_child(item if owned else TextNode(item.content))
        elif isinstance(item, ElementNode):
            element.add_child(item if owned else item.deep_copy())
            only_text = False
        elif isinstance(item, DocumentNode):
            for child in item.children():
                if isinstance(child, ElementNode):
                    element.add_child(child if owned else child.deep_copy())
                    only_text = False
        else:
            raise DynamicError(f"cannot construct content from {type(item).__name__}")
    if pending_atoms:
        flush()
    # Preserve the content's type annotation for single typed values so that
    # re-atomization keeps its type (ALDSP's typed token streams survive
    # construction, section 3.1).
    if simple_type is not None and only_text and simple_type != "xs:untypedAtomic":
        element.type_annotation = simple_type
    return element


def _async_call_of(part: ast.AstNode) -> ast.FunctionCall | None:
    """The fn-bea:async call this sibling runs, if any (direct or as the
    sole content of a constructor)."""
    if isinstance(part, ast.FunctionCall) and part.name == "fn-bea:async":
        return part
    if isinstance(part, ast.ElementCtor) and len(part.content) == 1:
        inner = part.content[0]
        if isinstance(inner, ast.FunctionCall) and inner.name == "fn-bea:async":
            return inner
    return None


def _axis(node: Node, step: ast.Step) -> list[Item]:
    if step.axis == "attribute":
        if not isinstance(node, ElementNode):
            return []
        if isinstance(step.test, ast.NameTest):
            if step.test.name == "*":
                return list(node.attributes)
            attr = node.attribute(QName(step.test.name))
            return [attr] if attr is not None else []
        return list(node.attributes)
    if step.axis == "self":
        return [node] if _node_test(node, step) else []
    if step.axis == "descendant":
        return [d for d in iter_descendants(node) if _node_test(d, step)]
    # child axis
    return [c for c in node.children() if _node_test(c, step)]


def _node_test(node: Node, step: ast.Step) -> bool:
    if isinstance(step.test, ast.KindTest):
        if step.test.kind == "text":
            return isinstance(node, TextNode)
        if step.test.kind == "node":
            return True
        if step.test.kind == "element":
            return isinstance(node, ElementNode)
        return False
    name = step.test.name
    if not isinstance(node, ElementNode):
        return False
    return name == "*" or node.name.local == name


def _coerce(atom: AtomicValue, other: AtomicValue) -> AtomicValue:
    """General-comparison coercion: untyped adapts to the other operand."""
    if atom.type_name != "xs:untypedAtomic":
        return atom
    if isinstance(other.value, bool):
        return AtomicValue(atom.string_value().strip() in ("true", "1"), "xs:boolean")
    if isinstance(other.value, (int, float)):
        return AtomicValue(numeric_value(atom), "xs:double")
    return AtomicValue(atom.string_value(), "xs:string")


def _convert_atomic(atom: AtomicValue, type_name: str) -> AtomicValue:
    base = type_name.split(":")[-1]
    text = atom.string_value()
    try:
        if base in ("integer", "int", "long", "short", "byte"):
            return AtomicValue(int(float(text)) if "." in text else int(text), type_name)
        if base in ("decimal", "double", "float"):
            return AtomicValue(float(text), type_name)
        if base == "boolean":
            if text.strip() in ("true", "1"):
                return AtomicValue(True, type_name)
            if text.strip() in ("false", "0"):
                return AtomicValue(False, type_name)
            raise ValueError(text)
        return AtomicValue(text, type_name)
    except ValueError as exc:
        raise DynamicError(f"cannot cast {text!r} to {type_name}") from exc


def _as_atomic_value(value) -> AtomicValue:
    if isinstance(value, AtomicValue):
        return value
    if isinstance(value, bool):
        return AtomicValue(value, "xs:boolean")
    if isinstance(value, int):
        return AtomicValue(value, "xs:integer")
    if isinstance(value, float):
        return AtomicValue(value, "xs:double")
    return AtomicValue(str(value), "xs:string")


def _row_element(meta, row: dict) -> ElementNode:
    element = ElementNode(QName(meta.element_name))
    for column, xs_type in meta.columns:
        value = row.get(column)
        if value is None:
            continue
        child = ElementNode(QName(column), type_annotation=xs_type)
        child.add_child(TextNode(AtomicValue(value, xs_type).string_value()))
        element.add_child(child)
    return element


class _OrderKey:
    """Order-by sort key honouring direction and empty-greatest/least."""

    __slots__ = ("value", "descending", "empty_greatest")

    def __init__(self, value, descending: bool, empty_greatest: bool):
        self.value = value
        self.descending = descending
        self.empty_greatest = empty_greatest

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            empty_first = not self.empty_greatest
            return empty_first != self.descending
        if b is None:
            empty_first = not self.empty_greatest
            return (not empty_first) != self.descending
        if isinstance(a, bool) or isinstance(b, bool):
            a, b = str(a), str(b)
        if isinstance(a, str) != isinstance(b, str):
            a, b = str(a), str(b)
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value
