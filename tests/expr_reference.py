"""The reference expression interpreter: one ``_eval_*`` method per AST shape.

This is the interpreter the engine ran beside its expression compiler
until compile-then-run became its only way to evaluate an expression,
moved here (the pure method bodies verbatim) as the oracle of
``tests/test_flwor_differential.py`` and of the lane, quantifier and
predicate matrices in ``tests/test_batch_runtime.py``.  It overrides
``Evaluator.eval`` / ``iter_eval`` with a ``getattr`` dispatch on the node's
class and never asks for a compiled closure.  What a value *is* it shares
with the engine (``repro.runtime.kernels``, ``repro.xquery.functions``);
what an expression *does* — a source call, a pushed region, a call of a
function the optimizer left in place, ``fn-bea:async`` / ``fail-over`` /
``timeout`` — it hands to the engine's one implementation on ``Evaluator``,
with operands it evaluated itself.  FLWORs go to the subclass in
``tests/flwor_reference.py``, the tuple-at-a-time driver.  It lives under
``tests/`` on purpose: ``src/`` must not import it.
"""

from __future__ import annotations

from typing import Iterator

from repro.compiler.algebra import PushedSQL, SourceCall
from repro.errors import DynamicError, TypeMatchError
from repro.runtime.evaluate import Env, Evaluator
from repro.runtime.kernels import (
    _async_call_of,
    _axis,
    _coerce,
    _convert_atomic,
    construct_element_content,
    distinct_nodes,
)
from repro.runtime.operators.pushedsql import execute_pushed
from repro.schema.dynamic import value_matches
from repro.schema.types import is_atomic_subtype
from repro.xml.items import AtomicValue, AttributeNode, Item, Node
from repro.xml.qname import QName
from repro.xquery import ast_nodes as ast
from repro.xquery.functions import (
    all_builtins,
    arithmetic_value,
    atomize,
    compare_atomics,
    effective_boolean_value,
    numeric_value,
)


class ReferenceInterpreter(Evaluator):
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
        items = env.get(node.name)
        return list(self.variable(node.name) if items is None else items)

    def _eval_ContextItem(self, node, env) -> list[Item]:
        if "." not in env:
            raise DynamicError("no context item")
        return list(env["."])

    def _eval_SequenceExpr(self, node: ast.SequenceExpr, env: Env) -> list[Item]:
        return self._eval_parts(node.items, env)

    def _eval_RangeTo(self, node: ast.RangeTo, env: Env) -> list[Item]:
        start = self._range_bound(node.start, env)
        end = self._range_bound(node.end, env)
        if start is None or end is None:
            return []
        return [AtomicValue(i, "xs:integer") for i in range(start, end + 1)]

    def _range_bound(self, expr: ast.AstNode, env: Env) -> int | None:
        """XQuery's ``xs:integer?`` conversion of a range operand."""
        atoms = atomize(self.eval(expr, env))
        if not atoms:
            return None
        if len(atoms) > 1:
            raise DynamicError("range: operand has more than one item")
        atom = atoms[0]
        if atom.type_name == "xs:untypedAtomic":
            return _convert_atomic(atom, "xs:integer").value
        if isinstance(atom.value, bool) or not isinstance(atom.value, int) \
                or not is_atomic_subtype(atom.type_name, "xs:integer"):
            raise DynamicError(f"range: an operand of type {atom.type_name} is not an xs:integer")
        return atom.value

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
        from repro.xml.items import AttributeNode as _AttributeNode

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
        for item in distinct_nodes(items):
            if not isinstance(item, Node):
                raise DynamicError("path step applied to an atomic value")
            selected = _axis(item, step)
            for predicate in step.predicates:
                selected = self._filter(selected, predicate, env)
            results.extend(selected)
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
                lambda i=i: self.eval(async_targets[i].args[0], env) for i in order
            ]
            for i, result in zip(order, self.overlap(thunks)):
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
        # the three service-quality effects: the engine's, over thunks that
        # evaluate their operand here
        if name == "fn-bea:async":
            return self.async_call(node, lambda: self.eval(node.args[0], env))
        if name == "fn-bea:fail-over":
            return self.fail_over(node, lambda: self.eval(node.args[0], env),
                                  lambda: self.eval(node.args[1], env))
        if name == "fn-bea:timeout":
            return self.timeout(node, lambda: self.eval(node.args[0], env),
                                lambda: self.eval(node.args[1], env),
                                lambda: self.eval(node.args[2], env))
        builtins = all_builtins()
        if name in builtins:
            builtin = builtins[name]
            if not builtin.min_args <= len(node.args) <= builtin.max_args:
                raise DynamicError(f"{name}: wrong number of arguments")
            args = [self.eval(arg, env) for arg in node.args]
            assert builtin.evaluator is not None
            return builtin.evaluator(*args)
        return self.call_user_function(node, (self.eval(arg, env) for arg in node.args))

    # -- data sources -----------------------------------------------------------------------

    def _eval_SourceCall(self, node: SourceCall, env: Env) -> list[Item]:
        return self.call_source(node, (self.eval(arg, env) for arg in node.args))

    # -- pushed region as an expression ----------------------------------------------------------

    def _eval_PushedSQL(self, node: PushedSQL, env: Env) -> list[Item]:
        return list(execute_pushed(node, env, self))
