"""Static analysis stage 4: type checking and inference (sections 3.1, 4.1).

Implements ALDSP's departures from the XQuery specification:

* **Structural typing of constructors** — ``<E>{expr}</E>`` gets static type
  ``element(E, C)`` where ``C`` is the structural type of the content, so
  child navigation through a constructor recovers the content's type (the
  property enabling view unfolding and source-access elimination).
* **Optimistic function application** — ``f($x)`` is accepted iff the static
  type of ``$x`` has a non-empty intersection with the parameter type; a
  runtime :class:`~repro.xquery.ast_nodes.TypeMatch` guard is inserted
  unless subtyping already holds.
* **Error recovery** — in design mode, a type error assigns the *error
  type* to the offending expression and analysis continues; in runtime
  mode the first error raises (section 4.1).
"""

from __future__ import annotations

from typing import Optional

from ..errors import SchemaError, TypeError_
from ..schema.structural import intersects, needs_typematch
from ..schema.types import (
    EMPTY,
    ITEM_STAR,
    AnyItemType,
    AtomicItemType,
    AttributeItemType,
    ComplexContent,
    ElementItemType,
    ItemType,
    MixedContent,
    Occurrence,
    Particle,
    SequenceType,
    SimpleContent,
    TextItemType,
    atomic,
    is_numeric,
    numeric_promote,
    sequence_concat,
    union,
)
from . import ast_nodes as ast
from .functions import all_builtins, is_builtin

BOOLEAN = atomic("xs:boolean")
INTEGER = atomic("xs:integer")
STRING = atomic("xs:string")

#: the "error type": analysis continues but the expression is poisoned.
ERROR_TYPE = SequenceType((AnyItemType(),), Occurrence.STAR)


class FunctionSignature:
    """Signature of a callable function: user-declared, builtin-resolved, or
    an external source function registered by introspection."""

    def __init__(self, name: str, params: list[SequenceType], result: SequenceType):
        self.name = name
        self.params = params
        self.result = result

    def __repr__(self) -> str:
        params = ", ".join(p.show() for p in self.params)
        return f"{self.name}({params}) as {self.result.show()}"


class FunctionTable:
    """Resolves function names to signatures during analysis.

    Sources, in priority order: user declarations in the module being
    compiled, externally registered functions (physical data services and
    registered Java functions), builtins.
    """

    def __init__(self, module: "ast.Module | list[ast.Module] | None" = None,
                 externals: dict[tuple[str, int], FunctionSignature] | None = None):
        if module is None:
            self.modules: list[ast.Module] = []
        elif isinstance(module, list):
            self.modules = [m for m in module if m is not None]
        else:
            self.modules = [module]
        self.externals = externals or {}

    @property
    def module(self) -> Optional[ast.Module]:
        return self.modules[0] if self.modules else None

    def resolve(self, name: str, arity: int) -> Optional[FunctionSignature]:
        for module in self.modules:
            decl = module.function(name, arity)
            if decl is not None:
                params = [p.declared_type or ITEM_STAR for p in decl.params]
                result = decl.return_type or decl.inferred_type or ITEM_STAR
                return FunctionSignature(name, params, result)
        if (name, arity) in self.externals:
            return self.externals[(name, arity)]
        if is_builtin(name):
            builtin = all_builtins()[name]
            if builtin.min_args <= arity <= builtin.max_args:
                params = [ITEM_STAR] * arity
                result = builtin.result_type if isinstance(builtin.result_type, SequenceType) else ITEM_STAR
                return FunctionSignature(name, params, result)
        return None


class TypeChecker:
    """Infers and annotates static types over a normalized tree."""

    def __init__(self, functions: FunctionTable, mode: str = "runtime"):
        self.functions = functions
        self.mode = mode
        self.errors: list[str] = []

    # -- error handling ------------------------------------------------------

    def _error(self, node: ast.AstNode, message: str) -> SequenceType:
        if self.mode == "runtime":
            raise TypeError_(message, node.line)
        self.errors.append(message)
        node.static_type = ERROR_TYPE
        return ERROR_TYPE

    # -- entry points ---------------------------------------------------------

    def check_module(self, module: ast.Module) -> None:
        """Analyze every function; in design mode, errors are collected per
        function and error-free signatures remain usable (section 4.1)."""
        module_env: dict[str, SequenceType] = {}
        for name, var in module.variables.items():
            module_env[name] = var.declared_type or ITEM_STAR
        for table_module in getattr(self.functions, "modules", []):
            for name, var in table_module.variables.items():
                module_env.setdefault(name, var.declared_type or ITEM_STAR)
        for decl in module.functions.values():
            if decl.body is None:
                continue
            env = dict(module_env)
            env.update(
                {param.name: (param.declared_type or ITEM_STAR) for param in decl.params}
            )
            before = len(self.errors)
            try:
                inferred = self.infer(decl.body, env)
            except TypeError_ as exc:
                if self.mode == "runtime":
                    raise
                decl.errors.append(str(exc))
                continue
            decl.inferred_type = inferred
            decl.errors.extend(self.errors[before:])
            if decl.return_type is not None and not inferred.is_empty:
                if not intersects(inferred, decl.return_type):
                    message = (
                        f"function {decl.name}: body type {inferred.show()} is "
                        f"incompatible with declared return type {decl.return_type.show()}"
                    )
                    self._error(decl.body, message)
                    decl.errors.append(message)
        if module.query_body is not None:
            self.infer(module.query_body, dict(module_env))

    # -- inference -------------------------------------------------------------

    def infer(self, node: ast.AstNode, env: dict[str, SequenceType]) -> SequenceType:
        method = getattr(self, f"_infer_{type(node).__name__}", None)
        if method is None:
            result = ITEM_STAR
            for child in node.children():
                self.infer(child, env)
        else:
            result = method(node, env)
        node.static_type = result
        return result

    # individual node rules --------------------------------------------------

    def _infer_Literal(self, node: ast.Literal, env) -> SequenceType:
        return atomic(node.value.type_name)

    def _infer_EmptySequence(self, node, env) -> SequenceType:
        return EMPTY

    def _infer_VarRef(self, node: ast.VarRef, env) -> SequenceType:
        if node.name not in env:
            return self._error(node, f"undefined variable ${node.name}")
        return env[node.name]

    def _infer_ContextItem(self, node, env) -> SequenceType:
        return env.get(".", SequenceType((AnyItemType(),), Occurrence.ONE))

    def _infer_SequenceExpr(self, node: ast.SequenceExpr, env) -> SequenceType:
        result = EMPTY
        for item in node.items:
            result = sequence_concat(result, self.infer(item, env))
        return result

    def _infer_RangeTo(self, node: ast.RangeTo, env) -> SequenceType:
        self.infer(node.start, env)
        self.infer(node.end, env)
        return SequenceType((AtomicItemType("xs:integer"),), Occurrence.STAR)

    def _infer_Arithmetic(self, node: ast.Arithmetic, env) -> SequenceType:
        left = self.infer(node.left, env)
        right = self.infer(node.right, env)
        names = [_atomic_name(left), _atomic_name(right)]
        if None in names:
            # an operand of unknown type may hold any numeric type (or an
            # untyped atom, which is an xs:double): every result from what
            # the known operand alone gives up to xs:double
            known = [name for name in names if name is not None]
            try:
                least = _NUMERIC.index(numeric_promote(known[0], _NUMERIC[0])) if known else 0
            except SchemaError:
                least = 0
            results = list(_NUMERIC[least:])
        else:
            try:
                results = [numeric_promote(names[0], names[1])]
            except SchemaError:
                if all(n != "xs:untypedAtomic" and not is_numeric(n) for n in names):
                    return self._error(node, f"arithmetic on non-numeric types {names}")
                results = ["xs:double"]
        if node.op == "div":
            results = ["xs:double" if name == "xs:integer" else name for name in results]
        if node.op == "idiv":
            results = ["xs:integer"]
        occ = Occurrence.OPTIONAL if (left.allows_empty() or right.allows_empty()) else Occurrence.ONE
        return SequenceType(tuple(map(AtomicItemType, dict.fromkeys(results))), occ)

    def _infer_UnaryMinus(self, node: ast.UnaryMinus, env) -> SequenceType:
        return self.infer(node.operand, env)

    def _infer_Comparison(self, node: ast.Comparison, env) -> SequenceType:
        self.infer(node.left, env)
        self.infer(node.right, env)
        return BOOLEAN

    def _infer_AndExpr(self, node: ast.AndExpr, env) -> SequenceType:
        self.infer(node.left, env)
        self.infer(node.right, env)
        return BOOLEAN

    def _infer_OrExpr(self, node: ast.OrExpr, env) -> SequenceType:
        self.infer(node.left, env)
        self.infer(node.right, env)
        return BOOLEAN

    def _infer_Quantified(self, node: ast.Quantified, env) -> SequenceType:
        inner = dict(env)
        for var, expr in node.bindings:
            seq = self.infer(expr, inner)
            inner[var] = _item_of(seq)
        self.infer(node.satisfies, inner)
        return BOOLEAN

    def _infer_IfExpr(self, node: ast.IfExpr, env) -> SequenceType:
        self.infer(node.condition, env)
        then_type = self.infer(node.then_branch, env)
        else_type = self.infer(node.else_branch, env)
        return union(then_type, else_type)

    def _infer_CastExpr(self, node: ast.CastExpr, env) -> SequenceType:
        operand = self.infer(node.operand, env)
        if node.kind in ("instance", "castable"):
            return BOOLEAN
        if node.kind == "cast":
            return node.target
        # treat as
        if not intersects(operand, node.target) and not operand.is_empty:
            return self._error(
                node, f"treat as: {operand.show()} cannot match {node.target.show()}"
            )
        return node.target

    def _infer_TypeswitchExpr(self, node: ast.TypeswitchExpr, env) -> SequenceType:
        operand = self.infer(node.operand, env)
        result: SequenceType | None = None
        for var, case_type, expr in node.cases:
            inner = dict(env)
            if var is not None:
                inner[var] = case_type
            branch = self.infer(expr, inner)
            result = branch if result is None else union(result, branch)
        inner = dict(env)
        if node.default_var is not None:
            inner[node.default_var] = operand
        branch = self.infer(node.default_expr, inner)
        return branch if result is None else union(result, branch)

    def _infer_AttributeCtor(self, node: ast.AttributeCtor, env) -> SequenceType:
        self.infer(node.value, env)
        return SequenceType((AttributeItemType(node.name),), Occurrence.ONE)

    def _infer_TypeMatch(self, node: ast.TypeMatch, env) -> SequenceType:
        self.infer(node.operand, env)
        return node.target

    def _infer_ErrorExpr(self, node: ast.ErrorExpr, env) -> SequenceType:
        for child in node.inputs:
            self.infer(child, env)
        if self.mode == "runtime":
            raise TypeError_(node.message, node.line)
        return ERROR_TYPE

    def _infer_FunctionCall(self, node: ast.FunctionCall, env) -> SequenceType:
        arg_types = [self.infer(arg, env) for arg in node.args]
        signature = self.functions.resolve(node.name, len(node.args))
        if signature is None:
            return self._error(
                node, f"unknown function {node.name}#{len(node.args)}"
            )
        new_args: list[ast.AstNode] = []
        for i, (arg, arg_type) in enumerate(zip(node.args, arg_types)):
            param = signature.params[i] if i < len(signature.params) else ITEM_STAR
            if arg_type is ERROR_TYPE:
                new_args.append(arg)
                continue
            # Function conversion rule: atomize the argument when the
            # parameter expects atomic values (implicit fn:data, stage 3).
            if (
                param.alternatives
                and all(isinstance(alt, AtomicItemType) for alt in param.alternatives)
                and any(not isinstance(alt, AtomicItemType) for alt in arg_type.alternatives)
            ):
                arg = ast.FunctionCall("fn:data", [arg])
                arg_type = _atomized_type(arg_type)
                arg.static_type = arg_type
            if not intersects(arg_type, param):
                self._error(
                    node,
                    f"{node.name}: argument {i + 1} type {arg_type.show()} does not "
                    f"intersect parameter type {param.show()}",
                )
                new_args.append(arg)
                continue
            # Optimistic typing: guard with typematch unless subtype holds.
            if needs_typematch(arg_type, param) and not _is_universal(param):
                guard = ast.TypeMatch(arg, param)
                guard.static_type = param
                new_args.append(guard)
            else:
                new_args.append(arg)
        node.args = new_args
        if node.name in ("fn:data",):
            return _atomized_type(arg_types[0]) if arg_types else ITEM_STAR
        if is_builtin(node.name):
            builtin = all_builtins()[node.name]
            return builtin.static_result_type(arg_types)
        return signature.result

    def _infer_PathExpr(self, node: ast.PathExpr, env) -> SequenceType:
        current = self.infer(node.base, env)
        for step in node.steps:
            current = self._step_type(current, step, env)
            for predicate in step.predicates:
                inner = dict(env)
                inner["."] = _item_of(current)
                self.infer(predicate, inner)
                current = current.with_occurrence(
                    current.occurrence.union(Occurrence.OPTIONAL)
                    if current.occurrence.min_count
                    else current.occurrence
                )
        return current

    def _infer_FilterExpr(self, node: ast.FilterExpr, env) -> SequenceType:
        base = self.infer(node.base, env)
        for predicate in node.predicates:
            inner = dict(env)
            inner["."] = _item_of(base)
            self.infer(predicate, inner)
        if base.is_empty:
            return base
        occ = Occurrence.OPTIONAL if base.occurrence.max_count == 1 else Occurrence.STAR
        return base.with_occurrence(occ)

    def _step_type(self, base: SequenceType, step: ast.Step, env) -> SequenceType:
        """Navigate the structural type through one step.

        This is where structural typing pays off: navigating into a
        constructed element's type yields the (typed) content rather than
        ANYTYPE.
        """
        if base.is_empty:
            return EMPTY
        results: list[SequenceType] = []
        for alt in base.alternatives:
            results.append(self._step_item_type(alt, step))
        combined = results[0]
        for extra in results[1:]:
            combined = union(combined, extra)
        # Multiply occurrence: base* / child? -> child*
        if base.occurrence.max_count is None:
            if combined.is_empty:
                return EMPTY
            combined = combined.with_occurrence(
                Occurrence.STAR if combined.occurrence.min_count == 0 or base.occurrence.min_count == 0
                else Occurrence.PLUS
            )
        elif base.occurrence.min_count == 0 and not combined.is_empty:
            combined = combined.with_occurrence(combined.occurrence.union(Occurrence.OPTIONAL))
        return combined

    def _step_item_type(self, item: ItemType, step: ast.Step) -> SequenceType:
        if isinstance(step.test, ast.KindTest):
            if step.test.kind == "text":
                return SequenceType((TextItemType(),), Occurrence.STAR)
            return ITEM_STAR
        name = step.test.name
        if step.axis == "attribute":
            if isinstance(item, ElementItemType):
                return SequenceType(
                    (AttributeItemType(None if name == "*" else name),), Occurrence.OPTIONAL
                )
            return SequenceType((AttributeItemType(None),), Occurrence.STAR)
        if not isinstance(item, ElementItemType):
            # Navigating atomic values is an error; navigating item()/node()
            # yields unknown elements.
            if isinstance(item, (AnyItemType,)) or item.__class__.__name__ == "AnyNodeType":
                return SequenceType((ElementItemType(None if name == "*" else name),), Occurrence.STAR)
            return EMPTY
        content = item.content
        if content is None or isinstance(content, MixedContent):
            return SequenceType(
                (ElementItemType(None if name == "*" else name),), Occurrence.STAR
            )
        if isinstance(content, SimpleContent):
            return EMPTY
        assert isinstance(content, ComplexContent)
        matches: list[Particle] = []
        for particle in content.particles:
            it = particle.item_type
            if isinstance(it, ElementItemType) and (name == "*" or it.name == name or it.name is None):
                matches.append(particle)
        if not matches:
            return EMPTY
        result = SequenceType((matches[0].item_type,), matches[0].occurrence)
        for extra in matches[1:]:
            result = union(result, SequenceType((extra.item_type,), extra.occurrence))
        return result

    def _infer_ElementCtor(self, node: ast.ElementCtor, env) -> SequenceType:
        for attr in node.attributes:
            self.infer(attr.value, env)
        content_types = [self.infer(part, env) for part in node.content]
        content = _structural_content(content_types)
        return SequenceType((ElementItemType(node.name, content),), Occurrence.ONE)

    def _infer_FLWOR(self, node: ast.FLWOR, env) -> SequenceType:
        inner = dict(env)
        loop_multiplies = False
        for clause in node.clauses:
            if isinstance(clause, ast.ForClause):
                seq = self.infer(clause.expr, inner)
                item_type = _item_of(seq)
                if clause.declared_type is not None:
                    if not intersects(item_type, clause.declared_type) and not seq.is_empty:
                        self._error(
                            clause,
                            f"for ${clause.var}: binding type {item_type.show()} does not "
                            f"intersect declared type {clause.declared_type.show()}",
                        )
                    item_type = clause.declared_type
                inner[clause.var] = item_type
                if clause.pos_var:
                    inner[clause.pos_var] = INTEGER
                if seq.occurrence.max_count != 1:
                    loop_multiplies = True
                if seq.allows_empty():
                    loop_multiplies = True
            elif isinstance(clause, ast.LetClause):
                seq = self.infer(clause.expr, inner)
                if clause.declared_type is not None:
                    seq = clause.declared_type
                inner[clause.var] = seq
            elif isinstance(clause, ast.WhereClause):
                self.infer(clause.condition, inner)
                loop_multiplies = True
            elif isinstance(clause, ast.GroupByClause):
                key_types = {}
                for expr, var in clause.keys:
                    key_types[var] = self.infer(expr, inner)
                grouped_types = {}
                for source, target in clause.grouped:
                    if source in inner:
                        source_type = inner[source]
                    else:
                        source_type = self._error(clause, f"undefined variable ${source}")
                    grouped_types[target] = source_type.with_occurrence(Occurrence.STAR) \
                        if not source_type.is_empty else source_type
                # After grouping only the as-variables remain bound.
                inner = dict(env)
                inner.update(key_types)
                inner.update(grouped_types)
                loop_multiplies = True
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    self.infer(spec.key, inner)
        body = self.infer(node.return_expr, inner)
        if body.is_empty:
            return EMPTY
        if loop_multiplies or True:
            # A FLWOR yields zero or more results in general.
            return body.with_occurrence(
                Occurrence.STAR if body.occurrence.min_count == 0 or loop_multiplies
                else Occurrence.PLUS
            )
        return body


#: the numeric types, each promoted to the ones after it
_NUMERIC = ("xs:integer", "xs:decimal", "xs:float", "xs:double")


def _atomic_name(seq: SequenceType) -> Optional[str]:
    """The atomic type of an arithmetic operand; None when its static type
    does not say (not one atomic type, or ``xs:anyAtomicType``)."""
    alternatives = seq.alternatives
    if len(alternatives) == 1 and isinstance(alternatives[0], AtomicItemType) \
            and alternatives[0].name != "xs:anyAtomicType":
        return alternatives[0].name
    return None


def _item_of(seq: SequenceType) -> SequenceType:
    """The type of one item drawn from a sequence (for-binding type)."""
    if seq.is_empty:
        return EMPTY
    return SequenceType(seq.alternatives, Occurrence.ONE)


def _atomized_type(seq: SequenceType) -> SequenceType:
    """Static type of fn:data($e) for static type of $e."""
    if seq.is_empty:
        return EMPTY
    alts: list[ItemType] = []
    for alt in seq.alternatives:
        if isinstance(alt, AtomicItemType):
            alts.append(alt)
        elif isinstance(alt, ElementItemType) and isinstance(alt.content, SimpleContent):
            alts.append(AtomicItemType(alt.content.type_name))
        elif isinstance(alt, AttributeItemType):
            alts.append(AtomicItemType(alt.type_name))
        else:
            alts.append(AtomicItemType("xs:anyAtomicType"))
    deduped = tuple(dict.fromkeys(alts))
    return SequenceType(deduped, seq.occurrence)


def _structural_content(content_types: list[SequenceType]):
    """Compute the structural content type of a constructed element."""
    particles: list[Particle] = []
    atomic_only = True
    atomic_name: str | None = None
    has_any = False
    for seq in content_types:
        if seq.is_empty:
            continue
        for alt in seq.alternatives:
            if isinstance(alt, ElementItemType):
                atomic_only = False
                particles.append(Particle(alt, seq.occurrence))
            elif isinstance(alt, AtomicItemType):
                atomic_name = alt.name if atomic_name in (None, alt.name) else "xs:anyAtomicType"
            elif isinstance(alt, (TextItemType,)):
                atomic_name = "xs:untypedAtomic"
            else:
                has_any = True
    if has_any:
        return MixedContent()
    if atomic_only:
        if atomic_name is None:
            return ComplexContent(())
        return SimpleContent(atomic_name)
    if atomic_name is not None:
        return MixedContent()
    return ComplexContent(tuple(particles))


def _is_universal(seq: SequenceType) -> bool:
    return (
        len(seq.alternatives) == 1
        and isinstance(seq.alternatives[0], AnyItemType)
        and seq.occurrence is Occurrence.STAR
    )
