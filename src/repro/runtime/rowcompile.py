"""Row-expression compiler (P-BATCH): AST shapes become closures.

The interpreter (``Evaluator.eval``) pays a ``getattr`` dispatch, a
generator wrap and a ``list()`` materialization on *every* sub-expression
of every row.  The FLWOR runtime (:mod:`repro.runtime.batchexec`) sets a
clause up once for all the rows it will see, so every clause expression of
every FLWOR is compiled **once** into a chain of plain closures and called
per row — no dispatch, no generator frames.  A compiled expression has two
calling conventions:

* the **list form** ``f(evaluator, env) -> list[Item]`` — every shape has
  it, and it returns a **fresh list** per call (callers and builtin
  evaluators may extend or hold the result);
* the **atom lane** ``f.atom(evaluator, env) -> AtomicValue | None |
  MANY`` — the atomized value of the expression when it has at most one
  atom: the atom, ``None`` for the empty sequence, or a :class:`MANY`
  holding the atoms when there are two or more.  Scalar work (arithmetic
  and comparison operands, ``where`` conditions, group/order/join keys)
  runs on the lane and never builds, copies, re-atomizes or re-counts an
  item list (the paper's typed token stream, sections 5.1-5.2, serves the
  same end).  Each consumer turns ``MANY`` into the error the list form
  raises for a multi-item operand, in the same left-to-right order.

``Literal``, ``Arithmetic``, ``UnaryMinus``, ``Comparison``, ``And/Or``
and ``fn:data`` are *atomic* shapes — their items are their atoms — so the
lane is their only body and :func:`_from_lane` derives the list form from
it (``f.atomic`` is true).  ``VarRef`` has a lane of its own beside its
list form (the bound items may be nodes).  For every other shape
:func:`atomfn` derives the lane from the list form.

Semantics are byte-identical to the interpreter by construction: every
compiled shape reuses the *same* helper functions the interpreter calls
(:func:`~repro.xquery.functions.atomize`, ``arithmetic_value``,
``compare_atomics``, ``effective_boolean_value``, ``_coerce``, ``_axis``,
``construct_element_content``, the evaluator's ``_filter``), and every
shape the compiler does not understand falls back to a bridge closure
that simply calls ``evaluator.eval`` — the interpreter itself
(:func:`bridged` lists them).  ``tests/test_flwor_differential.py`` and
the lane matrices of ``tests/test_batch_runtime.py`` hold the compiled
forms to the interpreter, driven by the reference FLWOR driver under
``tests/``.

Compiled closures are cached on the AST node (``node._rowfn``), like the
memoized SQL renderings on pushed regions (``_sql_text``).  Closures
capture no evaluator or context, so plans shared through the plan cache
reuse them safely across platforms and threads; concurrent first
compilations produce equivalent closures and the last write wins (benign,
same contract as ``_sql_text``).
"""

from __future__ import annotations

from typing import Callable

from ..errors import DynamicError
from ..xml.items import AtomicValue, AttributeNode, ElementNode, Node
from ..xml.qname import QName
from ..xquery import ast_nodes as ast
from ..xquery.functions import (
    all_builtins,
    arithmetic_value,
    atom_boolean_value,
    atomize,
    compare_atomics,
    effective_boolean_value,
    numeric_value,
)

RowFn = Callable


class MANY(list):
    """Atom-lane outcome for two or more atoms (the atoms themselves, so
    ``fn:data`` and general comparison need no second evaluation)."""

    __slots__ = ()


def many_values(atoms: MANY, general: bool) -> tuple:
    """The distinct values of a join key with more than one atom, for the
    operators that hash join keys (PP-k, the index nested-loop join).  A
    general comparison (``=``) joins on any of them; a value comparison
    (``eq``) over them is the error the nested loop raises."""
    if not general:
        raise DynamicError("value comparison over multi-item sequence")
    return tuple(dict.fromkeys(atom.value for atom in atoms))


_TRUE = AtomicValue(True, "xs:boolean")
_FALSE = AtomicValue(False, "xs:boolean")


def rowfn(node: ast.AstNode) -> RowFn:
    """The compiled row function for ``node`` (cached on the node).

    Always succeeds: unsupported shapes get the interpreter bridge."""
    fn = getattr(node, "_rowfn", None)
    if fn is None:
        fn = compile_rowfn(node)
        if fn is None:
            fn = _bridge(node)
        node._rowfn = fn
    return fn


def atomfn(node: ast.AstNode) -> RowFn:
    """The atom lane of ``node``: its own where the shape has one, else
    derived from (and cached on) the list form."""
    fn = rowfn(node)
    atom = getattr(fn, "atom", None)
    if atom is None:
        def atom(evaluator, env):
            return _one_atom(fn(evaluator, env))

        fn.atom = atom
    return atom


def truthfn(node: ast.AstNode) -> Callable:
    """``(evaluator, env) -> bool``: the effective boolean value of
    ``node``, on the lane when its items are atoms (a node is true
    whatever it atomizes to, so other shapes keep their item list)."""
    fn = rowfn(node)
    if not getattr(fn, "atomic", False):
        return lambda evaluator, env: effective_boolean_value(fn(evaluator, env))
    atom = fn.atom

    def truth(evaluator, env):
        value = atom(evaluator, env)
        if value is None:
            return False
        if type(value) is MANY:
            raise DynamicError("effective boolean value of multi-item atomic sequence")
        return atom_boolean_value(value)

    return truth


def compile_rowfn(node: ast.AstNode) -> RowFn | None:
    """Compile ``node`` if its *root* shape is supported, else None.
    Unsupported sub-expressions inside a supported root are bridged
    individually, so partial compilation still pays off."""
    handler = _COMPILERS.get(type(node).__name__)
    if handler is None:
        return None
    return handler(node)


def _bridge(node: ast.AstNode) -> RowFn:
    """Fallback: defer to the interpreter (exact by definition)."""

    def call(evaluator, env):
        return evaluator.eval(node, env)

    return call


#: plan operators the interpreter owns: nothing in them is row-expression
#: work the compiler could have taken
_SOURCE_OPERATORS = frozenset({"PushedSQL", "SourceCall"})


def bridged(node: ast.AstNode) -> list[str]:
    """AST type names of the expressions under ``node`` that run on the
    interpreter: shapes :func:`rowfn` bridges (reported once, at the root
    of the interpreted subtree) and predicates, which ``Evaluator._filter``
    evaluates.  Empty means every row expression of the plan is compiled."""
    names: list[str] = []

    def visit(n: ast.AstNode) -> None:
        if type(n).__name__ in _SOURCE_OPERATORS:
            return
        if isinstance(n, (ast.Step, ast.FilterExpr)):
            names.extend(type(p).__name__ for p in n.predicates)
            if isinstance(n, ast.FilterExpr):
                visit(n.base)
            return
        # FLWORs, clauses and order specs are pipeline operators: their
        # expressions are what gets compiled
        if not isinstance(n, (ast.FLWOR, ast.Clause, ast.OrderSpec)) \
                and compile_rowfn(n) is None:
            names.append(type(n).__name__)
            return
        for child in n.children():
            visit(child)

    visit(node)
    return names


def _sub(node: ast.AstNode) -> RowFn:
    return rowfn(node)


def _one_atom(items):
    """The atom-lane outcome for an item sequence."""
    if len(items) == 1:
        atoms = items[0].atomize()
    else:
        atoms = atomize(items)
    if len(atoms) == 1:
        return atoms[0]
    return MANY(atoms) if atoms else None


def _from_lane(atom: RowFn) -> RowFn:
    """The list form of an atomic shape, defined from its lane."""

    def call(evaluator, env):
        value = atom(evaluator, env)
        if value is None:
            return []
        return list(value) if type(value) is MANY else [value]

    call.atom = atom
    call.atomic = True
    return call


def _number(value, op: str):
    """``numeric_value`` of a lane outcome; None (empty) stays None."""
    if value is None:
        return None
    if type(value) is MANY:
        raise DynamicError(f"{op}: operand has more than one item")
    return numeric_value(value)


# ---------------------------------------------------------------------------
# Shape compilers.  Each has one body; value semantics live in the helpers
# shared with the corresponding Evaluator._eval_* method.
# ---------------------------------------------------------------------------


def _c_Literal(node: ast.Literal) -> RowFn:
    value = node.value
    return _from_lane(lambda evaluator, env: value)


def _c_EmptySequence(node) -> RowFn:
    return lambda evaluator, env: []


def _c_VarRef(node: ast.VarRef) -> RowFn:
    name = node.name

    # A name the tuple does not bind is an external or module variable:
    # every row of a parameterised query reads its parameters this way, so
    # the lookup hands back the binding itself and only the list form
    # copies it.

    def call(evaluator, env):
        items = env.get(name)
        if items is None:
            items = evaluator.variable(name, env)
        return list(items)

    def atom(evaluator, env):
        items = env.get(name)
        if items is None:
            items = evaluator.variable(name, env)
        if len(items) == 1 and type(items[0]) is AtomicValue:
            return items[0]
        return _one_atom(items)

    call.atom = atom
    return call


def _c_ContextItem(node) -> RowFn:
    def call(evaluator, env):
        if "." not in env:
            raise DynamicError("no context item")
        return list(env["."])

    return call


def _c_SequenceExpr(node: ast.SequenceExpr) -> RowFn | None:
    from .evaluate import _async_call_of

    if sum(1 for part in node.items if _async_call_of(part) is not None) > 1:
        return None  # sibling async overlap: interpreter only
    fns = [_sub(part) for part in node.items]

    def call(evaluator, env):
        items = []
        for fn in fns:
            items.extend(fn(evaluator, env))
        return items

    return call


def _c_RangeTo(node: ast.RangeTo) -> RowFn:
    start_fn, end_fn = atomfn(node.start), atomfn(node.end)

    def call(evaluator, env):
        start = _number(start_fn(evaluator, env), "range")
        end = _number(end_fn(evaluator, env), "range")
        if start is None or end is None:
            return []
        return [AtomicValue(i, "xs:integer") for i in range(int(start), int(end) + 1)]

    return call


def _c_Arithmetic(node: ast.Arithmetic) -> RowFn:
    left_fn, right_fn = atomfn(node.left), atomfn(node.right)
    op = node.op

    def atom(evaluator, env):
        left = _number(left_fn(evaluator, env), op)
        right = _number(right_fn(evaluator, env), op)
        if left is None or right is None:
            return None
        return arithmetic_value(op, left, right)

    return _from_lane(atom)


def _c_UnaryMinus(node: ast.UnaryMinus) -> RowFn:
    operand_fn = atomfn(node.operand)

    def atom(evaluator, env):
        value = _number(operand_fn(evaluator, env), "unary -")
        if value is None:
            return None
        return AtomicValue(-value, "xs:integer" if isinstance(value, int) else "xs:double")

    return _from_lane(atom)


def _c_Comparison(node: ast.Comparison) -> RowFn:
    from .evaluate import _coerce

    left_fn, right_fn = atomfn(node.left), atomfn(node.right)
    op = node.op

    def general(evaluator, env):
        left = left_fn(evaluator, env)
        right = right_fn(evaluator, env)
        if left is None or right is None:
            return _FALSE
        if type(left) is not MANY and type(right) is not MANY:
            result = compare_atomics(op, _coerce(left, right), _coerce(right, left))
        else:
            result = any(
                compare_atomics(op, _coerce(a, b), _coerce(b, a))
                for a in (left if type(left) is MANY else (left,))
                for b in (right if type(right) is MANY else (right,))
            )
        return _TRUE if result else _FALSE

    def value(evaluator, env):
        left = left_fn(evaluator, env)
        right = right_fn(evaluator, env)
        if left is None or right is None:
            return None
        if type(left) is MANY or type(right) is MANY:
            raise DynamicError("value comparison over multi-item sequence")
        return _TRUE if compare_atomics(op, left, right) else _FALSE

    return _from_lane(general if node.general else value)


def _c_Logical(node: ast.AndExpr | ast.OrExpr) -> RowFn:
    left_fn, right_fn = truthfn(node.left), truthfn(node.right)
    if isinstance(node, ast.AndExpr):
        def atom(evaluator, env):
            return _TRUE if left_fn(evaluator, env) and right_fn(evaluator, env) else _FALSE
    else:
        def atom(evaluator, env):
            return _TRUE if left_fn(evaluator, env) or right_fn(evaluator, env) else _FALSE
    return _from_lane(atom)


def _c_IfExpr(node: ast.IfExpr) -> RowFn:
    condition_fn = truthfn(node.condition)
    then_fn, else_fn = _sub(node.then_branch), _sub(node.else_branch)

    def call(evaluator, env):
        if condition_fn(evaluator, env):
            return then_fn(evaluator, env)
        return else_fn(evaluator, env)

    return call


def _c_Quantified(node: ast.Quantified) -> RowFn:
    """``some``/``every``: the interpreter's ``_quantify``, binding for
    binding — sequences bind left to right, each item in its own copy of
    the environment, and the first deciding item ends the scan."""
    bindings = [(var, streamfn(expr)) for var, expr in node.bindings]
    satisfies_fn = truthfn(node.satisfies)
    some = node.kind == "some"
    depth = len(bindings)

    def quantify(evaluator, env, index):
        if index == depth:
            return satisfies_fn(evaluator, env)
        var, items_fn = bindings[index]
        for item in items_fn(evaluator, env):
            extended = dict(env)
            extended[var] = [item]
            if quantify(evaluator, extended, index + 1) == some:
                return some
        return not some

    return _from_lane(
        lambda evaluator, env: _TRUE if quantify(evaluator, env, 0) else _FALSE)


def streamfn(expr: ast.AstNode) -> Callable:
    """``(evaluator, env) -> iterable of items``, for a consumer that may
    stop early: a quantifier binding, a ``for`` sequence or the ``return``
    of the lazy FLWOR driver.  A FLWOR or a pushed region streams, as it
    does under ``Evaluator.iter_eval`` — a deciding item, or an abandoned
    result, ends the scan before the rest of the sequence is produced;
    any other shape is its row function's list."""
    if type(expr).__name__ in ("FLWOR", "PushedSQL"):
        return lambda evaluator, env: evaluator.iter_eval(expr, env)
    return rowfn(expr)


_ROW_CLAUSES = (ast.ForClause, ast.LetClause, ast.WhereClause)


def _c_FLWOR(node: ast.FLWOR) -> RowFn | None:
    """A FLWOR inside a row expression runs as a row function when it —
    and every FLWOR nested in it — is made only of ``for``/``let``/
    ``where`` over sequences already in memory.  A source access, a
    service-quality call or a user function (cache, spans) anywhere under
    it has effects whose timing the lazy driver's pull order decides, so
    such a FLWOR is bridged to ``Evaluator.eval``, which runs it there."""
    from .batchexec import flwor_rowfn

    builtins = all_builtins()
    for sub in node.walk():
        if isinstance(sub, ast.FLWOR):
            if not all(type(clause) in _ROW_CLAUSES
                       and getattr(clause, "scatter_group", None) is None
                       for clause in sub.clauses):
                return None
        elif type(sub).__name__ in _SOURCE_OPERATORS:
            return None
        elif isinstance(sub, ast.FunctionCall) and (
                sub.name in _SPECIAL_CALLS or sub.name not in builtins):
            return None
    return flwor_rowfn(node)


def _c_PathExpr(node: ast.PathExpr) -> RowFn:
    base_fn = _sub(node.base)
    step_fns = [_c_step(step) for step in node.steps]

    def call(evaluator, env):
        current = base_fn(evaluator, env)
        for step_fn in step_fns:
            current = step_fn(evaluator, env, current)
        return current

    return call


def _c_step(step: ast.Step):
    from .evaluate import _axis

    predicates = step.predicates
    if (step.axis == "child" and isinstance(step.test, ast.NameTest)
            and step.test.name != "*" and not predicates):
        # The hot shape ($var/CHILD): inline the axis + name test.
        name = step.test.name

        def fast(evaluator, env, items):
            results = []
            for item in items:
                if not isinstance(item, Node):
                    raise DynamicError("path step applied to an atomic value")
                results.extend(
                    c for c in item.children()
                    if isinstance(c, ElementNode) and c.name.local == name
                )
            return results

        return fast

    def generic(evaluator, env, items):
        results = []
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError("path step applied to an atomic value")
            results.extend(_axis(item, step))
        for predicate in predicates:
            results = evaluator._filter(results, predicate, env)
        return results

    return generic


def _c_FilterExpr(node: ast.FilterExpr) -> RowFn:
    base_fn = _sub(node.base)
    predicates = node.predicates

    def call(evaluator, env):
        items = base_fn(evaluator, env)
        for predicate in predicates:
            items = evaluator._filter(items, predicate, env)
        return items

    return call


def _c_AttributeCtor(node: ast.AttributeCtor) -> RowFn:
    value_fn = _sub(node.value)
    qname, optional = QName(node.name), node.optional

    def call(evaluator, env):
        atoms = atomize(value_fn(evaluator, env))
        if not atoms and optional:
            return []
        text = " ".join(a.string_value() for a in atoms)
        type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
        return [AttributeNode(qname, AtomicValue(text, type_name))]

    return call


def _c_ElementCtor(node: ast.ElementCtor) -> RowFn | None:
    from .evaluate import _async_call_of, construct_element_content

    if sum(1 for part in node.content if _async_call_of(part) is not None) > 1:
        return None  # sibling async overlap: interpreter only
    attr_specs = [(QName(attr.name), attr.optional, _sub(attr.value))
                  for attr in node.attributes]
    content_fns = [_sub(part) for part in node.content]
    name, optional = node.name, node.optional

    def call(evaluator, env):
        attributes = []
        for qname, attr_optional, value_fn in attr_specs:
            atoms = atomize(value_fn(evaluator, env))
            if not atoms:
                if attr_optional:
                    continue  # ALDSP's attr?="" semantics (section 3.1)
                attributes.append(AttributeNode(qname, AtomicValue("", "xs:string")))
                continue
            text = " ".join(a.string_value() for a in atoms)
            type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
            attributes.append(AttributeNode(qname, AtomicValue(text, type_name)))
        content = []
        for content_fn in content_fns:
            content.extend(content_fn(evaluator, env))
        element = construct_element_content(name, attributes, content)
        if optional and not element.children():
            return []
        return [element]

    return call


_SPECIAL_CALLS = frozenset({"fn-bea:async", "fn-bea:fail-over", "fn-bea:timeout"})


def _c_FunctionCall(node: ast.FunctionCall) -> RowFn | None:
    name = node.name
    if name in ("fn:position", "fn:last"):
        key = "#position" if name == "fn:position" else "#last"

        def focus(evaluator, env):
            if key not in env:
                raise DynamicError(f"{name}() used outside a predicate focus")
            return [env[key]]

        return focus
    if name in _SPECIAL_CALLS:
        return None  # service-quality calls: spans/branch accounting
    if name == "fn:data" and len(node.args) == 1:
        return _from_lane(atomfn(node.args[0]))  # atomization is the lane
    builtin = all_builtins().get(name)
    if builtin is None or builtin.evaluator is None or builtin.lazy:
        return None  # user functions (cache/recursion) and lazy builtins
    if not builtin.min_args <= len(node.args) <= builtin.max_args:
        return None  # let the interpreter raise its arity error
    arg_fns = [_sub(arg) for arg in node.args]
    evaluator_fn = builtin.evaluator
    if len(arg_fns) == 1:
        arg0 = arg_fns[0]
        return lambda evaluator, env: evaluator_fn(arg0(evaluator, env))

    def call(evaluator, env):
        return evaluator_fn(*[fn(evaluator, env) for fn in arg_fns])

    return call


_COMPILERS: dict[str, Callable] = {
    "Literal": _c_Literal,
    "EmptySequence": _c_EmptySequence,
    "VarRef": _c_VarRef,
    "ContextItem": _c_ContextItem,
    "SequenceExpr": _c_SequenceExpr,
    "RangeTo": _c_RangeTo,
    "Arithmetic": _c_Arithmetic,
    "UnaryMinus": _c_UnaryMinus,
    "Comparison": _c_Comparison,
    "AndExpr": _c_Logical,
    "OrExpr": _c_Logical,
    "IfExpr": _c_IfExpr,
    "Quantified": _c_Quantified,
    "FLWOR": _c_FLWOR,
    "PathExpr": _c_PathExpr,
    "FilterExpr": _c_FilterExpr,
    "AttributeCtor": _c_AttributeCtor,
    "ElementCtor": _c_ElementCtor,
    "FunctionCall": _c_FunctionCall,
}
