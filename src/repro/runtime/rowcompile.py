"""The expression compiler (P-BATCH): every AST shape becomes a closure.

The optimized tree is the plan (section 3.3), and an expression of it is
evaluated one way: :func:`rowfn` compiles it **once** into a chain of plain
closures — no per-node dispatch, no generator frames — and every caller
runs that.  ``Evaluator.eval`` is ``rowfn(node)(evaluator, env)``; the FLWOR
runtime (:mod:`repro.runtime.batchexec`) sets a clause up once for all the
rows it will see and calls its closures per row or per batch.
:data:`_COMPILERS` is total over the expression classes.  A compiled
expression has three calling conventions:

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
  raises for a multi-item operand, in the same left-to-right order;
* the **column lane** ``f.column(evaluator, rows) -> (type_name, values) |
  None`` (:func:`colfn`) — a whole batch at once, one raw Python value per
  row, each a single atom of ``type_name``.  Only pure scalar shapes have
  it, and its kernels are *total*: a value off their fast path (a type
  but ``xs:integer`` / ``xs:string`` in, an empty or multi-item binding, a
  ``mod`` operand below zero or a zero divisor) makes the call return
  ``None``, never raise, and the consumer runs that batch on the atom
  lane, so values, errors and error order are the atom lane's.

``Literal``, ``Arithmetic``, ``UnaryMinus``, ``Comparison``, ``And/Or``,
``cast``/``castable``/``instance of``, ``fn:data`` and a call of a *scalar*
builtin are *atomic* shapes — their items are their atoms — so the lane is
their only body and :func:`_from_lane` derives the list form from it
(``f.atomic`` is true).  ``VarRef`` has a lane of its own beside its list
form (the bound items may be nodes), and so has a path whose last step is
``child::NAME``: an unread element a template built from a row answers it
from the row's columns, so ``$c/CID eq $k`` or ``fn:data($r/NAME)`` builds
no tree, while the list form still returns the element's own children
(section 4.2's constructor-navigation elimination, at run time;
:func:`_child_lane`).  For every other shape :func:`atomfn` derives the
lane from the list form.

The lane carries *typed* scalars all the way (section 5.1: a token's type
travels with it, so an operator need not rediscover what a value is):

* **kernels guard on the Python type once.**  Arithmetic and comparison
  test their two lane outcomes once (``type(x) is AtomicValue and
  type(x.value) is int``; for comparison both ``int`` or both ``str`` —
  ``type(...) is``, so a ``bool`` is never an ``int``) and compute in place
  with an ``operator`` function chosen when the closure was built.  Every
  other operand — a double, untyped text, a boolean, empty, ``MANY``, the
  ``div``/``idiv`` operators — falls through *in the same closure* to the
  general kernels below.  A guard, not a mode: nothing selects it but the
  values;
* **scalar builtins are lane-native.**  A builtin ``xquery.functions``
  registers as ``scalar`` has one body over ``AtomicValue | None`` per
  argument; its call evaluates every argument's lane, rejects the first
  ``MANY`` and calls the body — no argument lists, no re-atomization;
* **the general kernels are the semantics.**  ``numeric_value``,
  ``arithmetic_value``, ``compare_atomics`` and ``_coerce`` define what an
  operator means, shared with ``tests/expr_reference.py``; a fast path
  returns exactly what they return — value, type name, error text and
  error order — which is what makes the differential an independent check
  of the guards.

**Building a closure never raises.**  What is wrong with an expression — an
arity error, an unknown function, an ``ErrorExpr`` — is raised when the
closure is *called*, operands left to right, so a branch that is never
taken never fails.

**Closures compute; the evaluator acts.**  What an expression *does* — a
source call, a pushed region, a call of a function the optimizer left in
place (cache, recursion guard), ``fn-bea:async`` / ``fail-over`` /
``timeout`` — exists once, on :class:`~repro.runtime.evaluate.Evaluator`:
the closure evaluates the operands (or wraps them as thunks) and calls it.
Value semantics are the kernels of :mod:`repro.runtime.kernels`, shared
with the reference interpreter under ``tests/`` (``tests/expr_reference.py``)
that ``tests/test_flwor_differential.py`` and the lane matrices of
``tests/test_batch_runtime.py`` hold every compiled form to.

Compiled closures are cached on the AST node (``node._rowfn``), like the
memoized SQL renderings on pushed regions (``_sql_text``).  Closures
capture plan nodes and constants only — declarations, sources, cache and
tracer are read through ``evaluator.ctx`` at call time, the recursion
depth through the evaluator — so plans shared through the plan cache
reuse them safely across platforms and threads; concurrent first
compilations produce equivalent closures and the last write wins (benign,
same contract as ``_sql_text``).
"""

from __future__ import annotations

import operator
from operator import itemgetter
from typing import Callable

from ..errors import DynamicError, TypeMatchError
from ..schema.dynamic import value_matches
from ..schema.types import is_atomic_subtype
from ..xml.items import (
    UNTYPED,
    AtomicValue,
    AttributeNode,
    DeferredElement,
    ElementNode,
    Node,
    leaf_atom,
    lexical,
)
from ..xml.qname import QName
from ..xquery import ast_nodes as ast
from ..xquery.functions import (
    all_builtins,
    arithmetic_value,
    atom_boolean_value,
    atomize,
    compare_atomics,
    effective_boolean_value,
    number_atom,
    numeric_value,
)
from .kernels import (
    _async_call_of,
    _axis,
    _coerce,
    _convert_atomic,
    construct_element_content,
)

RowFn = Callable


class MANY(list):
    """Atom-lane outcome for two or more atoms (the atoms themselves, so
    ``fn:data`` and general comparison need no second evaluation)."""

    __slots__ = ()


def many_values(atoms: MANY, general: bool) -> tuple:
    """The distinct values of a PP-k join key with more than one atom.  A
    general comparison (``=``) joins on any of them; a value comparison
    (``eq``) over them is the error the nested loop raises."""
    if not general:
        raise DynamicError("value comparison over multi-item sequence")
    return tuple(dict.fromkeys(atom.value for atom in atoms))


_TRUE = AtomicValue(True, "xs:boolean")
_FALSE = AtomicValue(False, "xs:boolean")


def rowfn(node: ast.AstNode) -> RowFn:
    """The compiled form of ``node`` (cached on the node).  Always
    succeeds: a node that is not an expression (a clause, a step, a
    template slot) gets a closure that says so when it is called."""
    fn = node._rowfn
    if fn is None:
        handler = _COMPILERS.get(type(node).__name__)
        fn = node._rowfn = handler(node) if handler is not None else _raises(
            DynamicError, f"cannot evaluate {type(node).__name__}")
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


def colfn(node: ast.AstNode) -> RowFn | None:
    """The column lane of ``node`` (cached on its list form), or None.  Its
    type is read from the values, once per batch: a static type only
    approximates them (``$i + $s`` with ``$s`` as ``item()*`` is typed
    ``xs:double`` and is an ``xs:integer`` at run time)."""
    fn = rowfn(node)
    try:
        return fn.column
    except AttributeError:
        compiler = _COLUMNS.get(type(node).__name__)
        column = fn.column = None if compiler is None else compiler(node)
        return column


def _raises(error: type, message: str) -> RowFn:
    """An expression whose evaluation is an error: raised per call, so one
    under a branch that is never taken costs nothing."""

    def call(evaluator, env):
        raise error(message)

    return call


def _streamed(node: ast.AstNode) -> RowFn:
    """The list form of a FLWOR on the lazy driver or of a pushed region:
    both enter through ``Evaluator.iter_eval``, nested or at the root."""
    return lambda evaluator, env: list(evaluator.iter_eval(node, env))


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
# Shape compilers.  Each has one body; value semantics live in the kernels
# shared with the reference interpreter (``tests/expr_reference.py``).
# ---------------------------------------------------------------------------


def _c_Literal(node: ast.Literal) -> RowFn:
    value = node.value
    return _from_lane(lambda evaluator, env: value)


def _c_EmptySequence(node) -> RowFn:
    return lambda evaluator, env: []


def _c_VarRef(node: ast.VarRef) -> RowFn:
    name = node.name

    # A request's bindings are its root row, so the row answers for an
    # external as for a tuple variable.  A name it misses is a module
    # variable, or an external read where the row did not descend from the
    # root one (a user-function body, an index-join key): the lookup hands
    # back the binding itself and only the list form copies it.

    def call(evaluator, env):
        items = env.get(name)
        if items is None:
            items = evaluator.variable(name)
        return list(items)

    def atom(evaluator, env):
        items = env.get(name)
        if items is None:
            items = evaluator.variable(name)
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


def _parts(parts: list[ast.AstNode]) -> RowFn:
    """Sibling expressions — a comma sequence, a constructor's content —
    evaluated left to right into one list.  Two or more sibling
    ``fn-bea:async`` calls are overlapped (section 5.4), which is decided
    here, when the closure is built: a sibling counts as asynchronous if it
    *is* an ``fn-bea:async`` call or is a constructor whose sole content is
    one — the common ``<X>{fn-bea:async(...)}</X>`` dashboard pattern."""
    fns = [rowfn(part) for part in parts]
    # (a malformed call is no branch: it raises its arity error where it stands)
    targets = [target if target is not None and len(target.args) == 1 else None
               for target in map(_async_call_of, parts)]
    if sum(target is not None for target in targets) < 2:
        def call(evaluator, env):
            items = []
            for fn in fns:
                items.extend(fn(evaluator, env))
            return items

        return call
    branch_fns = [rowfn(target.args[0]) for target in targets if target is not None]

    def overlapped(evaluator, env):
        # the branches run first, as one group; then every sibling in
        # order, an asynchronous one taking its branch's result
        results = iter(evaluator.overlap(
            [lambda fn=fn: fn(evaluator, env) for fn in branch_fns]))
        items = []
        for part, target, fn in zip(parts, targets, fns):
            if target is None:
                items.extend(fn(evaluator, env))
            elif part is target:
                items.extend(next(results))
            else:  # the constructor around the call
                items.extend(fn(evaluator, env, next(results)))
        return items

    return overlapped


def _c_SequenceExpr(node: ast.SequenceExpr) -> RowFn:
    return _parts(node.items)


def _c_RangeTo(node: ast.RangeTo) -> RowFn:
    start_fn, end_fn = atomfn(node.start), atomfn(node.end)

    def call(evaluator, env):
        start = _range_bound(start_fn(evaluator, env))
        end = _range_bound(end_fn(evaluator, env))
        if start is None or end is None:
            return []
        return [AtomicValue(i, "xs:integer") for i in range(start, end + 1)]

    return call


def _range_bound(value) -> int | None:
    """A range operand as ``xs:integer?``: an untyped atom is cast."""
    if value is None:
        return None
    if type(value) is MANY:
        raise DynamicError("range: operand has more than one item")
    if value.type_name == UNTYPED:
        return _convert_atomic(value, "xs:integer").value
    if type(value.value) is not int or not is_atomic_subtype(value.type_name, "xs:integer"):
        raise DynamicError(f"range: an operand of type {value.type_name} is not an xs:integer")
    return value.value


#: operator -> what it computes over two ``int``s, always an ``int`` (so the
#: result is an ``xs:integer``, as ``arithmetic_value`` types it).  Python's
#: ``%`` is XQuery's ``mod`` only over a non-negative dividend and a positive
#: divisor (anything else — a sign to carry, a zero — goes to the kernel);
#: ``div`` and ``idiv`` have no entry and stay on the kernel
_INT_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                   "mod": operator.mod}
#: operator -> the Python comparison ``compare_atomics`` ends in when both
#: values are ``int`` or both ``str``: no promotion applies, whatever the
#: type names, and general comparison's ``_coerce`` leaves the values alone
_COMPARISON = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
               "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def _c_Arithmetic(node: ast.Arithmetic) -> RowFn:
    left_fn, right_fn = atomfn(node.left), atomfn(node.right)
    op = node.op
    int_op, any_sign = _INT_ARITHMETIC.get(op), op != "mod"

    def atom(evaluator, env):
        left = left_fn(evaluator, env)
        if type(left) is AtomicValue and type(left.value) is int:
            # (an int has no error of its own for the right operand to follow)
            right = right_fn(evaluator, env)
            if int_op is not None and type(right) is AtomicValue \
                    and type(right.value) is int \
                    and (any_sign or left.value >= 0 < right.value):
                return AtomicValue(int_op(left.value, right.value), "xs:integer")
            left = left.value
        else:
            left = _number(left, op)
            right = right_fn(evaluator, env)
        right = _number(right, op)
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
        return number_atom(-value)

    return _from_lane(atom)


def _c_Comparison(node: ast.Comparison) -> RowFn:
    left_fn, right_fn = atomfn(node.left), atomfn(node.right)
    op, general = node.op, node.general
    compare = _COMPARISON.get(op)

    def atom(evaluator, env):
        left = left_fn(evaluator, env)
        right = right_fn(evaluator, env)
        if type(left) is AtomicValue and type(right) is AtomicValue:
            kind = type(left.value)  # (``type(...) is``: a bool is no int)
            if (kind is int or kind is str) and type(right.value) is kind \
                    and compare is not None:
                return _TRUE if compare(left.value, right.value) else _FALSE
        if left is None or right is None:
            return _FALSE if general else None
        if type(left) is not MANY and type(right) is not MANY:
            if general:
                left, right = _coerce(left, right), _coerce(right, left)
            return _TRUE if compare_atomics(op, left, right) else _FALSE
        if not general:
            raise DynamicError("value comparison over multi-item sequence")
        result = any(
            compare_atomics(op, _coerce(a, b), _coerce(b, a))
            for a in (left if type(left) is MANY else (left,))
            for b in (right if type(right) is MANY else (right,))
        )
        return _TRUE if result else _FALSE

    return _from_lane(atom)


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
    then_fn, else_fn = rowfn(node.then_branch), rowfn(node.else_branch)

    def call(evaluator, env):
        if condition_fn(evaluator, env):
            return then_fn(evaluator, env)
        return else_fn(evaluator, env)

    return call


def _c_Quantified(node: ast.Quantified) -> RowFn:
    """``some``/``every``: sequences bind left to right, each item in its
    own copy of the environment, and the first deciding item ends the scan."""
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
#: plan operators: an access to a source, whatever their operands compute
_SOURCE_OPERATORS = frozenset({"PushedSQL", "SourceCall"})


def _c_FLWOR(node: ast.FLWOR) -> RowFn:
    """A FLWOR inside a row expression runs on the eager driver when it —
    and every FLWOR nested in it — is made only of ``for``/``let``/
    ``where`` over sequences already in memory.  A source access, a
    service-quality call or a user function (cache, spans) anywhere under
    it has effects whose timing the lazy driver's pull order decides, so
    such a FLWOR is a closure over the lazy driver."""
    from .batchexec import flwor_rowfn  # function-level: it imports this module

    builtins = all_builtins()
    for sub in node.walk():
        if isinstance(sub, ast.FLWOR):
            if not all(type(clause) in _ROW_CLAUSES
                       and clause.scatter_group is None
                       for clause in sub.clauses):
                return _streamed(node)
        elif type(sub).__name__ in _SOURCE_OPERATORS:
            return _streamed(node)
        elif isinstance(sub, ast.FunctionCall) and (
                sub.name in _SPECIAL_CALLS or sub.name not in builtins):
            return _streamed(node)
    return flwor_rowfn(node)


def _c_PathExpr(node: ast.PathExpr) -> RowFn:
    base_fn = rowfn(node.base)
    step_fns = [_c_step(step) for step in node.steps]

    def call(evaluator, env):
        current = base_fn(evaluator, env)
        for step_fn in step_fns:
            current = step_fn(evaluator, env, current)
        return current

    last = node.steps[-1] if node.steps else None
    if last is not None and _plain_child(last):
        call.atom = _child_lane(base_fn, step_fns[:-1], step_fns[-1], last.test.name)
    return call


def _plain_child(step: ast.Step) -> bool:
    """``child::NAME``: no predicate, no wildcard."""
    return (step.axis == "child" and isinstance(step.test, ast.NameTest)
            and step.test.name != "*" and not step.predicates)


def _child_lane(base_fn: RowFn, inner_fns: list, step_fn: Callable, name: str) -> RowFn:
    """The atom lane of a path whose last step is ``child::NAME``.  An
    unread row-backed element whose template names the only sources of a
    ``NAME`` child answers from its row: a column per source, NULL an
    absent child, each typed by ``leaf_atom`` — what atomizing its built
    child would give.  Any other node takes the step and atomizes the
    children it finds, in the same loop, so a mixed sequence keeps its
    order; a sequence holding a non-node takes the list form whole, whose
    step error comes before any atomization error."""

    def atom(evaluator, env):
        items = base_fn(evaluator, env)
        for inner_fn in inner_fns:
            items = inner_fn(evaluator, env, items)
        for item in items:
            if not isinstance(item, Node):
                return _one_atom(step_fn(evaluator, env, items))
        atoms = []
        for item in items:
            # (read once: another reader may be building its tree)
            source = item._source if type(item) is DeferredElement else None
            slots = None if source is None else source[0].children.get(name)
            if slots is None:
                atoms.extend(atomize(step_fn(evaluator, env, [item])))
                continue
            row = source[1]
            for alias, type_name in slots:
                value = row.get(alias)
                if value is not None:
                    atoms.append(leaf_atom(lexical(value), type_name))
        if len(atoms) == 1:
            return atoms[0]
        return MANY(atoms) if atoms else None

    return atom


def _c_step(step: ast.Step):
    predicates = [_predicate(predicate) for predicate in step.predicates]
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
        # a predicate filters each context node's axis result: its
        # position and last() count within that node's step, not the
        # whole path's
        results = []
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError("path step applied to an atomic value")
            selected = _axis(item, step)
            for keep in predicates:
                selected = keep(evaluator, env, selected)
            results.extend(selected)
        return results

    return generic


def _predicate(predicate: ast.AstNode) -> Callable:
    """``(evaluator, env, items) -> the items the predicate keeps``: each
    item in turn is the focus (``.``, ``fn:position()``, ``fn:last()``); a
    numeric predicate value selects by position, any other by its
    effective boolean value."""
    value_fn = rowfn(predicate)

    def keep(evaluator, env, items):
        kept = []
        size = AtomicValue(len(items), "xs:integer")
        for position, item in enumerate(items, start=1):
            inner = dict(env)
            inner["."] = [item]
            inner["#position"] = AtomicValue(position, "xs:integer")
            inner["#last"] = size
            value = value_fn(evaluator, inner)
            if len(value) == 1 and isinstance(value[0], AtomicValue) and \
                    isinstance(value[0].value, (int, float)) and \
                    not isinstance(value[0].value, bool):
                if value[0].value == position:
                    kept.append(item)
            elif effective_boolean_value(value):
                kept.append(item)
        return kept

    return keep


def _c_FilterExpr(node: ast.FilterExpr) -> RowFn:
    base_fn = rowfn(node.base)
    predicates = [_predicate(predicate) for predicate in node.predicates]

    def call(evaluator, env):
        items = base_fn(evaluator, env)
        for keep in predicates:
            items = keep(evaluator, env, items)
        return items

    return call


def _c_AttributeCtor(node: ast.AttributeCtor) -> RowFn:
    value_fn = rowfn(node.value)
    qname, optional = QName(node.name), node.optional

    def call(evaluator, env):
        atoms = atomize(value_fn(evaluator, env))
        if not atoms and optional:
            return []
        text = " ".join(a.string_value() for a in atoms)
        type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
        return [AttributeNode(qname, AtomicValue(text, type_name))]

    return call


def _c_ElementCtor(node: ast.ElementCtor) -> RowFn:
    attr_specs = [(QName(attr.name), attr.optional, rowfn(attr.value))
                  for attr in node.attributes]
    content_fn = _parts(node.content)
    name, optional = node.name, node.optional

    # ``content``: the content already evaluated, when the constructor
    # wraps a sibling ``fn-bea:async`` that ``_parts`` overlapped
    def call(evaluator, env, content=None):
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
        if content is None:
            content = content_fn(evaluator, env)
        element = construct_element_content(name, attributes, content)
        if optional and not element.children():
            # Residual optional constructors (outside normalized pipelines).
            return []
        return [element]

    return call


#: service-quality function -> the ``Evaluator`` effect that runs it
_SPECIAL_CALLS = {"fn-bea:async": "async_call", "fn-bea:fail-over": "fail_over",
                  "fn-bea:timeout": "timeout"}


def _c_FunctionCall(node: ast.FunctionCall) -> RowFn:
    name = node.name
    builtin = all_builtins().get(name)
    if builtin is not None and not builtin.min_args <= len(node.args) <= builtin.max_args:
        return _raises(DynamicError, f"{name}: wrong number of arguments")
    if name in ("fn:position", "fn:last"):
        key = "#position" if name == "fn:position" else "#last"

        def focus(evaluator, env):
            if key not in env:
                raise DynamicError(f"{name}() used outside a predicate focus")
            return [env[key]]

        return focus
    if name == "fn:data" and len(node.args) == 1:
        return _from_lane(atomfn(node.args[0]))  # atomization is the lane
    if builtin is not None and builtin.scalar is not None:
        # a scalar builtin is lane-native: its body, over the arguments'
        # atoms — all evaluated, then the first with two or more rejected
        scalar, atom_fns = builtin.scalar, [atomfn(arg) for arg in node.args]
        many = f"{name}: sequence of more than one item"

        def atom(evaluator, env):
            atoms = [fn(evaluator, env) for fn in atom_fns]
            if MANY in map(type, atoms):
                raise DynamicError(many)
            return scalar(*atoms)

        return _from_lane(atom)
    arg_fns = [rowfn(arg) for arg in node.args]
    if name in _SPECIAL_CALLS:
        # service-quality calls: each operand is a thunk, run — or not —
        # by the effect, which owns the span and the branch accounting
        effect = _SPECIAL_CALLS[name]

        def special(evaluator, env):
            return getattr(evaluator, effect)(
                node, *[lambda fn=fn: fn(evaluator, env) for fn in arg_fns])

        return special
    if builtin is None:  # a user function the optimizer left as a call
        return lambda evaluator, env: evaluator.call_user_function(
            node, (fn(evaluator, env) for fn in arg_fns))
    evaluator_fn = builtin.evaluator
    if len(arg_fns) == 1:
        arg0 = arg_fns[0]
        return lambda evaluator, env: evaluator_fn(arg0(evaluator, env))

    def call(evaluator, env):
        return evaluator_fn(*[fn(evaluator, env) for fn in arg_fns])

    return call


def _c_SourceCall(node) -> RowFn:
    arg_fns = [rowfn(arg) for arg in node.args]
    return lambda evaluator, env: evaluator.call_source(
        node, (fn(evaluator, env) for fn in arg_fns))


def _c_CastExpr(node: ast.CastExpr) -> RowFn:
    operand_fn, target, kind = rowfn(node.operand), node.target, node.kind
    if kind == "instance":
        return _from_lane(lambda evaluator, env: _TRUE if value_matches(
            operand_fn(evaluator, env), target) else _FALSE)
    if kind == "treat":
        return _matching(operand_fn, target, DynamicError,
                         f"treat as {target.show()}: value does not match")

    def cast(value):
        atom = _one_atom(value)
        if atom is None:
            if target.allows_empty():
                return None
            raise DynamicError("cast of empty sequence to non-optional type")
        if type(atom) is MANY:
            raise DynamicError("cast of multi-item sequence")
        return _convert_atomic(atom, getattr(target.alternatives[0], "name", "xs:string"))

    if kind == "cast":
        return _from_lane(lambda evaluator, env: cast(operand_fn(evaluator, env)))

    def castable(evaluator, env):
        value = operand_fn(evaluator, env)  # an error in the operand is not the cast's
        try:
            cast(value)
        except DynamicError:
            return _FALSE
        return _TRUE

    return _from_lane(castable)


def _matching(operand_fn: RowFn, target, error: type, message: str) -> RowFn:
    """``treat as`` and the compiler's ``typematch`` (section 4.1): the
    operand's value, which must match ``target``."""

    def call(evaluator, env):
        value = operand_fn(evaluator, env)
        if not value_matches(value, target):
            raise error(message)
        return value

    return call


def _c_TypeMatch(node: ast.TypeMatch) -> RowFn:
    return _matching(
        rowfn(node.operand), node.target, TypeMatchError,
        f"runtime type check failed: value does not match {node.target.show()}")


def _c_TypeswitchExpr(node: ast.TypeswitchExpr) -> RowFn:
    operand_fn = rowfn(node.operand)
    cases = [(var, case_type, rowfn(expr)) for var, case_type, expr in node.cases]
    default = (node.default_var, None, rowfn(node.default_expr))

    def call(evaluator, env):
        value = operand_fn(evaluator, env)
        var, _type, branch_fn = next(
            (case for case in cases if value_matches(value, case[1])), default)
        inner = dict(env)
        if var is not None:
            inner[var] = value
        return branch_fn(evaluator, inner)

    return call


def _c_ErrorExpr(node: ast.ErrorExpr) -> RowFn:
    return _raises(DynamicError, f"evaluation of erroneous expression: {node.message}")


# Column compilers (the contract is the module docstring's).  They compute
# with the atom lane's operator tables: the lanes cannot disagree on one.

#: the atom types a column gathers from a row -> the Python type of their
#: values (an ``xs:boolean`` column is only ever a comparison's result)
_RAW = {"xs:integer": int, "xs:string": str}


def _k_Literal(node: ast.Literal):
    type_name, value = node.value.type_name, node.value.value
    if type(value) is not _RAW.get(type_name):
        return None
    return lambda evaluator, rows: (type_name, [value] * len(rows))


def _k_VarRef(node: ast.VarRef):
    bound = itemgetter(node.name)

    def column(evaluator, rows):
        try:  # one item per row; a name the rows lack is read by the atom lane
            atoms = [atom for [atom] in map(bound, rows)]
        except (KeyError, ValueError):
            return None
        type_name = atoms[0].type_name if type(atoms[0]) is AtomicValue else None
        raw = _RAW.get(type_name)  # every atom of the first one's type
        values = [atom.value for atom in atoms
                  if type(atom) is AtomicValue and atom.type_name == type_name
                  and type(atom.value) is raw]
        return (type_name, values) if len(values) == len(atoms) else None

    return column


def _k_Arithmetic(node: ast.Arithmetic):
    int_op, any_sign = _INT_ARITHMETIC.get(node.op), node.op != "mod"
    left_fn, right_fn = colfn(node.left), colfn(node.right)
    if int_op is None or left_fn is None or right_fn is None:
        return None

    def column(evaluator, rows):
        left = left_fn(evaluator, rows)
        if left is None or left[0] != "xs:integer":
            return None
        right = right_fn(evaluator, rows)
        if right is None or right[0] != "xs:integer":
            return None
        left, right = left[1], right[1]
        if any_sign or min(left) >= 0 < min(right):
            return "xs:integer", list(map(int_op, left, right))
        return None

    return column


def _k_Comparison(node: ast.Comparison):
    compare = _COMPARISON.get(node.op)
    left_fn, right_fn = colfn(node.left), colfn(node.right)
    if compare is None or left_fn is None or right_fn is None:
        return None

    def column(evaluator, rows):
        left = left_fn(evaluator, rows)
        if left is None or left[0] not in _RAW:
            return None
        right = right_fn(evaluator, rows)
        if right is None or right[0] != left[0]:
            return None
        return "xs:boolean", list(map(compare, left[1], right[1]))

    return column


def _k_FunctionCall(node: ast.FunctionCall):
    if node.name == "fn:data" and len(node.args) == 1:
        return colfn(node.args[0])
    concat = all_builtins()["fn:concat"]
    if node.name != concat.name or not concat.min_args <= len(node.args) <= concat.max_args:
        return None
    arg_fns = [colfn(arg) for arg in node.args]
    if None in arg_fns:
        return None

    def column(evaluator, rows):
        texts = []  # (an ``xs:integer``'s string value is its ``str``)
        for arg_fn in arg_fns:
            arg = arg_fn(evaluator, rows)
            if arg is None or arg[0] not in _RAW:
                return None
            texts.append(arg[1] if arg[0] == "xs:string" else map(str, arg[1]))
        return "xs:string", list(map("".join, zip(*texts)))

    return column


_COLUMNS: dict[str, Callable] = {
    "Literal": _k_Literal,
    "VarRef": _k_VarRef,
    "Arithmetic": _k_Arithmetic,
    "Comparison": _k_Comparison,
    "FunctionCall": _k_FunctionCall,
}


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
    "CastExpr": _c_CastExpr,
    "TypeswitchExpr": _c_TypeswitchExpr,
    "TypeMatch": _c_TypeMatch,
    "ErrorExpr": _c_ErrorExpr,
    "SourceCall": _c_SourceCall,
    "PushedSQL": _streamed,
}
