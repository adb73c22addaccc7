"""XQuery abstract syntax tree.

The same node classes serve as the compiler's internal expression tree
(paper section 3.3, stage 2): the analysis stages annotate nodes in place
with static types, and the optimizer rewrites trees using the generic
traversal support on :class:`AstNode`.  Compiler-only operators (joins,
SQL queries, typematch...) subclass :class:`AstNode` in
:mod:`repro.compiler.algebra`.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, Optional

from ..schema.types import SequenceType
from ..xml.items import AtomicValue
from .lexer import Pragma


#: node-attached memos: closures and text compiled *for one tree*
#: (``rowcompile.rowfn``, ``pushedsql.render_pushed`` / ``template_fn``,
#: ``batchexec._stages``, ``ppk._bucketed_sql``).  A copy never carries
#: them — they would keep evaluating or rendering the original's children
#: after the copy is rewritten.
MEMO_ATTRS = frozenset({"_rowfn", "_sql_text", "_template_fn", "_batch_stages",
                        "_ppk_sql_cache"})


class AstNode:
    """Base class with generic child traversal and functional rewriting.

    Subclasses declare ``_fields``: attribute names that may hold child
    nodes, lists of child nodes, or lists of tuples containing child nodes.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self):
        self.static_type: Optional[SequenceType] = None
        self.line: Optional[int] = None

    # -- traversal ----------------------------------------------------------

    def children(self) -> list["AstNode"]:
        """Direct children, in field order."""
        found: list[AstNode] = []
        for field in self._fields:
            value = getattr(self, field)
            if isinstance(value, AstNode):
                found.append(value)
            elif value:
                _collect_nodes(value, found)
        return found

    def transform_children(self, fn: Callable[["AstNode"], "AstNode"]) -> "AstNode":
        """Return self with each direct child replaced by ``fn(child)``.

        Mutates in place (the compiler owns the tree) and returns self for
        chaining.  A field none of whose children ``fn`` replaced keeps the
        container it had.
        """
        for field in self._fields:
            value = getattr(self, field)
            if isinstance(value, AstNode):
                mapped = fn(value)
            elif value and isinstance(value, (list, tuple)):
                mapped = _map_nodes(value, fn)
            else:
                continue
            if mapped is not value:
                setattr(self, field, mapped)
        return self

    def walk(self) -> Iterator["AstNode"]:
        """Pre-order traversal including self."""
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            children = node.children()
            if children:
                children.reverse()
                stack.extend(children)

    # -- copying --------------------------------------------------------------

    def clone(self, rename: Optional[dict[str, str]] = None) -> "AstNode":
        """A private copy of this tree: the one way to copy a tree.

        Nodes, and the lists and tuples that hold them, are copied; what
        is immutable is *shared* (static types, atomic values, name tests,
        table metadata, strings); every plan stamp (``op_id``,
        ``batch_capable``, scatter groups, cost estimates) is kept; the
        :data:`MEMO_ATTRS` are dropped.  With ``rename``, every variable
        name in the copy — binders and references alike — is replaced as
        the mapping says, in the same pass."""
        new = object.__new__(self.__class__)
        state = new.__dict__
        for key, value in self.__dict__.items():
            if key in MEMO_ATTRS:
                continue
            state[key] = value if value.__class__ in _SHARED_LEAVES \
                else _clone_value(value, rename)
        if rename:
            new.rename_vars(rename)
        return new

    def __deepcopy__(self, memo) -> "AstNode":
        return self.clone()

    def rename_vars(self, mapping: dict[str, str]) -> None:
        """Rename, in place, the variable names *this node* holds (binders
        and references override; children are not visited)."""

    def at(self, line: Optional[int]) -> "AstNode":
        self.line = line
        return self

    def __repr__(self) -> str:
        name = type(self).__name__
        bits = []
        for field in self._fields:
            bits.append(f"{field}={getattr(self, field)!r}")
        for extra in getattr(self, "_attrs", ()):
            bits.append(f"{extra}={getattr(self, extra)!r}")
        return f"{name}({', '.join(bits)})"


def _collect_nodes(value, found: list) -> None:
    if isinstance(value, AstNode):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for entry in value:
            _collect_nodes(entry, found)


def _map_nodes(value, fn: Callable[[AstNode], AstNode]):
    """The list or tuple ``value`` with every node in it replaced by
    ``fn(node)``; the very same object when ``fn`` returned every node
    unchanged."""
    changed = False
    mapped = []
    for entry in value:
        if isinstance(entry, AstNode):
            after = fn(entry)
        elif isinstance(entry, (list, tuple)):
            after = _map_nodes(entry, fn)
        else:
            after = entry
        if after is not entry:
            changed = True
        mapped.append(after)
    if not changed:
        return value
    return mapped if isinstance(value, list) else tuple(mapped)


def _clone_value(value, rename):
    if isinstance(value, AstNode):
        return value.clone(rename)
    kind = value.__class__
    if kind in _SHARED_LEAVES:
        return value
    if kind is list:
        return [_clone_value(entry, rename) for entry in value]
    if kind is tuple:
        return tuple(_clone_value(entry, rename) for entry in value)
    # anything else a node holds (a pushed region's SQL AST, its
    # correlation record) is copied the general way; classes that are
    # read-only after construction answer ``__deepcopy__`` with themselves
    return copy.deepcopy(value)


# ---------------------------------------------------------------------------
# Primary expressions
# ---------------------------------------------------------------------------


class Literal(AstNode):
    _attrs = ("value",)

    def __init__(self, value: AtomicValue):
        super().__init__()
        self.value = value


class EmptySequence(AstNode):
    """The literal ``()``."""


class VarRef(AstNode):
    _attrs = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def rename_vars(self, mapping):
        self.name = mapping.get(self.name, self.name)


class ContextItem(AstNode):
    """The ``.`` expression (only valid inside predicates here)."""


class SequenceExpr(AstNode):
    """Comma operator: sequence concatenation."""

    _fields = ("items",)

    def __init__(self, items: list[AstNode]):
        super().__init__()
        self.items = items


class RangeTo(AstNode):
    _fields = ("start", "end")

    def __init__(self, start: AstNode, end: AstNode):
        super().__init__()
        self.start = start
        self.end = end


class Arithmetic(AstNode):
    _fields = ("left", "right")
    _attrs = ("op",)

    def __init__(self, op: str, left: AstNode, right: AstNode):
        super().__init__()
        self.op = op  # + - * div idiv mod
        self.left = left
        self.right = right


class UnaryMinus(AstNode):
    _fields = ("operand",)

    def __init__(self, operand: AstNode):
        super().__init__()
        self.operand = operand


class Comparison(AstNode):
    """Value (`eq`...) or general (`=`...) comparison.

    ``general`` comparisons have existential semantics over sequences.
    """

    _fields = ("left", "right")
    _attrs = ("op", "general")

    def __init__(self, op: str, left: AstNode, right: AstNode, general: bool):
        super().__init__()
        self.op = op  # normalized: eq ne lt le gt ge
        self.left = left
        self.right = right
        self.general = general


class AndExpr(AstNode):
    _fields = ("left", "right")

    def __init__(self, left: AstNode, right: AstNode):
        super().__init__()
        self.left = left
        self.right = right


class OrExpr(AstNode):
    _fields = ("left", "right")

    def __init__(self, left: AstNode, right: AstNode):
        super().__init__()
        self.left = left
        self.right = right


class IfExpr(AstNode):
    _fields = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: AstNode, then_branch: AstNode, else_branch: AstNode):
        super().__init__()
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch


class Quantified(AstNode):
    """``some``/``every`` ``$v in expr (, ...) satisfies expr``."""

    _fields = ("bindings", "satisfies")
    _attrs = ("kind",)

    def __init__(self, kind: str, bindings: list[tuple[str, AstNode]], satisfies: AstNode):
        super().__init__()
        self.kind = kind  # "some" | "every"
        self.bindings = bindings
        self.satisfies = satisfies

    def rename_vars(self, mapping):
        self.bindings = [(mapping.get(var, var), expr) for var, expr in self.bindings]


class FunctionCall(AstNode):
    _fields = ("args",)
    _attrs = ("name",)

    def __init__(self, name: str, args: list[AstNode]):
        super().__init__()
        self.name = name  # normalized lexical name, e.g. "fn:count"
        self.args = args


class CastExpr(AstNode):
    """``cast as`` / ``castable as`` / ``treat as`` / ``instance of``."""

    _fields = ("operand",)
    _attrs = ("kind", "target")

    def __init__(self, kind: str, operand: AstNode, target: SequenceType):
        super().__init__()
        self.kind = kind  # "cast" | "castable" | "treat" | "instance"
        self.operand = operand
        self.target = target


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class NameTest:
    def __init__(self, name: str):
        self.name = name  # local name or "*"

    def __repr__(self) -> str:
        return f"NameTest({self.name})"


class KindTest:
    def __init__(self, kind: str):
        self.kind = kind  # "node" | "text" | "element" | "attribute"

    def __repr__(self) -> str:
        return f"KindTest({self.kind}())"


#: what :meth:`AstNode.clone` shares between a tree and its copy: values
#: nothing mutates once a node holds them
_SHARED_LEAVES = frozenset({str, int, float, bool, type(None), SequenceType,
                            AtomicValue, NameTest, KindTest})


class Step(AstNode):
    _fields = ("predicates",)
    _attrs = ("axis", "test")

    def __init__(self, axis: str, test, predicates: list[AstNode] | None = None):
        super().__init__()
        self.axis = axis  # "child" | "attribute" | "descendant" | "self"
        self.test = test
        self.predicates = predicates or []


class PathExpr(AstNode):
    """``base/step/step...`` — ``base`` is any expression."""

    _fields = ("base", "steps")

    def __init__(self, base: AstNode, steps: list[Step]):
        super().__init__()
        self.base = base
        self.steps = steps


class FilterExpr(AstNode):
    """A primary expression with predicates: ``expr[pred]...``."""

    _fields = ("base", "predicates")

    def __init__(self, base: AstNode, predicates: list[AstNode]):
        super().__init__()
        self.base = base
        self.predicates = predicates


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


class AttributeCtor(AstNode):
    """Attribute in a direct constructor; ``optional`` is ALDSP's ``?``."""

    _fields = ("value",)
    _attrs = ("name", "optional")

    def __init__(self, name: str, value: AstNode, optional: bool = False):
        super().__init__()
        self.name = name
        self.value = value
        self.optional = optional


class ElementCtor(AstNode):
    """Direct element constructor; ``optional`` is ALDSP's ``<E?>`` (3.1)."""

    _fields = ("attributes", "content")
    _attrs = ("name", "optional")

    def __init__(
        self,
        name: str,
        attributes: list[AttributeCtor],
        content: list[AstNode],
        optional: bool = False,
    ):
        super().__init__()
        self.name = name
        self.attributes = attributes
        self.content = content
        self.optional = optional


# ---------------------------------------------------------------------------
# FLWGOR
# ---------------------------------------------------------------------------


class Clause(AstNode):
    """Base class of FLWGOR clauses."""


class ForClause(Clause):
    _fields = ("expr",)
    _attrs = ("var", "pos_var")

    def __init__(self, var: str, expr: AstNode, pos_var: str | None = None,
                 declared_type: SequenceType | None = None):
        super().__init__()
        self.var = var
        self.pos_var = pos_var
        self.expr = expr
        self.declared_type = declared_type

    def rename_vars(self, mapping):
        self.var = mapping.get(self.var, self.var)
        if self.pos_var:
            self.pos_var = mapping.get(self.pos_var, self.pos_var)


class LetClause(Clause):
    _fields = ("expr",)
    _attrs = ("var",)

    def __init__(self, var: str, expr: AstNode, declared_type: SequenceType | None = None):
        super().__init__()
        self.var = var
        self.expr = expr
        self.declared_type = declared_type

    def rename_vars(self, mapping):
        self.var = mapping.get(self.var, self.var)


class WhereClause(Clause):
    _fields = ("condition",)

    def __init__(self, condition: AstNode):
        super().__init__()
        self.condition = condition


class GroupByClause(Clause):
    """ALDSP's FLWGOR grouping clause (section 3.1).

    ``group $v1 as $v2, ... by expr as $v3, ...`` — after the clause the
    binding tuple contains the ``as`` variables only: each grouped variable
    becomes the sequence of its values within the group, each key variable
    the (single) key value.
    """

    _fields = ("keys",)
    _attrs = ("grouped",)

    def __init__(self, grouped: list[tuple[str, str]], keys: list[tuple[AstNode, str]]):
        super().__init__()
        self.grouped = grouped  # (source var, result var)
        self.keys = keys  # (key expr, result var)

    def children(self) -> list[AstNode]:
        return [expr for expr, _var in self.keys]

    def transform_children(self, fn):
        self.keys = _map_nodes(self.keys, fn)
        return self

    def rename_vars(self, mapping):
        self.grouped = [(mapping.get(source, source), mapping.get(target, target))
                        for source, target in self.grouped]
        self.keys = [(expr, mapping.get(var, var)) for expr, var in self.keys]


class OrderSpec(AstNode):
    _fields = ("key",)
    _attrs = ("descending", "empty_greatest")

    def __init__(self, key: AstNode, descending: bool = False, empty_greatest: bool = False):
        super().__init__()
        self.key = key
        self.descending = descending
        self.empty_greatest = empty_greatest


class OrderByClause(Clause):
    _fields = ("specs",)

    def __init__(self, specs: list[OrderSpec]):
        super().__init__()
        self.specs = specs


class FLWOR(AstNode):
    """The extended FLWGOR expression."""

    _fields = ("clauses", "return_expr")

    def __init__(self, clauses: list[Clause], return_expr: AstNode):
        super().__init__()
        self.clauses = clauses
        self.return_expr = return_expr


class TypeswitchExpr(AstNode):
    """``typeswitch (operand) case ($v as)? T return e ... default ($v)?
    return e`` — never pushable (section 4.4), evaluated mid-tier."""

    _fields = ("operand", "default_expr")
    _attrs = ("default_var",)

    def __init__(self, operand: AstNode,
                 cases: list[tuple[Optional[str], SequenceType, AstNode]],
                 default_var: Optional[str], default_expr: AstNode):
        super().__init__()
        self.operand = operand
        self.cases = cases
        self.default_var = default_var
        self.default_expr = default_expr

    def children(self) -> list[AstNode]:
        return [self.operand, *(expr for _var, _st, expr in self.cases),
                self.default_expr]

    def transform_children(self, fn):
        self.operand = fn(self.operand)
        self.cases = _map_nodes(self.cases, fn)
        self.default_expr = fn(self.default_expr)
        return self


class TypeMatch(AstNode):
    """Runtime type check inserted by optimistic static typing (section 4.1).

    Wraps an argument whose static type merely *intersects* the expected
    parameter type; raises :class:`~repro.errors.TypeMatchError` at runtime
    if the value does not match ``target``.
    """

    _fields = ("operand",)
    _attrs = ("target",)

    def __init__(self, operand: AstNode, target: SequenceType):
        super().__init__()
        self.operand = operand
        self.target = target


# ---------------------------------------------------------------------------
# Error recovery (section 4.1)
# ---------------------------------------------------------------------------


class ErrorExpr(AstNode):
    """Placeholder substituted for an erroneous expression in design mode.

    Keeps the offending expression's inputs so the editor can still analyze
    them; evaluating it raises.
    """

    _fields = ("inputs",)
    _attrs = ("message",)

    def __init__(self, message: str, inputs: list[AstNode] | None = None):
        super().__init__()
        self.message = message
        self.inputs = inputs or []


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


class Param:
    def __init__(self, name: str, declared_type: SequenceType | None):
        self.name = name
        self.declared_type = declared_type

    def __repr__(self) -> str:
        return f"Param(${self.name} as {self.declared_type})"


class FunctionDecl:
    """A declared XQuery function (one data-service method, section 2.1)."""

    def __init__(
        self,
        name: str,
        params: list[Param],
        return_type: SequenceType | None,
        body: AstNode | None,
        pragmas: list[Pragma],
        external: bool = False,
    ):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.pragmas = pragmas
        self.external = external
        #: populated by analysis: inferred type of the body
        self.inferred_type: SequenceType | None = None
        #: analysis errors attached in design mode
        self.errors: list[str] = []

    @property
    def kind(self) -> str:
        """The data-service method kind from the pragma: read/navigate/..."""
        for pragma in self.pragmas:
            if pragma.kind == "function" and "kind" in pragma.attributes:
                return pragma.attributes["kind"]
        return ""

    def arity(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        return f"FunctionDecl({self.name}#{self.arity()})"


class VariableDecl:
    def __init__(self, name: str, declared_type: SequenceType | None,
                 value: AstNode | None, external: bool):
        self.name = name
        self.declared_type = declared_type
        self.value = value
        self.external = external


class Module:
    """A parsed XQuery module (a data-service file or an ad hoc query)."""

    def __init__(self):
        self.namespaces: dict[str, str] = {}
        self.schema_imports: list[str] = []
        self.functions: dict[tuple[str, int], FunctionDecl] = {}
        self.variables: dict[str, VariableDecl] = {}
        self.query_body: AstNode | None = None
        self.pragmas: list[Pragma] = []
        #: prolog-level errors recovered from in design mode
        self.errors: list[str] = []

    def declare_function(self, decl: FunctionDecl) -> None:
        self.functions[(decl.name, decl.arity())] = decl

    def function(self, name: str, arity: int) -> FunctionDecl | None:
        return self.functions.get((name, arity))


def local_name(lexical: str) -> str:
    """Strip the prefix from a lexical QName."""
    return lexical.split(":")[-1]
