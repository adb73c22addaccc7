"""XQuery abstract syntax tree.

The same node classes serve as the compiler's internal expression tree
(paper section 3.3, stage 2): the analysis stages annotate nodes in place
with static types, and the optimizer rewrites trees using the generic
traversal support on :class:`AstNode`.  Compiler-only operators (joins,
SQL queries, typematch...) subclass :class:`AstNode` in
:mod:`repro.compiler.algebra`.

Every fact a plan node holds is declared on its class, in one of three
kinds: **structure**, set by the constructor (``_fields`` holds children,
``_attrs`` the scalars ``repr`` prints, a bare annotation such as
``vendor: str`` any other); **stamps**, written by a compiler pass (a
public annotated class-level default, ``op_id: Optional[int] = None``);
and **memos**, compiled by the runtime for one tree (any attribute named
``_…``).  Cloning, plan agreement and :meth:`AstNode.every_node` read the
declaration through :func:`structure_of` and :func:`stamps_of`.
"""

from __future__ import annotations

import copy
import functools
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from ..schema.types import SequenceType
from ..xml.items import AtomicValue
from .lexer import Pragma


class AstNode:
    """Base class with generic child traversal and functional rewriting.

    Subclasses declare ``_fields``: attribute names that may hold child
    nodes, lists of child nodes, or lists of tuples containing child nodes.
    """

    _fields: tuple[str, ...] = ()
    _attrs: tuple[str, ...] = ()

    static_type: Optional[SequenceType]
    line: Optional[int]

    #: the operator's id (``explain.assign_operator_ids``)
    op_id: Optional[int] = None

    _rowfn: Optional[Callable] = None  # ``rowcompile.rowfn``
    _template_fn: Optional[Callable] = None  # ``pushedsql.template_fn``

    def __init__(self):
        self.static_type = None
        self.line = None

    # -- traversal ----------------------------------------------------------

    def children(self) -> list["AstNode"]:
        """Direct children, in field order."""
        found: list[AstNode] = []
        for field in self._fields:
            value = getattr(self, field)
            if isinstance(value, AstNode):
                found.append(value)
            elif value:
                _collect_held(value, found)
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

    def every_node(self) -> Iterator["AstNode"]:
        """Pre-order: what :meth:`walk` visits and the nodes held outside
        the children — in a stamp (an index join's PP-k twin) or in other
        structure (a pushed region's correlation key)."""
        stack: list[AstNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            held: list[AstNode] = []
            _collect_held([getattr(node, name) for name in declared(node.__class__)], held)
            stack.extend(reversed(held))

    # -- copying --------------------------------------------------------------

    def clone(self, rename: Optional[dict[str, str]] = None) -> "AstNode":
        """A private copy of this tree: the one way to copy a tree.

        Nodes, and the lists and tuples that hold them, are copied; what
        is immutable is *shared* (static types, atomic values, name tests,
        table metadata, strings); structure and every stamp a node carries
        are kept — a node a stamp holds is copied too — and memos are
        dropped.  With ``rename``, every variable name in the copy —
        binders and references alike — is replaced as the mapping says,
        in the same pass."""
        new = object.__new__(self.__class__)
        state = new.__dict__
        for key, value in self.__dict__.items():
            if key[0] == "_":
                continue  # a memo
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
        bits = [f"{name}={getattr(self, name)!r}"
                for name in (*self._fields, *self._attrs)]
        return f"{type(self).__name__}({', '.join(bits)})"


def _annotated(cls: type) -> list[tuple[str, type]]:
    """(name, declaring class) of every public annotation, bases first."""
    return [(name, klass) for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__annotations__", ()) if name[0] != "_"]


@functools.cache
def structure_of(cls: type) -> tuple[str, ...]:
    """The structure ``cls`` declares: bare annotations, then ``_fields``
    and ``_attrs``."""
    bare = [name for name, klass in _annotated(cls) if name not in vars(klass)]
    return tuple(dict.fromkeys((*bare, *cls._fields, *cls._attrs)))


@functools.cache
def stamps_of(cls: type) -> Mapping[str, object]:
    """The stamps ``cls`` declares, each mapped to the value it reads unset."""
    return MappingProxyType({name: vars(klass)[name] for name, klass in _annotated(cls)
                             if name in vars(klass)})


@functools.cache
def declared(cls: type) -> tuple[str, ...]:
    """Everything ``cls`` declares but its memos: structure, then stamps."""
    return (*structure_of(cls), *stamps_of(cls))


def _collect_held(value, found: list) -> None:
    """The nodes ``value`` holds, in lists, tuples and plain records (a
    region's correlation)."""
    if isinstance(value, AstNode):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for entry in value:
            _collect_held(entry, found)
    elif value.__class__ not in _SHARED_LEAVES and hasattr(value, "__dict__"):
        for entry in vars(value).values():
            _collect_held(entry, found)


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

    #: the parallel fetch group of a let-bound region (``compiler.scatter``)
    scatter_group: Optional[int] = None


class ForClause(Clause):
    _fields = ("expr",)
    _attrs = ("var", "pos_var")

    declared_type: Optional[SequenceType]

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

    declared_type: Optional[SequenceType]

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

    #: the input arrives clustered on the keys (``sql.rewriter``)
    pre_clustered: bool = False

    def __init__(self, grouped: list[tuple[str, str]], keys: list[tuple[AstNode, str]]):
        super().__init__()
        self.grouped = grouped  # (source var, result var)
        self.keys = keys  # (key expr, result var)

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

    #: every clause has a runtime stage (``compiler.batching``)
    batch_capable: Optional[bool] = None

    _batch_stages: Optional[dict] = None  # ``batchexec._stages``

    def __init__(self, clauses: list[Clause], return_expr: AstNode):
        super().__init__()
        self.clauses = clauses
        self.return_expr = return_expr


class TypeswitchExpr(AstNode):
    """``typeswitch (operand) case ($v as)? T return e ... default ($v)?
    return e`` — never pushable (section 4.4), evaluated mid-tier."""

    _fields = ("operand", "cases", "default_expr")
    _attrs = ("default_var",)

    def __init__(self, operand: AstNode,
                 cases: list[tuple[Optional[str], SequenceType, AstNode]],
                 default_var: Optional[str], default_expr: AstNode):
        super().__init__()
        self.operand = operand
        self.cases = cases
        self.default_var = default_var
        self.default_expr = default_expr


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
