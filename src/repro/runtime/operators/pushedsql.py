"""Execution of pushed SQL regions and their reconstruction templates.

A :class:`~repro.compiler.algebra.PushedSQL` node is evaluated by binding
its middleware parameters, rendering the select for the target vendor,
shipping it through the JDBC-style connection, and rebuilding XML mid-tier
from the template — per row, or per cluster of rows when the region
contains a regrouped (left outer join / group-scan) shape.  A template is
compiled twice, to a builder of trees and to a writer of their text; which
one runs for an element is decided by whether anything reads it (DESIGN.md
"Deferred content").  It is analysed once, too: every element it yields is
row-backed (a :class:`~repro.xml.items.DeferredElement`) at any depth, and
knows which of its row's columns are the only source of a child of a given
name, so a child step that is atomized reads the column, not a tree
(``rowcompile._child_lane``).  :func:`record_fn` is the same machinery for
a flat record, which is how a table scan and a delimited file build theirs.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from ...compiler.algebra import ColumnSlot, GroupSlot, NestedSlot, PushedSQL
from ...errors import DynamicError, SourceError
from ...xml.items import (
    AtomicValue,
    AttributeNode,
    DeferredElement,
    ElementNode,
    Item,
    TextNode,
    lexical,
)
from ...xml.qname import QName
from ...xml.serialize import escape_attribute, escape_text
from ...xquery import ast_nodes as ast
from ..kernels import construct_element_content
from ..operators.group import clustered_groups
from ..rowcompile import MANY, atomfn

if TYPE_CHECKING:
    from ..evaluate import Evaluator


def execute_pushed(pushed: PushedSQL, env: dict, evaluator: "Evaluator") -> Iterator[Item]:
    """Evaluate a pushed region (no PP-k correlation) lazily."""
    from ...sql.ast_nodes import param_order

    ctx = evaluator.ctx
    values = bind_parameters(pushed, env, evaluator)
    params = [values[i] for i in param_order(pushed.select)]
    sql = render_pushed(pushed, evaluator)
    # The span covers the source fetch; XML rebuild streams to the
    # consumer afterwards (the region's own work is the shipped query).
    with ctx.tracer.start("pushed-sql", pushed.database, op=pushed.op_id) as span:
        try:
            rows = ctx.connection(pushed.database).execute_query(sql, params)
        except SourceError as exc:
            if ctx.absorb(pushed.database, exc):
                span.set(degraded=True)
                return  # degraded: the region contributes no items
            raise
        span.set(rows=len(rows))
    ctx.stats.bump(pushed_queries=1)
    yield from rebuild(pushed, rows, evaluator)


def bind_parameters(pushed: PushedSQL, env: dict, evaluator: "Evaluator") -> list:
    """Middleware parameter values in creation-index order (reorder with
    :func:`repro.sql.ast_nodes.param_order` before shipping)."""
    params = []
    for expr in pushed.param_exprs:
        atom = atomfn(expr)(evaluator, env)
        if type(atom) is MANY:
            raise DynamicError("SQL parameter bound to a multi-item sequence")
        params.append(None if atom is None else atom.value)
    return params


def render_pushed(pushed: PushedSQL, evaluator: "Evaluator") -> str:
    """Render (and memoize) the SQL text for the region's vendor."""
    cached = pushed._sql_text
    if cached is not None:
        return cached
    text = evaluator.ctx.renderer(pushed.vendor).render(pushed.select)
    pushed._sql_text = text
    return text


def rebuild(pushed: PushedSQL, rows: list[dict], evaluator: "Evaluator") -> Iterator[Item]:
    """Apply the reconstruction template to the fetched rows."""
    build = template_fn(pushed.template)
    if pushed.regroup is None:
        # Rebuild a batch of rows per pull into one flat item list: one
        # generator resumption per batch instead of per row.
        size = evaluator.ctx.config.batch_size
        for start in range(0, len(rows), size):
            items: list[Item] = []
            for row in rows[start:start + size]:
                items.extend(build(row, [row]))
            yield from items
        return
    keys = pushed.regroup
    for _key, group in clustered_groups(rows, lambda r: tuple(r[a] for a in keys)):
        yield from build(group[0], group)


#: a compiled reconstruction template: (row, rows of its group) -> items
TemplateFn = Callable[[dict, list[dict]], list[Item]]
#: its other rendering: (row, group, append) appends, as text fragments,
#: exactly ``serialize(build(row, group))`` for ``indent`` None
WriterFn = Callable[[dict, list[dict], Callable[[str], None]], None]


def template_fn(template: ast.AstNode) -> TemplateFn:
    """The template compiled to closures, once per template node (memoized
    on the node like ``_sql_text`` on the region; a concurrent first call
    compiles an equivalent closure and the last write wins).  An element of
    a result is a :class:`DeferredElement`, and so is every element child
    of one once it is read."""
    fn = template._template_fn
    if fn is None:
        fn = template._template_fn = _deferring(template)
    return fn


@functools.lru_cache(maxsize=256)
def record_fn(name: str, fields: tuple[tuple[str, str, str], ...]) -> TemplateFn:
    """The template of a flat record: ``<name>`` holding, in order, one
    typed leaf per field ``(alias, xs type, element name)`` whose column is
    not NULL — a table scan's row and a delimited file's line, row-backed
    like a pushed region's (compiled once per record shape: a table's
    columns, a file's fields)."""
    return template_fn(ast.ElementCtor(name, [], [ColumnSlot(*field) for field in fields]))


class _Deferred(NamedTuple):
    """What a deferred element keeps of its template, analysed once when
    the template is compiled: its name, the builder of its tree (whose
    element children are deferred in turn), the writer of its text, every
    element path the tree can hold (local names from the element itself
    down), and what a child step can read from the row instead of the
    tree — ``leaf``, a column leaf's ``(alias, xs type)``, and
    ``children``, each child local name mapped to the column leaves that
    are its only source (each leaf's own ``_Deferred``, in template
    order: what the child lane reads and the leaves a step hands out)."""

    name: QName
    build: TemplateFn
    write: WriterFn
    paths: frozenset
    leaf: tuple[str, str] | None
    children: dict[str, tuple["_Deferred", ...]]


def _deferring(template: ast.AstNode) -> TemplateFn:
    """The template's builder, with every element of a result left
    deferred; atoms and literals are built as they are."""
    if isinstance(template, (NestedSlot, GroupSlot)):
        return _members(template, _deferring(template.template))
    if isinstance(template, ast.SequenceExpr):
        return _concat([_deferring(part) for part in template.items])
    if isinstance(template, ColumnSlot) and template.element_name is not None:
        deferred = _leaf(template)
        alias = template.alias
    elif isinstance(template, ast.ElementCtor):
        pieces = _content([template])
        if pieces is None:
            return _element_ctor(template)  # an element only its tree can render
        deferred = _Deferred(QName(template.name), _element_ctor(template), _run(pieces),
                             frozenset(_paths(template, ())), None,
                             _child_columns(template.content))
        alias = None
    else:
        return _compile_template(template)
    qname = deferred.name

    def element(row, group):
        if alias is not None and row.get(alias) is None:
            return []
        return [DeferredElement(qname, (deferred, row, group))]

    return element


def _leaf(slot: ColumnSlot) -> _Deferred:
    """A column leaf's analysis, made once per slot (memoized on it like
    ``_template_fn``): its parent's builder and its parent's ``children``
    hold the same one."""
    deferred = slot._leaf
    if deferred is None:
        deferred = slot._leaf = _Deferred(
            QName(slot.element_name), _column_slot(slot), _run(_content([slot])),
            frozenset(_paths(slot, ())), (slot.alias, slot.xs_type), {})
    return deferred


def _child_columns(parts: list[ast.AstNode]) -> dict[str, tuple[_Deferred, ...]]:
    """A constructor's content: each child local name whose only possible
    source is column leaves, mapped to those leaves in template order.  A
    name another part can also yield — a nested constructor, a slot's
    member — is left out, and a part the analysis cannot name leaves out
    every name."""
    columns: dict[str, list[_Deferred]] = {}
    others: set[str] = set()
    for part in _flat(parts):
        if isinstance(part, ColumnSlot):
            if part.element_name is not None:
                columns.setdefault(QName(part.element_name).local, []).append(_leaf(part))
        elif isinstance(part, (ast.ElementCtor, NestedSlot, GroupSlot)):
            others.update(path[0] for path in _paths(part, ()))
        elif not isinstance(part, ast.Literal):
            return {}
    return {name: tuple(slots) for name, slots in columns.items() if name not in others}


def _members(slot: NestedSlot | GroupSlot, inner: TemplateFn) -> TemplateFn:
    # a nested slot skips the null-extended rows of a left outer join
    probe = slot.probe_alias if isinstance(slot, NestedSlot) else None

    def members(row, group):
        items: list[Item] = []
        for member in group:
            if probe is None or member.get(probe) is not None:
                items.extend(inner(member, [member]))
        return items

    return members


def _compile_template(template: ast.AstNode) -> TemplateFn:
    """The template's builder with the elements of a result built, and
    everything below them deferred: what a deferred element's first read
    runs."""
    if isinstance(template, ColumnSlot):
        return _column_slot(template)
    if isinstance(template, (NestedSlot, GroupSlot)):
        return _members(template, _compile_template(template.template))
    if isinstance(template, ast.Literal):
        value = template.value
        return lambda row, group: [value]
    if isinstance(template, ast.EmptySequence):
        return lambda row, group: []
    if isinstance(template, ast.SequenceExpr):
        return _concat([_compile_template(part) for part in template.items])
    if isinstance(template, ast.ElementCtor):
        return _element_ctor(template)
    raise DynamicError(f"unexpected template node {type(template).__name__}")


def _concat(parts: list[TemplateFn]) -> TemplateFn:
    if len(parts) == 1:
        return parts[0]

    def concat(row, group):
        items: list[Item] = []
        for part in parts:
            items.extend(part(row, group))
        return items

    return concat


def _column_slot(slot: ColumnSlot) -> TemplateFn:
    alias, xs_type = slot.alias, slot.xs_type
    if slot.element_name is None:
        def atom(row, group):
            value = row.get(alias)
            # NULLs are missing elements/values (section 4.4)
            return [] if value is None else [AtomicValue(value, xs_type)]

        return atom
    name = QName(slot.element_name)

    def element(row, group):
        value = row.get(alias)
        if value is None:
            return []
        node = ElementNode(name, type_annotation=xs_type)
        node.add_child(TextNode(AtomicValue(value, xs_type).string_value()))
        return [node]

    return element


def _element_ctor(template: ast.ElementCtor) -> TemplateFn:
    from ...xquery.functions import atomize

    name = QName(template.name)
    attribute_parts = [(QName(attr.name), attr.optional, _compile_template(attr.value))
                       for attr in template.attributes]
    content = _concat([_deferring(part) for part in template.content])

    def element(row, group):
        attributes = []
        for attr_name, optional, value in attribute_parts:
            values = value(row, group)
            if values:
                atoms = atomize(values)
                text = " ".join(a.string_value() for a in atoms)
                type_name = atoms[0].type_name if len(atoms) == 1 else "xs:string"
                attributes.append(AttributeNode(attr_name, AtomicValue(text, type_name)))
            elif not optional:
                attributes.append(AttributeNode(attr_name, AtomicValue("", "xs:string")))
        # every node the template's closures return was built by that call
        return [construct_element_content(name, attributes, content(row, group), owned=True)]

    return element


# -- the writer: the same templates, rendered as text ------------------------------
#
# A rendering is a list of pieces: static markup is a ``str``, whatever
# depends on the row a ``WriterFn``; ``_run`` joins neighbouring strings once,
# when the template is compiled.  None stands for a template the writer
# does not render: its elements are built eagerly, as they always were.


def _run(pieces: list) -> WriterFn:
    steps: list[tuple[str, WriterFn]] = []
    text = ""
    for piece in pieces:
        if isinstance(piece, str):
            text += piece
        else:
            steps.append((text, piece))
            text = ""
    tail = text

    def write(row, group, append):
        for text, step in steps:
            if text:
                append(text)
            step(row, group, append)
        if tail:
            append(tail)

    return write


def _flat(parts: list[ast.AstNode]) -> Iterator[ast.AstNode]:
    for part in parts:
        if isinstance(part, ast.SequenceExpr):
            yield from _flat(part.items)
        elif not isinstance(part, ast.EmptySequence):
            yield part


def _atoms(parts: list[ast.AstNode]) -> Callable | None:
    """``(row, group) -> lexical forms`` of parts that produce only atoms
    (the builder's combinators over strings); None if one can produce a node."""
    fns = []
    for part in _flat(parts):
        if isinstance(part, ColumnSlot) and part.element_name is None:
            fns.append(_lexical_slot(part.alias))
        elif isinstance(part, ast.Literal):
            fns.append(lambda row, group, text=(part.value.string_value(),): text)
        elif isinstance(part, (NestedSlot, GroupSlot)) \
                and (inner := _atoms([part.template])) is not None:
            fns.append(_members(part, inner))
        else:
            return None
    return _concat(fns)


def _lexical_slot(alias: str) -> Callable:
    def slot(row, group):
        value = row.get(alias)
        return () if value is None else (lexical(value),)

    return slot


def _text(atoms: Callable, escape: Callable, before: str, after: str, absent: str) -> WriterFn:
    """Adjacent atoms make one space-joined text (or attribute value)
    between ``before`` and ``after``; no atom at all writes ``absent``."""
    def text(row, group, append):
        texts = atoms(row, group)
        if texts:
            append(before + escape(" ".join(texts)) + after)
        elif absent:
            append(absent)

    return text


def _content(parts: list[ast.AstNode], repeated: bool = False) -> list | None:
    """The pieces of a constructor's content, or of a slot's member
    template (``repeated``: atoms of one member would merge with the next
    member's, which only the tree path gets right)."""
    pieces: list = []
    run: list[Callable] = []  # adjacent atom-only parts: one text node

    def close_run() -> None:
        if run:
            pieces.append(_text(_concat(run[:]), escape_text, "", "", ""))
            run.clear()

    for part in _flat(parts):
        atoms = _atoms([part])
        if atoms is not None:
            if repeated:
                return None
            run.append(atoms)
            continue
        close_run()
        if isinstance(part, ast.ElementCtor):
            sub = _element(part)
        elif isinstance(part, ColumnSlot):
            tag = QName(part.element_name).lexical
            sub = [_text(_lexical_slot(part.alias), escape_text, f"<{tag}>", f"</{tag}>", "")]
        elif isinstance(part, (NestedSlot, GroupSlot)):
            sub = _content([part.template], repeated=True)
            sub = sub and [_members_writer(part, _run(sub))]
        else:
            sub = None
        if sub is None:
            return None
        pieces += sub
    close_run()
    return pieces


def _members_writer(slot: NestedSlot | GroupSlot, inner: WriterFn) -> WriterFn:
    probe = slot.probe_alias if isinstance(slot, NestedSlot) else None

    def members(row, group, append):
        for member in group:
            if probe is None or member.get(probe) is not None:
                inner(member, [member], append)

    return members


def _element(ctor: ast.ElementCtor) -> list | None:
    tag = QName(ctor.name).lexical
    names = [attr.name for attr in ctor.attributes]
    if len(set(names)) < len(names):
        return None  # the builder raises on a duplicate: the error stays where it was
    head: list = [f"<{tag}"]
    for attr in ctor.attributes:
        atoms = _atoms([attr.value])
        if atoms is None:
            return None
        name = QName(attr.name).lexical
        head.append(_text(atoms, escape_attribute, f' {name}="', '"',
                          "" if attr.optional else f' {name}=""'))
    closing = f"</{tag}>"
    atoms = _atoms(ctor.content)
    if atoms is not None:  # simple content: one text node, or none
        return head + [_text(atoms, escape_text, ">", closing, "/>")]
    pieces = _content(ctor.content)
    if pieces is None:
        return None
    if any(isinstance(part, ast.ElementCtor) for part in _flat(ctor.content)):
        return head + [">", *pieces, closing]  # a constructor is always a child
    inner = _run(pieces)

    def element(row, group, append):
        children: list[str] = []
        inner(row, group, children.append)
        append(">" + "".join(children) + closing if children else "/>")

    return head + [element]


def _paths(template: ast.AstNode, above: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """The path of every element the template can build, as the security
    service spells a resource: local names from the root element down."""
    if isinstance(template, ColumnSlot):
        if template.element_name is not None:
            yield above + (QName(template.element_name).local,)
    elif isinstance(template, (NestedSlot, GroupSlot)):
        yield from _paths(template.template, above)
    elif isinstance(template, ast.SequenceExpr):
        for part in template.items:
            yield from _paths(part, above)
    elif isinstance(template, ast.ElementCtor):
        here = above + (QName(template.name).local,)
        yield here
        for part in template.content:
            yield from _paths(part, here)
