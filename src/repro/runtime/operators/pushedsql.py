"""Execution of pushed SQL regions and their reconstruction templates.

A :class:`~repro.compiler.algebra.PushedSQL` node is evaluated by binding
its middleware parameters, rendering the select for the target vendor,
shipping it through the JDBC-style connection, and rebuilding XML mid-tier
from the template — per row, or per cluster of rows when the region
contains a regrouped (left outer join / group-scan) shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from ...compiler.algebra import ColumnSlot, GroupSlot, NestedSlot, PushedSQL
from ...errors import DynamicError, SourceError
from ...xml.items import AtomicValue, AttributeNode, ElementNode, Item, TextNode
from ...xml.qname import QName
from ...xquery import ast_nodes as ast
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
    with ctx.tracer.start("pushed-sql", pushed.database,
                          op=getattr(pushed, "op_id", None)) as span:
        try:
            rows = ctx.connection(pushed.database).execute_query(sql, params)
        except SourceError as exc:
            if ctx.resilience.absorb(pushed.database, exc):
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
    cached = getattr(pushed, "_sql_text", None)
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
        size = evaluator.ctx.batch_size
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


def template_fn(template: ast.AstNode) -> TemplateFn:
    """The template compiled to closures, once per template node (memoized
    on the node like ``_sql_text`` on the region; a concurrent first call
    compiles an equivalent closure and the last write wins)."""
    fn = getattr(template, "_template_fn", None)
    if fn is None:
        fn = template._template_fn = _compile_template(template)
    return fn


def _compile_template(template: ast.AstNode) -> TemplateFn:
    if isinstance(template, ColumnSlot):
        return _column_slot(template)
    if isinstance(template, (NestedSlot, GroupSlot)):
        inner = _compile_template(template.template)
        # a nested slot skips the null-extended rows of a left outer join
        probe = template.probe_alias if isinstance(template, NestedSlot) else None

        def members(row, group):
            items: list[Item] = []
            for member in group:
                if probe is None or member.get(probe) is not None:
                    items.extend(inner(member, [member]))
            return items

        return members
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
    from ..evaluate import construct_element_content

    name = QName(template.name)
    attribute_parts = [(QName(attr.name), attr.optional, _compile_template(attr.value))
                       for attr in template.attributes]
    content = _concat([_compile_template(part) for part in template.content])

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
