"""Value kernels: what an expression's value *is*, apart from who asks.

Element construction, the axes and node tests of a path step, general
comparison's coercion of untyped atoms, ``cast as`` and the order-by sort
key.  Each exists once, here.
The expression compiler (:mod:`repro.runtime.rowcompile`), the FLWOR
runtime, the pushed-region templates and the evaluator's effects call
them, and so does the reference interpreter under ``tests/``, so this
module imports nothing from ``repro.runtime``.
"""

from __future__ import annotations

from ..errors import DynamicError
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
from ..xquery.functions import numeric_value


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


def distinct_nodes(items: list) -> list:
    """``items`` with each node kept at its first occurrence only: a path
    step's context, whose result must hold no node twice (two distinct
    parents have disjoint children).  Anything else is kept as it is."""
    seen: set[int] = set()
    kept = []
    for item in items:
        if isinstance(item, Node):
            if id(item) in seen:
                continue
            seen.add(id(item))
        kept.append(item)
    return kept


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
    if isinstance(step.test, ast.NameTest) and step.test.name != "*":
        return node.children_named(step.test.name)
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
