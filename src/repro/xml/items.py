"""XQuery Data Model items: nodes and typed atomic values.

ALDSP always processes the *typed* data model (section 5.1): every atomic
value and every element carries a type annotation.  Elements constructed by
queries are annotated ``xs:anyType`` at runtime per the XQuery spec, but the
static analyzer retains the structural type of their content (section 3.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..concurrency import RACE, TrackedRLock, guarded_by
from ..errors import DynamicError, XMLError
from .qname import QName

#: Type-annotation name for unvalidated content.
UNTYPED = "xs:untypedAtomic"
ANYTYPE = "xs:anyType"


class Item:
    """Base class for everything that can appear in an XQuery sequence."""

    __slots__ = ()

    def string_value(self) -> str:
        raise NotImplementedError

    def atomize(self) -> "list[AtomicValue]":
        """Implement fn:data() for this item."""
        raise NotImplementedError


def lexical(value) -> str:
    """The lexical form of an atomic value's Python representation."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class AtomicValue(Item):
    """A typed atomic value, e.g. ``42`` as ``xs:integer``.

    ``value`` holds a natural Python representation (int, float, str, bool,
    Decimal, datetime...).  ``type_name`` is a lexical QName such as
    ``xs:integer``; the schema package maps these names onto the atomic type
    hierarchy.
    """

    __slots__ = ("value", "type_name")

    def __init__(self, value, type_name: str = UNTYPED):
        self.value = value
        self.type_name = type_name

    def string_value(self) -> str:
        value = self.value
        return value if type(value) is str else lexical(value)

    def atomize(self) -> "list[AtomicValue]":
        return [self]

    def __repr__(self) -> str:
        return f"AtomicValue({self.value!r}, {self.type_name!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomicValue)
            and self.value == other.value
            and self.type_name == other.type_name
        )

    def __hash__(self) -> int:
        return hash((self.value, self.type_name))


class Node(Item):
    """Base class for XML nodes.  A node's identity is the object's own
    (``is``); its position is its place among its parent's children."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Node | None = None

    def children(self) -> "Sequence[Node]":
        return ()

    def children_named(self, local: str) -> "list[ElementNode]":
        """The child axis with a name test on the local name: what a path
        step ``NAME``, the axis kernel and :meth:`ElementNode.child_elements`
        all ask (a row-backed element answers it without its tree)."""
        return [child for child in self.children()
                if isinstance(child, ElementNode) and child.name.local == local]

    def typed_value(self) -> "list[AtomicValue]":
        raise DynamicError(f"cannot atomize {type(self).__name__}")

    def atomize(self) -> "list[AtomicValue]":
        return self.typed_value()


class TextNode(Node):
    __slots__ = ("content",)

    def __init__(self, content: str):
        super().__init__()
        self.content = content

    def string_value(self) -> str:
        return self.content

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue(self.content, UNTYPED)]

    def __repr__(self) -> str:
        return f"TextNode({self.content!r})"


class AttributeNode(Node):
    """An attribute with a typed value."""

    __slots__ = ("name", "value")

    def __init__(self, name: QName, value: AtomicValue):
        super().__init__()
        self.name = name
        self.value = value

    def string_value(self) -> str:
        return self.value.string_value()

    def typed_value(self) -> list[AtomicValue]:
        return [self.value]

    def __repr__(self) -> str:
        return f"AttributeNode({self.name}, {self.value!r})"


class ElementNode(Node):
    """An element node.

    ``type_annotation`` records the runtime type: for data arriving from
    typed sources (relational rows, validated service results) this is the
    source-derived type name; for constructed elements it is ``xs:anyType``
    (but the *content* keeps its annotations — ALDSP's structural typing).
    """

    __slots__ = ("name", "attributes", "_children", "type_annotation")

    #: set only on a :class:`DeferredElement` nobody has read yet
    _source = None

    def __init__(
        self,
        name: QName,
        attributes: Iterable[AttributeNode] = (),
        children: Iterable[Node] = (),
        type_annotation: str = ANYTYPE,
    ):
        super().__init__()
        self.name = name
        self.attributes: list[AttributeNode] = []
        self._children: list[Node] = []
        self.type_annotation = type_annotation
        for attr in attributes:
            self.add_attribute(attr)
        for child in children:
            self.add_child(child)

    def add_attribute(self, attr: AttributeNode) -> None:
        if any(existing.name.matches(attr.name) for existing in self.attributes):
            raise XMLError(f"duplicate attribute {attr.name}")
        attr.parent = self
        self.attributes.append(attr)

    def add_child(self, child: Node) -> None:
        if isinstance(child, AttributeNode):
            self.add_attribute(child)
            return
        child.parent = self
        self._children.append(child)

    def children(self) -> Sequence[Node]:
        return self._children

    def replace_children(self, children: list[Node]) -> None:
        """Adopt ``children`` as the whole content (security redaction and
        the SDO setters rewrite content in place)."""
        for child in children:
            child.parent = self
        self._children = children

    def child_elements(self, name: QName | None = None) -> list["ElementNode"]:
        """Child axis with an optional name test (namespace-insensitive match
        on local name when the test carries no namespace)."""
        if name is None or name.local == "*":
            return [child for child in self.children() if isinstance(child, ElementNode)]
        found = self.children_named(name.local)
        return [child for child in found if child.name.matches(name)] \
            if name.namespace else found

    def attribute(self, name: QName) -> AttributeNode | None:
        for attr in self.attributes:
            if _name_test(attr.name, name):
                return attr
        return None

    def string_value(self) -> str:
        # (each child answers for itself: a row-backed leaf reads its row)
        return "".join([child.string_value() for child in self._children])

    def typed_value(self) -> list[AtomicValue]:
        """fn:data() on an element: if it has element children it is
        complex content and cannot be atomized; simple content yields the
        concatenated text with the element's simple type (untyped for
        constructed elements)."""
        if any(isinstance(c, ElementNode) for c in self._children):
            raise DynamicError(
                f"cannot atomize element {self.name} with complex content"
            )
        return [leaf_atom(self.string_value(), self.type_annotation)]

    def deep_copy(self) -> "ElementNode":
        copy = ElementNode(self.name, type_annotation=self.type_annotation)
        for attr in self.attributes:
            copy.add_attribute(AttributeNode(attr.name, attr.value))
        for child in self._children:
            if isinstance(child, ElementNode):
                copy.add_child(child.deep_copy())
            elif isinstance(child, TextNode):
                copy.add_child(TextNode(child.content))
        return copy

    def __repr__(self) -> str:
        return f"<ElementNode {self.name} children={len(self._children)}>"


@guarded_by("_lock")
class DeferredElement(ElementNode):
    """The element a reconstruction template builds from a row, until
    someone reads it (DESIGN.md "Deferred content").

    ``_source`` is the ``(template, row, group)`` it comes from;
    ``attributes``, ``_children`` and ``type_annotation`` are left unset, so
    the first read of any of them lands in ``__getattr__``, which builds
    the content once, adopts it and drops the source: from then on it is
    an ordinary element, whose element children are deferred in turn.  A
    column leaf's ``string_value``, ``typed_value`` and ``type_annotation``
    read the row or the template and build nothing.  A child step whose
    name only column leaves can yield is answered without the tree
    (:meth:`children_named`): the leaves it hands out are memoised as a
    fourth item of ``_source``, ``{local name: leaves}``, and the build
    adopts them, so each child is one node whichever came first.  Several
    threads may read a cached one: content is built, and leaves handed
    out, under the class's lock, and each slot published complete, so a
    reader that finds a slot set needs no lock (and one that reads
    ``_source`` reads it once)."""

    __slots__ = ("_source",)
    _lock = TrackedRLock("DeferredElement")

    def __init__(self, name: QName, source: tuple):
        self.parent = None
        self.name = name
        self._source = source  # guarded-by: _lock

    def __getattr__(self, slot: str):
        if slot not in ("attributes", "_children", "type_annotation"):
            raise AttributeError(slot)
        if slot == "type_annotation":
            source = self._source
            if source is not None and source[0].leaf is not None:
                return source[0].leaf[1]  # what the build would annotate
        self._materialise()
        return object.__getattribute__(self, slot)

    def _materialise(self) -> None:
        with self._lock:
            source = self._source
            if source is None:
                return  # another reader built it while this one waited
            template, row, group = source[:3]
            [built] = template.build(row, group)
            children = built._children
            if len(source) > 3:
                _adopt(children, source[3])
            for node in built.attributes + children:
                node.parent = self
            self.attributes = built.attributes
            self._children = children
            self.type_annotation = built.type_annotation
            self._source = None
            RACE.detector.on_access(self, "_source", True)

    def children_named(self, local: str) -> list[ElementNode]:
        source = self._source
        if source is not None:
            template = source[0]
            if template.leaf is not None:
                return []  # a column leaf holds text only
            if local in template.children:
                handed = self._hand_out(source, local)
                if handed is not None:
                    return list(handed)
        return super().children_named(local)

    def _hand_out(self, source: tuple, local: str) -> tuple | None:
        """The ``local`` children of an unread element whose template says
        column leaves are their only source: row-backed leaves, made once
        and memoised (None if the tree was built meanwhile: it answers)."""
        if len(source) > 3 and local in source[3]:
            return source[3][local]
        with self._lock:
            source = self._source
            if source is None:
                return None
            template, row, group = source[:3]
            handed = dict(source[3]) if len(source) > 3 else {}
            if local not in handed:
                leaves = []
                for leaf in template.children[local]:
                    if row.get(leaf.leaf[0]) is not None:  # NULL: no element
                        node = DeferredElement(leaf.name, (leaf, row, group))
                        node.parent = self
                        leaves.append(node)
                handed[local] = tuple(leaves)
                # a new tuple and dict: a reader without the lock sees either
                self._source = (template, row, group, handed)
                RACE.detector.on_access(self, "_source", True)
            return handed[local]

    def child_elements(self, name: QName | None = None) -> list[ElementNode]:
        source = self._source
        if source is not None and source[0].leaf is not None:
            return []
        return super().child_elements(name)

    def string_value(self) -> str:
        source = self._source
        if source is not None and source[0].leaf is not None:
            return lexical(source[1][source[0].leaf[0]])
        return super().string_value()

    def typed_value(self) -> list[AtomicValue]:
        source = self._source
        if source is not None and source[0].leaf is not None:
            alias, type_name = source[0].leaf
            return [leaf_atom(lexical(source[1][alias]), type_name)]
        return super().typed_value()

    def replace_children(self, children: list[Node]) -> None:
        # a leaf handed out by an unread parent is about to differ from the
        # row the parent would be written from: the parent adopts it first
        parent = self.parent
        if type(parent) is DeferredElement and parent._source is not None:
            parent._materialise()
        self._materialise()
        super().replace_children(children)

    def deep_copy(self) -> ElementNode:
        source = self._source
        if source is None:
            return super().deep_copy()
        return DeferredElement(self.name, source[:3])

    def __repr__(self) -> str:
        if self._source is None:
            return super().__repr__()
        return f"<ElementNode {self.name} deferred>"


def _adopt(children: list[Node], handed: dict) -> None:
    """Put the leaves handed out before the build in place of the ones the
    build made: the template's analysis says they are, name by name and in
    order, every element child of that name."""
    pending = {local: iter(leaves) for local, leaves in handed.items()}
    for position, child in enumerate(children):
        if isinstance(child, ElementNode):
            leaves = pending.get(child.name.local)
            if leaves is not None:
                children[position] = next(leaves)


class DocumentNode(Node):
    __slots__ = ("_children",)

    def __init__(self, children: Iterable[Node] = ()):
        super().__init__()
        self._children: list[Node] = []
        for child in children:
            child.parent = self
            self._children.append(child)

    def children(self) -> Sequence[Node]:
        return self._children

    def root_element(self) -> ElementNode:
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        raise XMLError("document has no root element")

    def string_value(self) -> str:
        return "".join(c.string_value() for c in self._children)

    def typed_value(self) -> list[AtomicValue]:
        return [AtomicValue(self.string_value(), UNTYPED)]


def _name_test(name: QName, test: QName | None) -> bool:
    if test is None:
        return True
    if test.local == "*":
        return True
    if test.namespace:
        return name.matches(test)
    return name.local == test.local


def leaf_atom(text: str, type_annotation: str) -> AtomicValue:
    """fn:data() of a leaf element with text ``text``: typed sources
    annotate leaves with their column or schema type, and atomization keeps
    it; any other leaf is untypedAtomic.  The one definition, for a built
    leaf and a row-backed one alike."""
    if type_annotation not in (ANYTYPE, "xs:untyped"):
        return AtomicValue(_parse_lexical(text, type_annotation), type_annotation)
    return AtomicValue(text, UNTYPED)


def _parse_lexical(text: str, type_name: str):
    """Convert a lexical value to its natural Python representation for the
    named atomic type.  Used when re-atomizing typed leaf elements."""
    base = type_name.split(":")[-1]
    try:
        if base in ("integer", "int", "long", "short", "byte", "nonNegativeInteger",
                    "positiveInteger", "negativeInteger", "unsignedInt", "unsignedLong"):
            return int(text)
        if base in ("decimal", "double", "float"):
            return float(text)
        if base == "boolean":
            return text.strip() in ("true", "1")
    except ValueError as exc:
        raise DynamicError(f"invalid lexical value {text!r} for {type_name}") from exc
    return text


def element(
    name: QName | str,
    *children,
    attrs: dict[str, object] | None = None,
    type_annotation: str = ANYTYPE,
) -> ElementNode:
    """Ergonomic element builder used by adaptors and tests.

    Children may be nodes, atomic values, or plain Python values (which
    become typed text content).
    """
    if isinstance(name, str):
        name = QName(name)
    node = ElementNode(name, type_annotation=type_annotation)
    if attrs:
        for key, value in attrs.items():
            node.add_attribute(AttributeNode(QName(key), _as_atomic(value)))
    for child in children:
        if isinstance(child, Node):
            node.add_child(child)
        elif isinstance(child, AtomicValue):
            node.add_child(TextNode(child.string_value()))
            node.type_annotation = child.type_name
        else:
            atom = _as_atomic(child)
            node.add_child(TextNode(atom.string_value()))
            node.type_annotation = atom.type_name
    return node


def _as_atomic(value) -> AtomicValue:
    if isinstance(value, AtomicValue):
        return value
    if isinstance(value, bool):
        return AtomicValue(value, "xs:boolean")
    if isinstance(value, int):
        return AtomicValue(value, "xs:integer")
    if isinstance(value, float):
        return AtomicValue(value, "xs:double")
    return AtomicValue(str(value), "xs:string")


def sequence_string(items: Iterable[Item]) -> str:
    """Space-joined string values, as fn:string-join($seq, ' ')."""
    return " ".join(item.string_value() for item in items)


def iter_descendants(node: Node) -> Iterator[Node]:
    """Document-order descendants of ``node`` (excluding the node itself)."""
    for child in node.children():
        yield child
        yield from iter_descendants(child)
