"""The pushed region's reconstruction template against the constructor rule.

``pushedsql.template_fn`` builds result trees with the *adopting* form of
``construct_element_content`` (it owns every node it passes in); the
evaluator and the row compiler use the *copying* form.  One rule, two
forms: for every template shape the adopted tree must equal the tree the
copying form builds from the same content, and being copy-free must never
mean being shared.
"""

from __future__ import annotations

import itertools

import pytest

from repro.compiler.algebra import ColumnSlot, GroupSlot, NestedSlot
from repro.runtime import construct_element_content
from repro.runtime.operators.pushedsql import template_fn
from repro.xml.items import (
    AtomicValue,
    AttributeNode,
    ElementNode,
    Node,
    TextNode,
    iter_descendants,
)
from repro.xml.qname import QName
from repro.xquery import ast_nodes as ast
from repro.xquery.functions import atomize

# ---------------------------------------------------------------------------
# A plain reading of a template, built on the copying constructor
# ---------------------------------------------------------------------------


def reference(template, row: dict, group: list[dict]) -> list:
    """What the template means, one ``isinstance`` at a time."""
    if isinstance(template, ColumnSlot):
        value = row.get(template.alias)
        if value is None:
            return []
        atom = AtomicValue(value, template.xs_type)
        if template.element_name is None:
            return [atom]
        leaf = construct_element_content(template.element_name, [], [atom])
        leaf.type_annotation = template.xs_type  # a typed leaf, whatever the type
        return [leaf]
    if isinstance(template, NestedSlot):
        return [item for member in group if member.get(template.probe_alias) is not None
                for item in reference(template.template, member, [member])]
    if isinstance(template, GroupSlot):
        return [item for member in group
                for item in reference(template.template, member, [member])]
    if isinstance(template, ast.Literal):
        return [template.value]
    if isinstance(template, ast.EmptySequence):
        return []
    if isinstance(template, ast.SequenceExpr):
        return [item for part in template.items for item in reference(part, row, group)]
    assert isinstance(template, ast.ElementCtor), template
    attributes = []
    for attr in template.attributes:
        atoms = atomize(reference(attr.value, row, group))
        if atoms:
            attributes.append(AttributeNode(QName(attr.name), AtomicValue(
                " ".join(a.string_value() for a in atoms),
                atoms[0].type_name if len(atoms) == 1 else "xs:string")))
        elif not attr.optional:
            attributes.append(AttributeNode(QName(attr.name), AtomicValue("", "xs:string")))
    content = [item for part in template.content for item in reference(part, row, group)]
    return [construct_element_content(template.name, attributes, content)]


def shape(item):
    """Everything observable about a tree but node identity; checks the
    parent pointers on the way down."""
    if isinstance(item, AtomicValue):
        return ("atom", item.value, item.type_name)
    if isinstance(item, TextNode):
        return ("text", item.content)
    assert isinstance(item, ElementNode), item
    for attr in item.attributes:
        assert attr.parent is item
    for child in item.children():
        assert child.parent is item
    return ("element", item.name, item.type_annotation,
            [(a.name, a.value.value, a.value.type_name) for a in item.attributes],
            [shape(child) for child in item.children()])


def nodes_of(items) -> list[Node]:
    found = []
    for item in items:
        if isinstance(item, ElementNode):
            found += [item, *item.attributes, *iter_descendants(item)]
            for inner in iter_descendants(item):
                found += getattr(inner, "attributes", [])
        elif isinstance(item, Node):
            found.append(item)
    return found


# ---------------------------------------------------------------------------
# Template shapes
# ---------------------------------------------------------------------------


def col(alias, xs_type="xs:string", element=None):
    return ColumnSlot(alias, xs_type, element)


def lit(value, type_name="xs:string"):
    return ast.Literal(AtomicValue(value, type_name))


def el(name, *content, attrs=()):
    return ast.ElementCtor(name, list(attrs), list(content))


TEMPLATES = {
    "atom run with NULL slots": el("A", col("a", "xs:int"), col("b"), col("c", "xs:int")),
    "a single typed atom": el("A", col("a", "xs:int")),
    "element slots": el("A", col("a", "xs:int", "X"), col("b", element="Y"),
                        col("c", "xs:int", "Z")),
    "element slot on its own": col("b", element="Y"),
    "bare atom": col("a", "xs:int"),
    "nested slot with null-extended rows": el(
        "OUT", col("a", "xs:int", "ID"),
        el("INNER", NestedSlot(el("I", col("p", element="P"), col("b")), "p"))),
    "group slot": el("G", col("a", "xs:int", "K"), el("VS", GroupSlot(col("c", "xs:int"))),
                     el("ES", GroupSlot(col("b", element="B")))),
    "optional and required attributes": el(
        "A", col("b", element="Y"),
        attrs=[ast.AttributeCtor("req", col("a", "xs:int")),
               ast.AttributeCtor("opt", col("c", "xs:int"), optional=True),
               ast.AttributeCtor("two", ast.SequenceExpr([col("a", "xs:int"), col("b")]))]),
    "nested constructors": el("A", el("B", el("C", col("a", "xs:int")), col("b")),
                              el("D"), el("E", col("b", element="Y"))),
    "literals": el("A", lit("x"), col("a", "xs:int"), lit(7, "xs:integer"),
                   el("B", lit("only")), col("b", element="Y"), lit("tail")),
    "sequence and empty": ast.SequenceExpr([
        el("A", ast.EmptySequence(), col("a", "xs:int")), ast.EmptySequence(),
        col("b", element="Y"), lit("z")]),
    "text after an element child": el("A", col("b", element="Y"), col("a", "xs:int")),
    # child names the lane must refuse or read twice: X is also a nested
    # constructor's, Y also a group member's; Z has two column sources
    "a name several parts yield": el(
        "A", col("a", "xs:int", "X"), el("X", col("b")), col("c", "xs:int", "Z"),
        GroupSlot(col("b", element="Y")), col("a", "xs:int", "Y"), col("a", "xs:int", "Z")),
    # a string column declared xs:int: its text is no integer
    "a value invalid for its type": el("A", col("b", "xs:int", "X"), col("a", "xs:double", "D")),
}

ROWS = [
    {"a": 1, "b": "x", "c": 3, "p": "p1"},
    {"a": 1, "b": None, "c": None, "p": None},
    {"a": None, "b": "y<&", "c": 0, "p": "p2"},
    {"a": None, "b": None, "c": None, "p": None},
]


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_the_template_builds_what_the_copying_constructor_builds(name):
    template = TEMPLATES[name]
    build = template_fn(template)
    groups = [[row] for row in ROWS] + [ROWS, ROWS[1:3], ROWS[3:]]
    for group in groups:
        got = build(group[0], group)
        want = reference(template, group[0], group)
        assert [shape(item) for item in got] == [shape(item) for item in want], group
        assert all(item.parent is None for item in got if isinstance(item, Node))


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_no_node_is_shared_between_results(name):
    build = template_fn(TEMPLATES[name])
    results = [build(row, [row]) for row in ROWS] + [build(ROWS[0], ROWS), build(ROWS[0], ROWS)]
    everything = [nodes_of(items) for items in results]
    for one, other in itertools.combinations(everything, 2):
        assert not {id(node) for node in one} & {id(node) for node in other}
    for nodes in everything:  # nor twice within one result
        assert len({id(node) for node in nodes}) == len(nodes)


def test_literals_contribute_text_never_a_shared_node():
    template = TEMPLATES["literals"]
    literal_atoms = {id(node.value) for node in template.walk() if isinstance(node, ast.Literal)}
    assert len(literal_atoms) == 4
    first, second = (template_fn(template)(row, [row])[0] for row in ROWS[:2])
    assert shape(first)[4][0] == ("text", "x 1 7")  # merged across the slot, as ever
    texts = [n for n in nodes_of([first, second]) if isinstance(n, TextNode)]
    assert len({id(t) for t in texts}) == len(texts)
    # a literal's atom may be handed out as an item, but no tree holds it
    assert not literal_atoms & {id(node) for node in nodes_of([first, second])}


# ---------------------------------------------------------------------------
# The one constructor rule, both forms
# ---------------------------------------------------------------------------


def content_cases():
    """Fresh content per call: the adopting form consumes what it is given."""
    def leaf(name, text, annotation="xs:anyType"):
        node = ElementNode(QName(name), type_annotation=annotation)
        node.add_child(TextNode(text))
        return node

    def atom(value, type_name="xs:string"):
        return AtomicValue(value, type_name)

    def attr(name, value):
        return AttributeNode(QName(name), AtomicValue(value, "xs:string"))

    return {
        "empty": lambda: ([], []),
        "one typed atom": lambda: ([], [atom(4, "xs:int")]),
        "one untyped atom": lambda: ([], [atom("u", "xs:untypedAtomic")]),
        "atoms merge": lambda: ([], [atom(1, "xs:int"), atom("b"), atom(True, "xs:boolean")]),
        "atom, text, atom": lambda: ([], [atom(1, "xs:int"), TextNode("t"), atom(2, "xs:int")]),
        "text then one atom": lambda: ([], [TextNode("t"), atom(2, "xs:int")]),
        "elements": lambda: ([], [leaf("X", "1", "xs:int"), leaf("Y", "y")]),
        "atom after an element": lambda: ([], [leaf("X", "1"), atom(2, "xs:int")]),
        "atom before an element": lambda: ([], [atom(2, "xs:int"), leaf("X", "1")]),
        "attributes both ways": lambda: (
            [attr("a", "1")], [attr("b", "2"), atom(3, "xs:int"), attr("c", "4"), leaf("X", "x")]),
        "nested": lambda: ([], [construct_element_content(
            "M", [attr("k", "v")], [leaf("X", "1", "xs:int"), atom("t")])]),
    }


@pytest.mark.parametrize("name", sorted(content_cases()))
def test_adopting_and_copying_forms_build_identical_trees(name):
    case = content_cases()[name]
    attributes, content = case()
    copied = construct_element_content("E", attributes, content)
    given = nodes_of(content) + attributes
    assert not {id(n) for n in given} & {id(n) for n in nodes_of([copied])}
    assert all(node.parent is None for node in attributes + content if isinstance(node, Node))

    attributes, content = case()
    adopted = construct_element_content(QName("E"), attributes, content, owned=True)
    assert shape(adopted) == shape(copied)
    kept = [node for node in attributes + content if isinstance(node, Node)]
    assert all(node.parent is adopted for node in kept)
    assert {id(n) for n in kept} <= {id(n) for n in nodes_of([adopted])}


def test_an_evaluator_constructor_still_copies_what_it_does_not_own():
    """``<W>{$x}</W>`` twice over one bound node: two trees, the original
    untouched (the copying form is what the evaluator and rowcompile call)."""
    from repro import Platform, serialize

    platform = Platform()
    original = ElementNode(QName("X"))
    original.add_child(TextNode("1"))
    for batch_size in (1, 256):
        platform.configure(batch_size=batch_size)
        first, second = platform.execute(
            "for $i in (1, 2) return <W>{$x}</W>", {"x": [original]})
        assert serialize([first, second]) == "<W><X>1</X></W><W><X>1</X></W>"
        assert original.parent is None
        assert first.children()[0] is not original
        assert first.children()[0] is not second.children()[0]


# ---------------------------------------------------------------------------
# One template, two renderings: the writer against the builder
# ---------------------------------------------------------------------------
#
# An element at the root of a template result is deferred: serialized
# unread it is written from the row by the template's *writer*, read it is
# built by the *builder* above.  The writer's bytes must be the serialized
# builder's tree for every template and every row, and the tree a first read
# builds must be the one the copying constructor builds.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import XMLError  # noqa: E402
from repro.runtime.operators.pushedsql import _compile_template  # noqa: E402
from repro.xml.items import DeferredElement  # noqa: E402
from repro.xml.serialize import serialize  # noqa: E402

VALUES = st.one_of(
    st.none(), st.none(), st.booleans(), st.integers(-1000, 1000),
    st.sampled_from([0.5, -2.25, 1e21, 3.0]),
    st.sampled_from(["", " ", "x", "a&b", "1 < 2", "2 > 1", 'say "hi"', "é✓", "]]>"]))
ROW = st.fixed_dictionaries({alias: VALUES for alias in "abcdp"})
TYPES = st.sampled_from(["xs:string", "xs:int", "xs:boolean", "xs:double"])
ATOM_SLOTS = st.builds(col, st.sampled_from("abcd"), TYPES)
LITERALS = st.one_of(
    st.builds(lit, st.sampled_from(["x", "", "a&b <c>", 'q"'])),
    st.just(lit(7, "xs:integer")), st.just(lit(True, "xs:boolean")))
ATOMS = st.one_of(ATOM_SLOTS, ATOM_SLOTS, LITERALS,
                  st.builds(ast.SequenceExpr, st.lists(ATOM_SLOTS | LITERALS, max_size=3)))


@st.composite
def attributes(draw):
    names = draw(st.lists(st.sampled_from(["k", "id", "p:t"]), unique=True, max_size=3))
    return [ast.AttributeCtor(name, draw(ATOMS), optional=draw(st.booleans()))
            for name in names]


def parts(depth: int):
    """Anything a constructor's content (or a slot's member template) holds."""
    flat = st.one_of(
        ATOM_SLOTS, LITERALS, st.just(ast.EmptySequence()),
        st.builds(col, st.sampled_from("abcd"), TYPES, st.sampled_from(["X", "Y", "p:Z"])))
    if depth == 0:
        return flat
    inner = st.deferred(lambda: parts(depth - 1))
    return st.one_of(
        flat, flat, elements(depth - 1),
        st.builds(ast.SequenceExpr, st.lists(inner, max_size=3)),
        st.builds(NestedSlot, inner, st.just("p")), st.builds(GroupSlot, inner))


def elements(depth: int):
    return st.builds(lambda name, attrs, content: el(name, *content, attrs=attrs),
                     st.sampled_from(["A", "B", "p:C"]), attributes(),
                     st.lists(parts(depth), max_size=4))


#: what ``template_fn`` is given: mostly the shapes it defers
TEMPLATE = st.one_of(
    elements(2), elements(2),
    st.builds(col, st.sampled_from("abcd"), TYPES, st.just("LEAF")),
    st.builds(NestedSlot, elements(1), st.just("p")), st.builds(GroupSlot, elements(1)),
    parts(2))


def unread(item) -> bool:
    return isinstance(item, DeferredElement) and item._source is not None


@settings(max_examples=250, derandomize=True, deadline=None)
@given(TEMPLATE, st.lists(ROW, min_size=1, max_size=3))
def test_the_writer_writes_what_the_builder_builds(template, group):
    items = template_fn(template)(group[0], group)
    eager = _compile_template(template)(group[0], group)  # deferral bypassed
    written = serialize(items)
    assert all(unread(item) for item in items if isinstance(item, DeferredElement))
    assert written == serialize(eager)
    # ... and under a constructed parent, where the copy is written instead
    wrapped = construct_element_content("W", [], items)
    assert serialize(wrapped) == serialize(construct_element_content("W", [], eager))
    assert all(unread(child) for child in wrapped.children()
               if isinstance(child, DeferredElement))
    # the first read builds the tree the copying constructor builds
    want = reference(template, group[0], group)
    assert [shape(item) for item in items] == [shape(item) for item in want]
    assert not any(map(unread, items))
    assert all(item.parent is None for item in items if isinstance(item, Node))
    assert serialize(items) == written


def test_a_template_the_writer_does_not_render_keeps_the_tree_path():
    """Members that mix atoms and elements would merge an atom with the next
    member's; a duplicate attribute name is the builder's error, raised when
    the element is created.  Neither is deferred."""
    mixed = el("A", GroupSlot(ast.SequenceExpr([col("a", "xs:int"), col("b", element="Y")])))
    [built] = template_fn(mixed)(ROWS[0], ROWS[:2])
    assert type(built) is ElementNode
    assert serialize(built) == "<A>1<Y>x</Y>1</A>"
    twice = el("A", attrs=[ast.AttributeCtor("k", col("a", "xs:int")),
                           ast.AttributeCtor("k", col("c", "xs:int"), optional=True)])
    build = template_fn(twice)
    assert serialize(build(ROWS[1], ROWS[1:2])) == '<A k="1"/>'
    with pytest.raises(XMLError, match="duplicate attribute"):
        build(ROWS[0], ROWS[:1])


# ---------------------------------------------------------------------------
# The row answers what the tree answers
# ---------------------------------------------------------------------------
#
# An unread element answers an atomized child step from its row
# (``rowcompile._child_lane``), and a column leaf its own ``fn:data`` and
# ``string()``.  Each answer must be the built tree's: value, type name and
# error text, NULL an absent child, several sources in template order.

from repro.errors import DynamicError  # noqa: E402
from repro.runtime.rowcompile import MANY, rowfn  # noqa: E402


def child_path(name: str):
    """``$b/NAME``, compiled: the list form, with its atom lane beside it."""
    return rowfn(ast.PathExpr(ast.VarRef("b"), [ast.Step("child", ast.NameTest(name))]))


def outcome(run):
    try:
        value = run()
    except DynamicError as exc:
        return f"DynamicError: {exc}"
    if isinstance(value, AtomicValue):
        value = [value]
    return [(atom.value, atom.type_name) for atom in value or ()]


def lane(name: str, items: list):
    return outcome(lambda: child_path(name).atom(None, {"b": items}))


def stepped(name: str, items: list):
    """``atomize`` over the list form of the step."""
    return outcome(lambda: atomize(child_path(name)(None, {"b": items})))


def child_names(template) -> set[str]:
    """Every child name the template's elements can have, one none has
    (``NONE``) and the name with several sources (``X``)."""
    names = {"NONE", "X"}
    for row in ROWS:
        for item in reference(template, row, ROWS):
            if isinstance(item, ElementNode):
                names |= {child.name.local for child in item.child_elements()}
    return names


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_a_child_step_on_the_row_is_the_step_on_the_tree(name):
    template = TEMPLATES[name]
    build = template_fn(template)
    for child in sorted(child_names(template)):
        for group in [[row] for row in ROWS] + [ROWS]:
            items = build(group[0], group)
            mapped = [item for item in items if isinstance(item, DeferredElement)
                      and child in item._source[0].children]
            want = stepped(child, reference(template, group[0], group))
            assert lane(child, items) == want, (child, group)
            if all(isinstance(item, Node) for item in items):  # the row answered
                assert all(item._source is not None for item in mapped)
        # a mixed base keeps the order: unread, built, and a plain tree
        first, second = build(ROWS[0], ROWS[:1]), build(ROWS[2], ROWS[2:3])
        for item in second:
            if isinstance(item, ElementNode):
                item.children()  # built
        mixed = first + second + reference(template, ROWS[2], ROWS[1:3]) + \
            build(ROWS[1], ROWS[1:2])
        want = reference(template, ROWS[0], ROWS[:1]) + reference(template, ROWS[2], ROWS[2:3]) \
            + reference(template, ROWS[2], ROWS[1:3]) + reference(template, ROWS[1], ROWS[1:2])
        assert lane(child, mixed) == stepped(child, want), child
        # a non-node anywhere in the base is the step's error, before any value
        one = AtomicValue(1, "xs:integer")
        assert lane(child, build(ROWS[0], ROWS[:1]) + [one]) == \
            stepped(child, reference(template, ROWS[0], ROWS[:1]) + [one])


def test_the_lane_reads_the_row_only_where_the_template_is_the_only_source():
    [element] = template_fn(TEMPLATES["a name several parts yield"])(ROWS[0], ROWS)
    assert {name: tuple(leaf.leaf for leaf in leaves)
            for name, leaves in element._source[0].children.items()} == \
        {"Z": (("c", "xs:int"), ("a", "xs:int"))}
    assert lane("Z", [element]) == [(3, "xs:int"), (1, "xs:int")]  # MANY, template order
    assert type(child_path("Z").atom(None, {"b": [element]})) is MANY
    assert element._source is not None  # read from the row
    assert lane("X", [element]) == [(1, "xs:int"), ("x", "xs:string")]
    assert element._source is None  # X needed the tree
    [invalid] = template_fn(TEMPLATES["a value invalid for its type"])(ROWS[0], ROWS)
    assert lane("X", [invalid]) == "DynamicError: invalid lexical value 'x' for xs:int"
    assert lane("D", [invalid]) == [(1.0, "xs:double")]
    assert invalid._source is not None


def pairs(got: list, want: list):
    """The nodes of two equal results side by side, each of ``got``'s
    yielded before anything reads it."""
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        yield mine, theirs
        if isinstance(mine, ElementNode):
            yield from pairs(list(mine.children()), list(theirs.children()))


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_an_unread_leaf_answers_as_its_tree(name):
    """A deferred leaf's ``typed_value`` and ``string_value`` are its built
    twin's without building it; a built element's deferred children hang
    under it (``shape`` checks every parent pointer)."""
    template = TEMPLATES[name]
    leaves = 0
    for group in [[row] for row in ROWS] + [ROWS]:
        got = template_fn(template)(group[0], group)
        want = reference(template, group[0], group)
        for mine, theirs in pairs(got, want):
            if not isinstance(mine, DeferredElement) or mine._source[0].leaf is None:
                continue
            assert mine.string_value() == theirs.string_value()
            assert outcome(mine.typed_value) == outcome(theirs.typed_value)
            assert mine._source is not None
            leaves += 1
        assert [shape(item) for item in got] == [shape(item) for item in want]
    assert bool(leaves) == any(isinstance(node, ColumnSlot) and node.element_name
                               for node in template.walk())


def test_a_table_scan_answers_as_the_pushed_region(monkeypatch):
    """With pushdown off a table function is scanned mid-tier
    (``Evaluator._scan_table``), its rows built through a record template
    (``pushedsql.record_fn``): the same bytes and values as pushed."""
    from repro.demo import build_demo_platform
    from repro.runtime.evaluate import Evaluator

    queries = [
        "CUSTOMER()", "for $c in CUSTOMER() return $c/LAST_NAME",
        "for $c in CUSTOMER() where $c/CID eq 'C2' return fn:data($c/SINCE)",
        "for $o in ORDER() where $o/AMOUNT gt 100 return <O>{$o/OID}{fn:data($o/AMOUNT)}</O>",
        "for $c in CUSTOMER() return fn:string($c/FIRST_NAME)",
        "fn:data(CREDIT_CARD()/NUMBER)"]
    pushed = build_demo_platform(customers=6, orders_per_customer=2)
    scanned = build_demo_platform(customers=6, orders_per_customer=2)
    scanned.configure(pushdown=False)
    scans = []
    real = Evaluator._scan_table
    monkeypatch.setattr(Evaluator, "_scan_table",
                        lambda self, node: scans.append(node) or real(self, node))
    for query in queries:
        assert serialize(scanned.execute(query)) == serialize(pushed.execute(query)), query
    assert len(scans) == len(queries)
    rows = scanned.execute("CUSTOMER()")
    assert all(isinstance(row, DeferredElement) and row._source is not None for row in rows)
