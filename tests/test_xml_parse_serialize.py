"""XML text parser and serializer tests."""

import io
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLError
from repro.xml import (
    AtomicValue,
    element,
    parse_document,
    parse_element_text,
    serialize,
)
from repro.xml.items import AttributeNode, DocumentNode, ElementNode, TextNode
from repro.xml.qname import QName
from repro.xml.serialize import serialize_item, serialize_to_sink


class TestParser:
    def test_simple_element(self):
        e = parse_element_text("<a>hello</a>")
        assert e.name.local == "a"
        assert e.string_value() == "hello"

    def test_attributes(self):
        e = parse_element_text('<a x="1" y="two"/>')
        assert e.attribute(element("x").name).string_value() == "1"

    def test_nested_elements_skip_interelement_whitespace(self):
        e = parse_element_text("<a>\n  <b>1</b>\n  <c>2</c>\n</a>")
        assert [c.name.local for c in e.child_elements()] == ["b", "c"]
        assert e.child_elements()[0].string_value() == "1"

    def test_entities(self):
        e = parse_element_text("<a>x &amp; y &lt; z &#65;</a>")
        assert e.string_value() == "x & y < z A"

    def test_cdata(self):
        e = parse_element_text("<a><![CDATA[<not-xml>]]></a>")
        assert e.string_value() == "<not-xml>"

    def test_comments_skipped(self):
        e = parse_element_text("<a><!-- hi --><b>1</b></a>")
        assert len(e.child_elements()) == 1

    def test_prolog_and_pi_skipped(self):
        doc = parse_document('<?xml version="1.0"?><a/>')
        assert doc.root_element().name.local == "a"

    def test_namespace_declarations_not_attributes(self):
        e = parse_element_text('<a xmlns="urn:x" xmlns:p="urn:y" q="1"/>')
        assert len(e.attributes) == 1

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLError):
            parse_element_text("<a><b></a></b>")

    def test_trailing_content_rejected(self):
        with pytest.raises(XMLError):
            parse_document("<a/><b/>")

    def test_unterminated_rejected(self):
        with pytest.raises(XMLError):
            parse_element_text("<a><b>")

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLError):
            parse_element_text("<a>&nope;</a>")


class TestSerializer:
    def test_escapes_text(self):
        assert serialize(element("a", "x < & > y")) == "<a>x &lt; &amp; &gt; y</a>"

    def test_escapes_attribute_quotes(self):
        text = serialize(element("a", attrs={"t": 'say "hi"'}))
        assert "&quot;" in text

    def test_empty_element_self_closes(self):
        assert serialize(element("a")) == "<a/>"

    def test_atomic_sequence_space_separated(self):
        out = serialize([AtomicValue(1, "xs:integer"), AtomicValue(2, "xs:integer")])
        assert out == "1 2"

    def test_pretty_print(self):
        text = serialize(element("a", element("b", "1")), indent=2)
        assert "\n" in text
        assert "<b>1</b>" in text


_NAME = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='<>&"\''),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s.strip() != "")


@st.composite
def xml_trees(draw, depth=2):
    name = draw(_NAME)
    if depth == 0 or draw(st.booleans()):
        return element(name, draw(_TEXT))
    children = draw(st.lists(xml_trees(depth=depth - 1), min_size=1, max_size=3))
    return element(name, *children)


@given(xml_trees())
def test_property_parse_serialize_roundtrip(tree):
    text = serialize(tree)
    assert serialize(parse_element_text(text)) == text


# ---------------------------------------------------------------------------
# The single-buffer writer against a node-at-a-time reference
# ---------------------------------------------------------------------------


def reference_item(item, indent=None, level=0) -> str:
    """One string per node, joined on the way up: slow and obvious."""
    def text(s):
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    def attribute(a):
        return f'{a.name.lexical}="{text(a.string_value()).replace(chr(34), "&quot;")}"'

    if isinstance(item, AtomicValue):
        return item.string_value()
    if isinstance(item, TextNode):
        return text(item.content)
    if isinstance(item, AttributeNode):
        return attribute(item)
    if isinstance(item, DocumentNode):
        return "".join(reference_item(c, indent, level) for c in item.children())
    pad = "" if indent is None else "\n" + " " * (indent * level)
    opening = "".join([item.name.lexical] + [" " + attribute(a) for a in item.attributes])
    children = item.children()
    if not children:
        return f"{pad}<{opening}/>"
    only_text = all(isinstance(c, TextNode) for c in children)
    inner = "".join(reference_item(c, None if only_text else indent, level + 1)
                    for c in children)
    return f"{pad}<{opening}>{inner}{'' if only_text else pad}</{item.name.lexical}>"


def reference_sequence(items, indent=None) -> str:
    out = ""
    for previous, item in zip([None] + items, items):
        if isinstance(previous, AtomicValue) and isinstance(item, AtomicValue):
            out += " "
        out += reference_item(item, indent)
    return out.lstrip("\n") if indent is not None else out


_SPECIAL_TEXT = ["x", "a&b", "1 < 2", "2 > 1", "<&>", 'say "hi"', "it's", "  ", "\n", "é✓"]


def random_tree(rng, depth=3):
    node = ElementNode(QName(rng.choice(["a", "b", "row"]), prefix=rng.choice(["", "", "p"])))
    for name in rng.sample(["k", "id", "t"], rng.randrange(3)):
        node.add_attribute(AttributeNode(
            QName(name), AtomicValue(rng.choice(_SPECIAL_TEXT), "xs:string")))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        if depth and rng.random() < 0.6:
            node.add_child(random_tree(rng, depth - 1))
        else:
            node.add_child(TextNode(rng.choice(_SPECIAL_TEXT)))
    return node


def random_sequence(rng):
    items = []
    for _ in range(rng.randrange(1, 7)):
        kind = rng.random()
        if kind < 0.45:
            items.append(random_tree(rng))
        elif kind < 0.75:  # runs of atoms happen: the draw repeats
            items.append(rng.choice([AtomicValue(7, "xs:integer"), AtomicValue("a<b", "xs:string"),
                                     AtomicValue(True, "xs:boolean"), AtomicValue(1.5, "xs:double")]))
        elif kind < 0.85:
            items.append(TextNode(rng.choice(_SPECIAL_TEXT)))
        elif kind < 0.92:
            items.append(AttributeNode(QName("loose"), AtomicValue('q"<', "xs:string")))
        else:
            items.append(DocumentNode([random_tree(rng, 1), random_tree(rng, 2)]))
    return items


def template_sequences(seed: str):
    """One generated sequence twice: with the template results deferred
    (``template_fn``) and built eagerly (the builder called directly), at
    top level, under a constructed parent, and between ordinary items."""
    from repro.runtime import construct_element_content
    from repro.runtime.operators.pushedsql import _compile_template, template_fn
    from tests.test_pushed_rebuild import ROWS, TEMPLATES

    def sequence(compiled):
        rng = random.Random(seed)
        items = []
        for _ in range(rng.randrange(1, 5)):
            name = rng.choice(sorted(TEMPLATES))
            group = rng.sample(ROWS, rng.randrange(1, len(ROWS) + 1))
            built = compiled(TEMPLATES[name])(group[0], group)
            kind = rng.random()
            if kind < 0.4:
                items += built
            elif kind < 0.8:  # the copying constructor: its children are copies
                items.append(construct_element_content(
                    "W", [], [random_tree(rng, 1), *built, AtomicValue(2, "xs:integer")]))
            else:
                items += [AtomicValue(1.5, "xs:double"), *built, random_tree(rng, 2)]
        return items

    return sequence(template_fn), sequence(_compile_template)


def unread_at_first(items):
    from repro.xml.items import DeferredElement

    for item in items:
        if isinstance(item, DeferredElement):
            yield item
        elif isinstance(item, ElementNode) and item.name.local == "W":
            yield from unread_at_first(item.children())


class TestWriterAgainstReference:
    @pytest.mark.parametrize("indent", [None, 0, 2])
    def test_generated_sequences(self, indent):
        for seed in range(150):
            items = random_sequence(random.Random(f"serialize:{seed}"))
            want = reference_sequence(items, indent)
            assert serialize(items, indent) == want, seed
            if len(items) == 1:
                assert serialize(items[0], indent) == want
            for item in items:
                assert serialize_item(item, indent) == reference_item(item, indent)
                assert serialize_item(item, indent, 2) == reference_item(item, indent, 2)

    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_sink_at_every_batch_size(self, indent, batch_size):
        rng = random.Random("sink")
        items = [item for _ in range(120) for item in random_sequence(rng)]
        assert len(items) > 256
        sink = io.StringIO()
        assert serialize_to_sink(iter(items), sink, indent, "|", batch_size) == len(items)
        assert sink.getvalue() == "|".join(reference_item(item, indent) for item in items)
        empty = io.StringIO()
        assert serialize_to_sink(iter([]), empty, indent, "|", batch_size) == 0
        assert empty.getvalue() == ""

    @pytest.mark.parametrize("indent", [None, 0, 2])
    def test_unread_template_elements(self, indent):
        """Elements fresh from a reconstruction template are written from
        their row, not walked (DESIGN.md "Deferred content"): the bytes are
        the reference's over the eagerly built twin."""
        for seed in range(80):
            items, twins = template_sequences(f"deferred:{seed}")
            assert serialize(items, indent) == reference_sequence(twins, indent), seed
            for item, twin in zip(items, twins):
                assert serialize_item(item, indent) == reference_item(twin, indent)
                assert serialize_item(item, indent, 2) == reference_item(twin, indent, 2)
            if indent is None:  # nothing above built a tree
                assert all(item._source is not None for item in unread_at_first(items))

    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_unread_template_elements_into_a_sink(self, indent, batch_size):
        pairs = [template_sequences(f"sink:{seed}") for seed in range(120)]
        items = [item for sequence, _twins in pairs for item in sequence]
        twins = [twin for _sequence, sequence in pairs for twin in sequence]
        assert len(items) > 256
        sink = io.StringIO()
        assert serialize_to_sink(iter(items), sink, indent, "|", batch_size) == len(items)
        assert sink.getvalue() == "|".join(reference_item(twin, indent) for twin in twins)

    def test_pinned_bytes(self):
        tree = element("a", element("b", "1 < 2"), "t&t", element("c"),
                       attrs={"k": 'x"<y>&'})
        assert serialize(tree) == \
            '<a k="x&quot;&lt;y&gt;&amp;"><b>1 &lt; 2</b>t&amp;t<c/></a>'
        assert serialize(tree, indent=2) == \
            '<a k="x&quot;&lt;y&gt;&amp;">\n  <b>1 &lt; 2</b>t&amp;t\n  <c/>\n</a>'
        assert serialize(tree, indent=0) == \
            '<a k="x&quot;&lt;y&gt;&amp;">\n<b>1 &lt; 2</b>t&amp;t\n<c/>\n</a>'
        assert serialize([AtomicValue("a<b", "xs:string"), AtomicValue(2, "xs:integer"),
                          element("e"), AtomicValue(3, "xs:integer")]) == "a<b 2<e/>3"

    def test_unknown_item_kinds_are_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize([object()])
