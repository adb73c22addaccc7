"""Unit tests for the XML data-model items."""

import pytest

from repro.errors import DynamicError, XMLError
from repro.xml import (
    AtomicValue,
    AttributeNode,
    DocumentNode,
    ElementNode,
    QName,
    TextNode,
    element,
    qname,
)
from repro.xml.items import iter_descendants


class TestQName:
    def test_equality_ignores_prefix(self):
        assert QName("A", "urn:x", "p") == QName("A", "urn:x", "q")

    def test_inequality_on_namespace(self):
        assert QName("A", "urn:x") != QName("A", "urn:y")

    def test_lexical_form(self):
        assert QName("A", "urn:x", "p").lexical == "p:A"
        assert QName("A").lexical == "A"

    def test_qname_helper_splits_prefix(self):
        q = qname("tns:PROFILE")
        assert q.local == "PROFILE"
        assert q.prefix == "tns"

    def test_matches(self):
        assert QName("A", "urn:x").matches(QName("A", "urn:x", "zz"))
        assert not QName("A", "urn:x").matches(QName("B", "urn:x"))


class TestAtomicValue:
    def test_string_value_of_boolean(self):
        assert AtomicValue(True, "xs:boolean").string_value() == "true"
        assert AtomicValue(False, "xs:boolean").string_value() == "false"

    def test_atomize_returns_self(self):
        atom = AtomicValue(5, "xs:integer")
        assert atom.atomize() == [atom]

    def test_equality_includes_type(self):
        assert AtomicValue(1, "xs:integer") != AtomicValue(1, "xs:long")
        assert AtomicValue(1, "xs:integer") == AtomicValue(1, "xs:integer")

    def test_hashable(self):
        assert len({AtomicValue(1, "xs:integer"), AtomicValue(1, "xs:integer")}) == 1


class TestElementNode:
    def test_builder_creates_typed_leaves(self):
        e = element("CID", 7, type_annotation="xs:integer")
        assert e.string_value() == "7"
        assert e.type_annotation == "xs:integer"

    def test_typed_value_preserves_type(self):
        e = element("CID", 7, type_annotation="xs:integer")
        [atom] = e.typed_value()
        assert atom.value == 7
        assert atom.type_name == "xs:integer"

    def test_atomize_complex_content_raises(self):
        parent = element("P", element("C", "x"))
        with pytest.raises(DynamicError):
            parent.typed_value()

    def test_untyped_element_atomizes_to_untyped(self):
        e = ElementNode(QName("X"))
        e.add_child(TextNode("abc"))
        [atom] = e.typed_value()
        assert atom.type_name == "xs:untypedAtomic"

    def test_string_value_concatenates_descendants(self):
        e = element("P", element("A", "x"), element("B", "y"))
        assert e.string_value() == "xy"

    def test_duplicate_attribute_rejected(self):
        e = ElementNode(QName("X"))
        e.add_attribute(AttributeNode(QName("a"), AtomicValue("1")))
        with pytest.raises(XMLError):
            e.add_attribute(AttributeNode(QName("a"), AtomicValue("2")))

    def test_child_elements_name_filter(self):
        e = element("P", element("A", 1), element("B", 2), element("A", 3))
        assert len(e.child_elements(QName("A"))) == 2
        assert len(e.child_elements()) == 3

    def test_attribute_lookup(self):
        e = element("P", attrs={"x": 5})
        attr = e.attribute(QName("x"))
        assert attr is not None
        assert attr.string_value() == "5"
        assert e.attribute(QName("y")) is None

    def test_deep_copy_is_detached_and_equal_text(self):
        original = element("P", element("A", "x"), attrs={"k": "v"})
        copy = original.deep_copy()
        assert copy is not original
        assert copy.string_value() == original.string_value()
        copy.child_elements()[0]._children = []
        assert original.string_value() == "x"

    def test_parent_links(self):
        child = element("C", "x")
        parent = element("P", child)
        assert child.parent is parent


class TestDocumentNode:
    def test_root_element(self):
        root = element("R")
        doc = DocumentNode([root])
        assert doc.root_element() is root

    def test_empty_document_has_no_root(self):
        with pytest.raises(XMLError):
            DocumentNode([]).root_element()


def test_iter_descendants_preorder():
    tree = element("A", element("B", element("C", "x")), element("D", "y"))
    names = [n.name.local for n in iter_descendants(tree) if isinstance(n, ElementNode)]
    assert names == ["B", "C", "D"]
