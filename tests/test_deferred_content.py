"""Deferred content (DESIGN.md "Deferred content"): which consumers of a
reconstruction template's element build its tree, that the security
filter decides the same whether or not it is built, and that a child step
hands out the row's own leaf, which the element's later build adopts.

``builds`` spies on the one place a tree is built, the first read of a
:class:`~repro.xml.items.DeferredElement`; the writer's bytes and the built
tree are held together by ``tests/test_pushed_rebuild.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.compiler.algebra import NestedSlot
from repro.demo import build_demo_platform
from repro.runtime.operators.pushedsql import template_fn
from repro.sdo.dataobject import DataObject
from repro.security.policy import SecurityService, User
from repro.xml.items import DeferredElement, TextNode
from repro.xml.qname import QName
from tests.test_pushed_rebuild import ROWS, TEMPLATES, col, el, lit, reference, shape

LAYERED = Path(__file__).resolve().parent.parent / "benchmarks" / "layered"
CLERK = User.of("carol", "clerk")


@pytest.fixture
def builds(monkeypatch):
    """Every element whose tree was built, in order."""
    built: list[DeferredElement] = []
    materialise = DeferredElement._materialise

    def spy(element):
        if element._source is not None:
            built.append(element)
        materialise(element)

    monkeypatch.setattr(DeferredElement, "_materialise", spy)
    return built


def unread(items) -> bool:
    return all(isinstance(item, DeferredElement) and item._source is not None
               for item in items)


# ---------------------------------------------------------------------------
# Serialized only: no tree
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def layered(tmp_path_factory):
    """The benchmark's own smoke federation, workloads and oracle, imported
    the way ``benchmarks/profile_workload.py`` imports them (never edited)."""
    before = set(sys.modules)
    sys.path.insert(0, str(LAYERED))
    try:
        from federation import SIZES, build_federation
        from oracle import Oracle
        from workloads import WORKLOADS

        fed = build_federation(1, SIZES["smoke"], tmp_path_factory.mktemp("layered"))
        try:
            yield {name: WORKLOADS[name](fed, Oracle(fed.rows), 1)
                   for name in ("pushed_scan", "cold_compile")}, fed.platform
        finally:
            fed.close()
    finally:
        sys.path.remove(str(LAYERED))
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", None) \
                    and Path(sys.modules[name].__file__).parent == LAYERED:
                del sys.modules[name]


#: the cold_compile shapes that navigate their rows mid-tier, by position.
#: None of them builds a tree.  An atomized child step reads the row:
#: ``getProfileByID``'s ``fn:data($c/CID)`` and PP-k keys, the quantified
#: ``where`` and the predicate ``$r[ZONE eq z]``.  A step in list form
#: (``return $r/NAME``, ``<P>{$r/RID}…</P>``) is handed the <REGION>'s own
#: column leaf, unread, and the <REGION> stays unread too
NAVIGATED = {0, 3, 4}


def test_the_benchmarks_scans_are_streamed_and_serialized_without_a_tree(layered, builds):
    workloads, platform = layered
    scans = workloads["pushed_scan"].requests(1)
    templates = [(position, request) for i in (1, 3)
                 for position, request in enumerate(workloads["cold_compile"].requests(i))]
    assert (len(scans), len(templates)) == (3, 12)
    deferred = navigated = 0
    for position, request in [(None, scan) for scan in scans] + templates:
        builds.clear()
        items = list(platform.stream(request.text, request.variables))
        assert serialize(items) == request.expected
        assert builds == [], request.text
        if position in NAVIGATED:
            navigated += len(items)
            continue
        assert unread(items), request.text
        deferred += len(items)
    assert deferred > 100 and navigated > 10


def test_a_file_of_results_is_written_without_a_tree(builds, tmp_path):
    platform = build_demo_platform(customers=5, orders_per_customer=1)
    query = "for $c in CUSTOMER() return <C>{$c/CID}{$c/LAST_NAME}</C>"
    assert platform.execute_to_file(query, tmp_path / "out.xml") == 5
    assert (tmp_path / "out.xml").read_text().replace("\n", "") == \
        serialize(platform.execute(query))
    assert platform.execute_to_file(query, tmp_path / "pretty.xml", indent=2) == 5
    # pretty-printing walks the tree: each <C>, then each of its two leaves
    assert [element.name.local for element in builds] == ["C", "CID", "LAST_NAME"] * 5


# ---------------------------------------------------------------------------
# Read: one tree per element, built once
# ---------------------------------------------------------------------------


@pytest.fixture
def platform():
    return build_demo_platform(customers=4, orders_per_customer=1)


def test_a_path_step_builds_each_row_once(platform, builds):
    """... at most: a step in list form is handed each row's own column
    leaf, the same node every time, and builds nothing."""
    rows = platform.execute("CUSTOMER()")
    assert unread(rows) and builds == []
    first = platform.execute("$c/CID", {"c": rows})
    for _ in range(2):
        cids = platform.execute("$c/CID", {"c": rows})
        assert serialize(cids) == "<CID>C1</CID><CID>C2</CID><CID>C3</CID><CID>C4</CID>"
        assert all(cid is was for cid, was in zip(cids, first))
        assert builds == []
    assert unread(rows) and unread(first)


def test_atomization_builds_each_leaf_once(platform, builds):
    """... at most: a leaf's ``fn:data`` and ``string()`` read its row, and
    so does an atomized child step on an unread row, so nothing is built."""
    names = platform.execute("for $c in CUSTOMER() return $c/LAST_NAME")
    assert unread(names)
    want = ["Jones", "Smith", "Nguyen", "Garcia"]
    for _ in range(2):
        atoms = platform.execute("fn:data($n)", {"n": names})
        assert [(atom.value, atom.type_name) for atom in atoms] == \
            [(name, "xs:string") for name in want]
        strings = platform.execute("for $x in $n return fn:string($x)", {"n": names})
        assert [atom.value for atom in strings] == want
    rows = platform.execute("CUSTOMER()")
    assert [atom.value for atom in platform.execute(
        "for $c in $r return fn:data($c/LAST_NAME)", {"r": rows})] == want
    assert builds == [] and unread(names) and unread(rows)


def test_the_copying_constructor_copies_without_building(platform, builds):
    rows = platform.execute("CUSTOMER()")
    [wrapper] = platform.execute("<W>{$c}</W>", {"c": rows})
    copies = list(wrapper.children())
    assert builds == [] and unread(copies)
    assert all(copy is not row and copy.parent is wrapper for copy, row in zip(copies, rows))
    assert serialize(wrapper) == "<W>" + serialize(rows) + "</W>"
    for _ in range(2):
        assert len(platform.execute("$w/CUSTOMER/SSN", {"w": [wrapper]})) == 4
        assert builds == []  # the copies hand out their leaves; nothing is built
    assert unread(rows) and unread(copies)


def test_an_sdo_reads_its_element_once(platform, builds):
    platform.deploy('''
        xquery version "1.0" encoding "UTF8";
        declare namespace r="urn:rows";
        (::pragma function kind="read" ::)
        declare function r:getRows() as element(CUSTOMER)* {
          for $c in CUSTOMER() return $c
        };''', name="Rows")
    objects = platform.read_for_update("Rows", "getRows")
    # the object walks every leaf: each element is built; an unread column
    # leaf says from its template that it is a leaf, and of what type
    assert builds == [obj.element for obj in objects]
    assert len(objects) == 4 and unread(objects[0].element.children())
    objects[0].setLAST_NAME("Renamed")
    assert objects[0].getLAST_NAME() == "Renamed"
    assert serialize(objects[0].element).count("<LAST_NAME>Renamed</LAST_NAME>") == 1
    # the set rewrote one leaf, which it built first
    assert builds[4:] == objects[0].element.child_elements(QName("LAST_NAME"))
    assert len(builds) == 4 + 1


def test_an_element_policy_builds_only_what_it_can_match(platform, builds):
    rows = platform.execute("CUSTOMER()")
    platform.security.protect_element(("PROFILE", "CREDIT_CARDS"), {"analyst"})
    passed = platform.security.filter_items(rows, CLERK)
    assert builds == [] and unread(passed)  # <CUSTOMER> has no such path
    assert all(out is row for out, row in zip(passed, rows))  # as to an admin
    assert serialize(passed) == serialize(rows)

    platform.security.protect_element(("CUSTOMER", "SSN"), {"analyst"})
    filtered = platform.security.filter_items(rows, CLERK)
    assert builds == filtered and unread(rows)  # each copy built once, no original
    assert "<SSN>" not in serialize(filtered) and serialize(rows).count("<SSN>") == 4
    streamed = list(platform.stream("CUSTOMER()", user=CLERK))
    assert serialize(streamed) == serialize(filtered)
    assert len(builds) == 8
    assert unread(platform.stream("CUSTOMER()", user=User.of("ann", "analyst")))


# ---------------------------------------------------------------------------
# The security filter, with and without deferral
# ---------------------------------------------------------------------------


def filtered_with(items_of, template, path, action):
    """(bytes, audit log) of the clerk's view of every row group, the
    items of each built by ``items_of(template, row, group)``."""
    service = SecurityService()
    service.enable_auditing()
    service.protect_element(("PROFILE", "CREDIT_CARDS"), {"analyst"})  # never matches
    service.protect_element(path, {"analyst"}, action, replacement="***")
    out = []
    for group in [[row] for row in ROWS] + [ROWS, ROWS[1:3]]:
        items = items_of(template, group[0], group)
        out.append(serialize(service.filter_items(items, CLERK)))
        assert serialize(items) == serialize(service.filter_items(items, User.of("a", "analyst")))
    return out, [(r.kind, r.subject, r.decision) for r in service.audit_log]


def deferred(template, row, group):
    return template_fn(template)(row, group)


@pytest.mark.parametrize("action", ["remove", "replace"])
@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_filtering_a_deferred_element_is_filtering_its_tree(name, action, builds):
    """The eager side is the plain reading of the template, which builds
    every tree in full; the deferred side builds only the elements a
    denied path can lie under, at any depth."""
    template = TEMPLATES[name]
    paths = {path for row in ROWS for item in template_fn(template)(row, ROWS)
             if isinstance(item, DeferredElement) for path in item._source[0].paths}
    for path in sorted(paths) + [("NOWHERE",), ("A", "NOWHERE")]:
        builds.clear()
        got = filtered_with(deferred, template, path, action)
        assert all(path[:len(built_path(element))] == built_path(element)
                   for element in builds), path
        assert got == filtered_with(reference, template, path, action), path
        if path not in paths:
            assert builds == [], path


def built_path(element) -> tuple:
    """Local names from the result's element down to ``element``."""
    names = []
    while element is not None:
        names.append(element.name.local)
        element = element.parent
    return tuple(reversed(names))


def test_static_paths_are_local_names_from_the_element_down():
    [profile] = template_fn(TEMPLATES["nested slot with null-extended rows"])(ROWS[0], ROWS)
    assert profile._source[0].paths == {
        ("OUT",), ("OUT", "ID"), ("OUT", "INNER"), ("OUT", "INNER", "I"),
        ("OUT", "INNER", "I", "P")}
    [leaf] = template_fn(TEMPLATES["element slot on its own"])(ROWS[0], ROWS)
    assert leaf._source[0].paths == {("Y",)}


# ---------------------------------------------------------------------------
# A child step hands out the row's column leaf; the build adopts it
# ---------------------------------------------------------------------------
#
# A list-form step ``$r/NAME`` whose name only column leaves of the row's
# template can yield is answered from the row: the leaves are row-backed,
# memoised on the element (the same node on every step), parented to it, and
# adopted by the element's later build in place of the ones the build makes.
# A name anything else can also yield takes the tree.  Path steps also
# return each node once, however often its parent occurs in the context.


def one(template, row):
    [element] = template_fn(template)(row, [row])
    return element


def test_a_step_hands_out_the_same_leaf_every_time(platform, builds):
    rows = platform.execute("CUSTOMER()")
    first = platform.execute("$c/CID", {"c": rows})
    again = platform.execute("$c/CID", {"c": rows})
    assert len(first) == 4 and all(a is b for a, b in zip(first, again))
    assert all(cid.parent is row for cid, row in zip(first, rows))
    assert builds == [] and unread(rows) and unread(first)


def test_the_build_adopts_the_leaf_at_its_template_position(platform, builds):
    rows = platform.execute("CUSTOMER()")
    names = platform.execute("$c/LAST_NAME", {"c": rows})
    for row, name in zip(rows, names):
        children = list(row.children())
        position = [child.name.local for child in children].index("LAST_NAME")
        assert children[position] is name and name.parent is row
        assert row.child_elements(QName("LAST_NAME")) == [name]
        assert unread([name])  # adopted, not built
    assert builds == rows
    # after the build the step reads the tree, which holds the same node
    assert all(a is b for a, b in zip(platform.execute("$c/LAST_NAME", {"c": rows}), names))


def test_a_null_column_is_absent_from_the_hand_out_and_the_tree():
    template = el("R", col("a", "xs:int", "X"), col("b", element="Y"), col("c", "xs:int", "X"))
    row = {"a": None, "b": "y", "c": 3}
    element = one(template, row)
    xs = element.children_named("X")
    assert [x.string_value() for x in xs] == ["3"] and element._source is not None
    assert element.children_named("Y")[0].string_value() == "y"
    assert [child.name.local for child in element.children()] == ["Y", "X"]
    assert element.children()[1] is xs[0]
    nothing = one(template, {"a": None, "b": None, "c": None})
    assert nothing.children_named("X") == [] and list(nothing.children()) == []


def test_a_set_through_a_handed_out_leaf_shows_once_the_parent_builds(platform, builds):
    rows = platform.execute("CUSTOMER()")
    [name] = platform.execute("$c/LAST_NAME", {"c": rows[:1]})
    # what the SDO setter does to the leaf it resolves: the unread parent
    # adopts the leaf first, so it is never written from a stale row
    name.replace_children([TextNode("Renamed")])
    assert builds == [rows[0], name]
    assert rows[0].children_named("LAST_NAME") == [name]
    assert "<LAST_NAME>Renamed</LAST_NAME>" in serialize(rows[0])
    # through a data object: its walk builds the row, which adopts the leaf
    [ssn] = platform.execute("$c/SSN", {"c": rows[1:2]})
    obj = DataObject(rows[1], "Rows")
    obj.setSSN("000")
    assert ssn.string_value() == "000" and obj.getSSN() == "000"
    assert serialize(rows[1]).count("<SSN>000</SSN>") == 1


def test_a_data_object_reads_its_leaves_without_building_them(platform, builds):
    rows = platform.execute("CUSTOMER()")
    obj = DataObject(rows[0], "Rows")
    assert builds == [rows[0]] and unread(rows[0].children())
    assert obj.getCID() == "C1" and builds == [rows[0]]
    leaf = rows[0].children()[0]
    assert leaf.child_elements() == [] and leaf.type_annotation == "xs:string"
    assert unread([leaf])


@pytest.mark.parametrize("shadow", [
    el("X", col("b")), NestedSlot(col("b", element="X"), "p"),
], ids=["nested constructor", "nested slot member"])
def test_a_name_another_part_can_yield_takes_the_tree(shadow, builds):
    element = one(el("R", col("a", "xs:int", "X"), shadow, col("c", "xs:int", "Y")), ROWS[0])
    assert "X" not in element._source[0].children
    assert [x.name.local for x in element.children_named("X")] == ["X", "X"]
    assert builds == [element] and element._source is None
    plain = one(el("R", col("a", "xs:int", "X"), col("c", "xs:int", "Y")), ROWS[0])
    assert len(plain.children_named("X")) == 1 and unread([plain])


# ---------------------------------------------------------------------------
# A path's result holds each node once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query, want", [
    ("let $x := <a><b/></a> return fn:count(($x, $x)/b)", 1),
    ("let $x := <a><b/><b/></a> return fn:count(($x, $x)/b[1])", 1),
    ("let $x := <a><b/></a>, $y := <a><b/></a> return fn:count(($x, $y, $x)/b)", 2),
    ("let $x := <a><b><c/></b></a> return fn:count(($x, $x)/b/c)", 1),
])
def test_a_step_returns_each_node_once(platform, query, want):
    assert [atom.value for atom in platform.execute(query)] == [want]


def test_a_repeated_row_is_stepped_into_once(platform):
    rows = platform.execute("CUSTOMER()")[:2]
    assert platform.execute("fn:count(($r, $r)/CID)", {"r": rows})[0].value == 2
    ids = platform.execute("fn:string-join(($r, $r, $r)/CID, ',')", {"r": rows})
    assert ids[0].value == "C1,C2"
    # the atom lane: each row's column is read once
    assert platform.execute("fn:sum(($r, $r)/SINCE)", {"r": rows})[0].value == 864000 * 3


# ---------------------------------------------------------------------------
# Generated: the hand-out is the built tree's step
# ---------------------------------------------------------------------------

NAMES = ["X", "Y", "Z"]
LEAVES = st.builds(col, st.sampled_from("abc"), st.sampled_from(["xs:string", "xs:int"]),
                   st.sampled_from(NAMES))
PARTS = st.one_of(
    LEAVES, LEAVES, LEAVES,
    st.builds(col, st.sampled_from("abc")),  # an atom
    st.just(lit("t")),
    st.builds(lambda name, leaf: el(name, leaf), st.sampled_from(NAMES), LEAVES),  # shadows
    st.builds(lambda leaf: NestedSlot(leaf, "p"), LEAVES))
RECORDS = st.builds(lambda parts: el("R", *parts), st.lists(PARTS, max_size=6))
VALUE = st.one_of(st.none(), st.sampled_from(["1", "x", "<&"]))
ROW = st.fixed_dictionaries({alias: VALUE for alias in "abcp"})


@settings(max_examples=120, derandomize=True, deadline=None)
@given(RECORDS, ROW)
def test_a_handed_out_step_is_the_built_step(template, row):
    for name in NAMES + ["W"]:
        handed = one(template, row)
        built = one(template, row)
        from_row = handed._source is not None and name in handed._source[0].children
        got = handed.children_named(name)
        assert from_row == (handed._source is not None), name  # else it was built
        list(built.children())  # forced
        want = built.children_named(name)
        assert serialize(got) == serialize(want), name
        assert [shape(node) for node in got] == [shape(node) for node in want]
        assert all(node.parent is handed for node in got)
        assert all(a is b for a, b in zip(handed.children_named(name), got))
        # the later build adopts every handed-out node, in its place
        children = list(handed.children())
        assert [child.name.local for child in children if hasattr(child, "name")] == \
            [child.name.local for child in built.children() if hasattr(child, "name")]
        assert [node for node in children
                if getattr(node, "name", None) and node.name.local == name] == got
        assert all(a is b for a, b in zip(handed.children_named(name), got))
        assert serialize(handed) == serialize(built)
