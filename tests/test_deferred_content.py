"""Deferred content (DESIGN.md "Deferred content"): which consumers of a
reconstruction template's element build its tree, and that the security
filter decides the same whether or not it is built.

``builds`` spies on the one place a tree is built, the first read of a
:class:`~repro.xml.items.DeferredElement`; the writer's bytes and the built
tree are held together by ``tests/test_pushed_rebuild.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import serialize
from repro.demo import build_demo_platform
from repro.runtime.operators.pushedsql import template_fn
from repro.security.policy import SecurityService, User
from repro.xml.items import DeferredElement
from tests.test_pushed_rebuild import ROWS, TEMPLATES, reference

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


#: the cold_compile shapes that navigate their rows mid-tier, by position,
#: and the row element each builds per item it returns.  An atomized child
#: step reads the row: ``getProfileByID``'s ``fn:data($c/CID)`` and PP-k keys
#: (it builds no <CUSTOMER>), the quantified ``where`` and the predicate
#: ``$r[ZONE eq z]``.  A step in list form returns the element's own
#: children, so ``return $r/NAME`` and ``<P>{$r/RID}…</P>`` build the
#: <REGION> they return from — its root only: the leaves stay unread
NAVIGATED = {0: None, 3: "REGION", 4: "REGION"}


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
        if position in NAVIGATED:
            name = NAVIGATED[position]
            assert [element.name.local for element in builds] == \
                [name] * (len(items) if name else 0), request.text
            assert len({id(element) for element in builds}) == len(builds)  # once each
            navigated += len(builds)
            continue
        assert builds == [], request.text
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
    rows = platform.execute("CUSTOMER()")
    assert unread(rows) and builds == []
    for _ in range(2):
        assert serialize(platform.execute("$c/CID", {"c": rows})) == \
            "<CID>C1</CID><CID>C2</CID><CID>C3</CID><CID>C4</CID>"
        assert builds == rows
    assert all(type(row) is DeferredElement and row._source is None for row in rows)


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
        assert builds == copies  # the copies were read; the originals never
    assert unread(rows)


def test_an_sdo_reads_its_element_once(platform, builds):
    platform.deploy('''
        xquery version "1.0" encoding "UTF8";
        declare namespace r="urn:rows";
        (::pragma function kind="read" ::)
        declare function r:getRows() as element(CUSTOMER)* {
          for $c in CUSTOMER() return $c
        };''', name="Rows")
    objects = platform.read_for_update("Rows", "getRows")
    # the object walks every leaf (is it one?): each element, then its leaves
    assert builds == [element for obj in objects
                      for element in (obj.element, *obj.element.children())]
    assert len(objects) == 4 and len(builds) == 4 * 6
    objects[0].setLAST_NAME("Renamed")
    assert objects[0].getLAST_NAME() == "Renamed"
    assert serialize(objects[0].element).count("<LAST_NAME>Renamed</LAST_NAME>") == 1
    assert len(builds) == 4 * 6


def test_an_element_policy_builds_only_what_it_can_match(platform, builds):
    rows = platform.execute("CUSTOMER()")
    platform.security.protect_element(("PROFILE", "CREDIT_CARDS"), {"analyst"})
    passed = platform.security.filter_items(rows, CLERK)
    assert builds == [] and unread(passed)  # <CUSTOMER> has no such path
    assert all(out is not row for out, row in zip(passed, rows))  # still a copy
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
