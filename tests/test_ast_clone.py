"""``AstNode.clone()``: the one way the compiler copies a tree.

Every node class — found by walking ``AstNode.__subclasses__()``, so a new
class cannot be forgotten — is cloned from a populated sample and checked
for what a copy must be: equal ``repr``, no node or list shared with the
original, immutable leaves (static types, literal values, table metadata)
shared by identity, every stamp its class declares kept, memos dropped.
Stamps and memos are read from each class's declaration, so a new one is
covered without an edit here.
"""

from __future__ import annotations

import copy

import pytest

from repro.compiler import algebra
from repro.demo import build_demo_platform
from repro.runtime.operators.pushedsql import render_pushed
from repro.schema.types import ITEM_STAR
from repro.sql.ast_nodes import BinOp, ColumnRef, Select, SelectItem, SqlLiteral, TableRef
from repro.xml import AtomicValue, serialize
from repro.xquery import ast_nodes as ast

META = algebra.TableMeta("db", "T", "T", [("A", "xs:string")], ("A",), "oracle")
ONE = AtomicValue(1, "xs:integer")


def var(name="x"):
    return ast.VarRef(name)


def lit():
    return ast.Literal(ONE)


def pushed():
    select = Select([SelectItem(ColumnRef("t1", "A"), "c1")], [TableRef("T", "t1")])
    return algebra.PushedSQL(
        "db", "oracle", select, [var("p")], algebra.ColumnSlot("c1", "xs:string", "A"),
        regroup=["c1"],
        correlation=algebra.Correlation(ColumnRef("t1", "A"), "c1", var("outer")))


#: one populated sample per node class
SAMPLES = {
    ast.AstNode: ast.AstNode,
    ast.Literal: lit,
    ast.EmptySequence: ast.EmptySequence,
    ast.VarRef: var,
    ast.ContextItem: ast.ContextItem,
    ast.SequenceExpr: lambda: ast.SequenceExpr([var(), lit()]),
    ast.RangeTo: lambda: ast.RangeTo(lit(), var()),
    ast.Arithmetic: lambda: ast.Arithmetic("+", var(), lit()),
    ast.UnaryMinus: lambda: ast.UnaryMinus(var()),
    ast.Comparison: lambda: ast.Comparison("eq", var(), lit(), False),
    ast.AndExpr: lambda: ast.AndExpr(var(), lit()),
    ast.OrExpr: lambda: ast.OrExpr(var(), lit()),
    ast.IfExpr: lambda: ast.IfExpr(var(), lit(), ast.EmptySequence()),
    ast.Quantified: lambda: ast.Quantified("some", [("v", var()), ("w", lit())], var("v")),
    ast.FunctionCall: lambda: ast.FunctionCall("fn:count", [var()]),
    ast.CastExpr: lambda: ast.CastExpr("cast", var(), ITEM_STAR),
    ast.Step: lambda: ast.Step("child", ast.NameTest("A"), [lit()]),
    ast.PathExpr: lambda: ast.PathExpr(var(), [ast.Step("child", ast.NameTest("A"))]),
    ast.FilterExpr: lambda: ast.FilterExpr(var(), [lit()]),
    ast.AttributeCtor: lambda: ast.AttributeCtor("a", var(), optional=True),
    ast.ElementCtor: lambda: ast.ElementCtor(
        "E", [ast.AttributeCtor("a", lit())], [var(), lit()], optional=True),
    ast.Clause: ast.Clause,
    ast.ForClause: lambda: ast.ForClause("v", var(), "p", ITEM_STAR),
    ast.LetClause: lambda: ast.LetClause("v", var(), ITEM_STAR),
    ast.WhereClause: lambda: ast.WhereClause(var()),
    ast.GroupByClause: lambda: ast.GroupByClause([("s", "t")], [(var(), "k"), (lit(), "l")]),
    ast.OrderSpec: lambda: ast.OrderSpec(var(), True, True),
    ast.OrderByClause: lambda: ast.OrderByClause([ast.OrderSpec(var())]),
    ast.FLWOR: lambda: ast.FLWOR(
        [ast.ForClause("v", var()), ast.WhereClause(var("v"))], var("v")),
    ast.TypeswitchExpr: lambda: ast.TypeswitchExpr(
        var(), [("c", ITEM_STAR, var("c")), (None, ITEM_STAR, lit())], "d", var("d")),
    ast.TypeMatch: lambda: ast.TypeMatch(var(), ITEM_STAR),
    ast.ErrorExpr: lambda: ast.ErrorExpr("broken", [var()]),
    algebra.SourceCall: lambda: algebra.SourceCall("T", [var()], "table", META),
    algebra.ColumnSlot: lambda: algebra.ColumnSlot("c1", "xs:string", "A"),
    algebra.NestedSlot: lambda: algebra.NestedSlot(algebra.ColumnSlot("c1", "xs:int"), "c2"),
    algebra.GroupSlot: lambda: algebra.GroupSlot(algebra.ColumnSlot("c1", "xs:int")),
    algebra.PushedSQL: pushed,
    algebra.PushedTupleForClause: lambda: algebra.PushedTupleForClause(
        [("a", algebra.ColumnSlot("c1", "xs:string", "A"))], pushed()),
    algebra.PPkLetClause: lambda: algebra.PPkLetClause("g", pushed(), 20),
    algebra.IndexJoinForClause: lambda: index_join(),
}


def index_join():
    """An index join holding, as a cost-based plan's does, the PP-k clause
    it replaced (``replan_ppk``) — stamped, and with memos the runtime
    wrote when a re-plan ran it: a node held in a stamp, not a child."""
    join = algebra.IndexJoinForClause("v", var(), var("v"), var("o"))
    join.replan_ppk = twin = sample(algebra.PPkLetClause)
    for sub in (twin, twin.pushed):
        for name in memos(type(sub)):
            setattr(sub, name, lambda *args: "compiled for the original")
    return join


def node_classes() -> list[type]:
    found, queue = [ast.AstNode], [ast.AstNode]
    while queue:
        for sub in queue.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                queue.append(sub)
    return found


def parts(value, nodes: dict, lists: dict) -> None:
    """Every AstNode and list reachable from ``value``, by id — through
    every attribute, not only ``_fields`` (``var_templates``, ``cases``,
    a region's correlation)."""
    if isinstance(value, ast.AstNode):
        if id(value) in nodes:
            return
        nodes[id(value)] = value
        for held in vars(value).values():
            parts(held, nodes, lists)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            lists[id(value)] = value
        for entry in value:
            parts(entry, nodes, lists)
    elif isinstance(value, algebra.Correlation):
        parts(value.outer_key, nodes, lists)


def stamp_value(name):
    return f"stamped {name}"


def memos(cls) -> set[str]:
    """The memos ``cls`` declares (``_name: T = None``), plus one it does
    not: a memo is any ``_``-prefixed instance attribute, not a list."""
    declared = {name for klass in cls.__mro__
                for name in vars(klass).get("__annotations__", ())
                if name[0] == "_" and name in vars(klass)
                and name not in ("_fields", "_attrs")}
    return declared | {"_undeclared_memo"}


def memos_held(tree) -> set[str]:
    return {name for sub in tree.every_node() for name in vars(sub) if name[0] == "_"}


def sample(cls):
    node = SAMPLES[cls]()
    for sub in node.walk():
        sub.static_type = ITEM_STAR
        sub.line = 3
    for name in ast.stamps_of(cls):
        if name not in vars(node):
            setattr(node, name, stamp_value(name))
    return node


def test_every_node_class_has_a_sample():
    classes = node_classes()
    assert set(classes) == set(SAMPLES)
    assert len(classes) > 35  # both modules were imported and walked


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
class TestClone:
    def test_equal_but_private(self, cls):
        original = sample(cls)
        before = repr(original)
        clone = original.clone()
        assert type(clone) is cls
        assert repr(clone) == before
        nodes, lists = {}, {}
        parts(original, nodes, lists)
        clone_nodes, clone_lists = {}, {}
        parts(clone, clone_nodes, clone_lists)
        assert len(clone_nodes) == len(nodes)
        assert not set(nodes) & set(clone_nodes)
        assert not set(lists) & set(clone_lists)
        # rewriting the clone never shows in the original
        clone.transform_children(lambda child: ast.VarRef("rewritten"))
        for sub in clone.walk():
            sub.rename_vars({"v": "renamed", "x": "renamed"})
        assert repr(original) == before

    def test_shares_immutable_leaves_and_keeps_stamps(self, cls):
        original = sample(cls)
        clone = original.clone()
        for before, after in zip(original.every_node(), clone.every_node()):
            assert after.static_type is before.static_type
            assert after.line == before.line
            if isinstance(before, ast.Literal):
                assert after.value is before.value
            if isinstance(before, algebra.SourceCall):
                assert after.table_meta is before.table_meta
            if isinstance(before, (ast.CastExpr, ast.TypeMatch)):
                assert after.target is before.target
            if isinstance(before, ast.Step):
                assert after.test is before.test
            for name in ast.stamps_of(type(before)):
                kept, value = getattr(after, name), getattr(before, name)
                if isinstance(value, ast.AstNode):  # compared in its own turn
                    assert type(kept) is type(value) and kept is not value
                else:
                    assert kept == value
        assert clone.op_id == stamp_value("op_id")

    def test_drops_memos(self, cls):
        original = sample(cls)
        for name in memos(cls):
            setattr(original, name, lambda *args: "compiled for the original")
        original._sql_text = "SELECT rendered for the original"  # text, not a closure
        clone = original.clone()
        assert not memos_held(clone)
        assert set(vars(original)) >= memos(cls)

    def test_deepcopy_is_clone(self, cls):
        original = sample(cls)
        original._rowfn = lambda evaluator, env: []
        duplicate = copy.deepcopy(original)
        assert repr(duplicate) == repr(original)
        assert "_rowfn" not in vars(duplicate)
        assert duplicate.static_type is original.static_type


def test_pushed_region_copies_its_sql_and_correlation():
    original = pushed()
    clone = original.clone()
    assert clone.select == original.select and clone.select is not original.select
    assert clone.correlation is not original.correlation
    assert clone.correlation.outer_key is not original.correlation.outer_key
    clone.select.where = BinOp("=", ColumnRef("t1", "A"), SqlLiteral("x"))
    clone.regroup.append("c9")
    assert original.select.where is None and original.regroup == ["c1"]


def test_clone_renames_binders_and_references_in_the_same_pass():
    flwor = ast.FLWOR(
        [ast.ForClause("v", var("free"), "p"),
         ast.LetClause("w", ast.Quantified("every", [("q", var("v"))], var("q"))),
         ast.GroupByClause([("w", "ws")], [(var("v"), "k")])],
        ast.SequenceExpr([var("ws"), var("k"), var("param")]))
    before = repr(flwor)
    clone = flwor.clone({"v": "#v1", "p": "#p2", "w": "#w3", "q": "#q4",
                         "ws": "#ws5", "k": "#k6", "param": "#param7"})
    assert repr(flwor) == before
    text = repr(clone)
    for old in ("'v'", "'p'", "'w'", "'q'", "'ws'", "'k'", "'param'"):
        assert old not in text
    assert "VarRef(name='free')" in text
    assert clone.clauses[2].grouped == [("#w3", "#ws5")]


class TestStaleMemos:
    """A copied-then-rewritten node must evaluate and render the rewritten
    tree: ``copy.deepcopy`` used to carry ``_rowfn`` / ``_sql_text`` /
    ``_template_fn`` along, closures compiled for the original's children."""

    QUERY = ('for $c in CUSTOMER() where (some $z in ("C1", "C2") '
             'satisfies $c/CID eq $z) return $c/LAST_NAME')

    def test_rewritten_clone_gets_its_own_result_and_sql(self):
        platform = build_demo_platform(customers=3, orders_per_customer=0)
        plan = platform.prepare(self.QUERY)
        original_out = serialize(platform.execute(self.QUERY))
        region = plan.expr.clauses[0].expr
        assert isinstance(region, algebra.PushedSQL)
        held = {name for sub in plan.expr.walk() for name in vars(sub)}
        assert held >= {"_rowfn", "_sql_text", "_template_fn"}

        clone = plan.expr.clone()
        assert not memos_held(clone)
        copied = clone.clauses[0].expr
        # rewrite all three: the shipped SQL, the rebuilt element, the
        # return expression
        copied.select.where = BinOp("<>", ColumnRef("t1", "CID"), SqlLiteral("C1"))
        copied.template.name = "PERSON"
        clone.return_expr.steps[0].test = ast.NameTest("FIRST_NAME")

        evaluator = platform.evaluator
        sql = render_pushed(copied, evaluator)
        assert "<> 'C1'" in sql and sql != render_pushed(region, evaluator)
        rewritten_out = serialize(evaluator.eval(clone, {}))
        assert rewritten_out == "<FIRST_NAME>Bo</FIRST_NAME>"
        assert rewritten_out != original_out
        # and the original still runs as it did
        assert serialize(evaluator.eval(plan.expr, {})) == original_out

    def test_a_ppk_region_that_ran_is_cloned_without_its_rendered_buckets(self):
        """PP-k renders one disjunctive statement per bucket size and keeps
        them on the region (``_ppk_sql_cache``): a clone whose select is then
        rewritten must render its own."""
        platform = build_demo_platform(customers=3, orders_per_customer=2)
        query = 'getProfileByID("C1")'
        plan = platform._compiler().compile_expression(query)
        out = serialize(platform.evaluator.eval(plan.expr, {}))
        regions = [clause.pushed for clause in plan.expr.walk()
                   if isinstance(clause, algebra.PPkLetClause)]
        assert regions and all(vars(region).get("_ppk_sql_cache") for region in regions)
        clone = plan.expr.clone()
        assert not any("_ppk_sql_cache" in vars(sub) for sub in clone.walk())
        assert serialize(platform.evaluator.eval(clone, {})) == out


def test_compiling_the_running_example_never_deep_copies_a_node(monkeypatch):
    """Under ``src/repro/compiler``, ``sql`` and ``services`` every copy is
    a ``clone()``: with ``__deepcopy__`` booby-trapped the running example
    still compiles — view-cache miss, then hit — and runs."""
    def refuse(self, memo):
        raise AssertionError(f"copy.deepcopy reached {type(self).__name__}")

    platform = build_demo_platform(customers=3, orders_per_customer=2)
    monkeypatch.setattr(ast.AstNode, "__deepcopy__", refuse)
    cold = platform.prepare('getProfileByID("C1")')
    platform.plan_cache.clear()
    warm = platform.prepare('getProfileByID("C1")')
    assert platform.view_cache.hits >= 1
    assert repr(warm.expr) == repr(cold.expr)
    platform.configure(cost_based=True)
    platform.prepare("for $c in CUSTOMER() return <C>{$c/CID}{ for $cc in "
                     "CREDIT_CARD() where $cc/CID eq $c/CID return $cc/NUMBER }</C>")
    assert platform.lineage("ProfileService") is not None
