"""Join keys with no atom, one atom or several: a query rewritten into a
join means what it meant as a nested loop.

Both join operators hash their keys — PP-k partitions the fetched rows by
the correlation column, the index nested-loop join indexes its inner
sequence — so each has to say what a key of several atoms does.  The
rewritten comparison's ``general`` flag decides (``Correlation.general``,
``IndexJoinForClause.general``): ``=`` joins on any pair of atoms, each
(outer, inner) pair once and in inner order; ``eq`` is the nested loop's
error.  Every case is held to the run with pushdown off, which keeps the
``for`` + ``where`` the query was written as: result bytes or error text.
"""

from __future__ import annotations

import pytest

from repro import serialize
from repro.demo import build_demo_platform
from repro.errors import DynamicError
from repro.xml.items import AtomicValue


def outcome(platform, query: str, variables: dict | None = None) -> str:
    try:
        return serialize(platform.execute(query, variables))
    except DynamicError as exc:
        return f"DynamicError: {exc}"


def demo(configure=None):
    """C1..C3 with two orders each (O1, O2 -> C1; O3, O4 -> C2; …) and one
    order whose CID is NULL."""
    platform = build_demo_platform(customers=3, orders_per_customer=2)
    platform.ctx.databases["custdb"].table("ORDER").insert(
        {"OID": "O7", "CID": None, "AMOUNT": 1})
    if configure is not None:
        configure(platform)
    return platform


def nested_loop(platform) -> None:
    platform.configure(pushdown=False)  # also keeps joins as for + where


#: outer rows by the shape of their join key
OUTER_ROWS = {
    "multi": "(<R><CID>C2</CID><CID>C1</CID></R>, <R><CID>C3</CID></R>)",
    "multi_duplicate": "(<R><CID>C1</CID><CID>C1</CID></R>, <R><CID>C1</CID></R>)",
    "multi_unmatched": "(<R><CID>C9</CID><CID>C8</CID></R>, <R><CID>C2</CID></R>)",
    "empty": "(<R/>, <R><CID>C3</CID></R>)",
    "single": "(<R><CID>C2</CID></R>, <R><CID>C1</CID></R>)",
}

STRATEGIES = {
    "ppk": lambda platform: platform.configure(ppk_block_size=2),
    "index-join": lambda platform: platform.configure(force_strategy="index-join"),
    "ship-all": lambda platform: platform.configure(force_strategy="ship-all"),
}


class TestSourceJoins:
    """An outer sequence joined to a table: PP-k, or — costed — the index
    join and ship-all plans made from the same correlation."""

    @pytest.mark.parametrize("op", ["=", "eq"])
    @pytest.mark.parametrize("rows", OUTER_ROWS)
    def test_ppk_in_a_return(self, rows, op):
        query = (f"for $r in {OUTER_ROWS[rows]} return <X>{{ for $o in ORDER() "
                 f"where $o/CID {op} $r/CID return $o/OID }}</X>")
        assert "PP-" in demo().explain(query)
        assert outcome(demo(), query) == outcome(demo(nested_loop), query)

    @pytest.mark.parametrize("op", ["=", "eq"])
    @pytest.mark.parametrize("rows", OUTER_ROWS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_flat_join_under_every_strategy(self, strategy, rows, op):
        query = (f"for $r in {OUTER_ROWS[rows]} for $o in ORDER() "
                 f"where $r/CID {op} $o/CID return <P>{{$r/CID}}{{$o/OID}}</P>")
        expected = outcome(demo(nested_loop), query)
        assert outcome(demo(STRATEGIES[strategy]), query) == expected
        if op == "eq" and rows.startswith("multi"):
            assert expected == "DynamicError: value comparison over multi-item sequence"

    def test_any_atom_joins_in_table_order(self):
        """The two reproducers of the issue: first-atom-wins under ``=``,
        an answer where the nested loop raises under ``eq``."""
        query = ("for $r in (<R><CID>C2</CID><CID>C1</CID></R>, <R><CID>C3</CID></R>) "
                 "return <X>{ for $o in ORDER() where $o/CID = $r/CID return $o/OID }</X>")
        assert outcome(demo(), query) == (
            "<X><OID>O1</OID><OID>O2</OID><OID>O3</OID><OID>O4</OID></X>"
            "<X><OID>O5</OID><OID>O6</OID></X>")
        assert outcome(demo(), query.replace(" = ", " eq ")) == \
            "DynamicError: value comparison over multi-item sequence"


#: in-memory sides for the index nested-loop join, by the shape of their keys
SIDES = {
    "single": "(<{0}><K>2</K></{0}>, <{0}><K>3</K></{0}>, <{0}><K>2</K></{0}>)",
    "multi": "(<{0}><K>1</K><K>2</K></{0}>, <{0}><K>3</K></{0}>, <{0}><K>2</K><K>3</K></{0}>)",
    "empty": "(<{0}/>, <{0}><K>3</K></{0}>)",
    "all_empty": "(<{0}/>, <{0}/>)",
}


class TestIndexJoin:
    @pytest.mark.parametrize("op", ["=", "eq"])
    @pytest.mark.parametrize("inner", SIDES)
    @pytest.mark.parametrize("outer", SIDES)
    def test_every_pair_of_key_shapes(self, outer, inner, op):
        query = (f"for $a at $p in {SIDES[outer].format('A')} "
                 f"for $b in {SIDES[inner].format('B')} "
                 f"where $b/K {op} $a/K return <P>{{$p}}{{$b}}</P>")
        assert "INDEX NESTED-LOOP JOIN" in demo().explain(query)
        assert outcome(demo(), query) == outcome(demo(nested_loop), query)

    def test_the_issues_reproducer(self):
        query = ("for $a in (<A><K>1</K><K>2</K></A>, <A><K>3</K></A>) "
                 "for $b in (<B><K>2</K></B>, <B><K>3</K></B>) "
                 "where $b/K = $a/K return $b")
        assert outcome(demo(), query) == "<B><K>2</K></B><B><K>3</K></B>"

    def test_a_multi_atom_key_on_both_sides_joins_each_pair_once(self):
        query = ("for $a in (<A><K>1</K><K>2</K></A>) "
                 "for $b in (<B><K>2</K><K>1</K></B>, <B><K>2</K></B>) "
                 "where $a/K = $b/K return fn:count($b/K)")
        assert outcome(demo(), query) == "2 1"
        # the same node twice in the inner sequence is two inner items
        query = ("let $n := <B><K>2</K><K>1</K></B> "
                 "for $a in (<A><K>1</K><K>2</K></A>, <A><K>5</K></A>) "
                 "for $b in ($n, <B><K>2</K></B>, $n) "
                 "where $a/K = $b/K return fn:count($b/K)")
        assert outcome(demo(), query) == outcome(demo(nested_loop), query) == "2 1 2"

    def test_value_comparison_raises_only_where_the_nested_loop_would(self):
        """``eq`` over a multi-atom key is an error only when it meets a
        non-empty key on the other side."""
        multi, empty = SIDES["multi"], SIDES["all_empty"]
        template = "for $a in {} for $b in {} where $b/K eq $a/K return $b"
        for outer, inner in ((multi, empty), (empty, multi)):
            query = template.format(outer.format("A"), inner.format("B"))
            assert outcome(demo(), query) == outcome(demo(nested_loop), query) == ""

    def test_untyped_keys_promote_as_in_the_nested_loop(self):
        """Under ``=`` an untyped atom meets a typed one as the nested loop's
        ``_coerce`` says: a number by its value, a string by its text."""
        query = ("for $a in (1, 2, 3) for $b in (<B><K>2</K></B>, <B><K>3.0</K></B>) "
                 "where $b/K = $a return $b")
        assert "INDEX NESTED-LOOP JOIN" in demo().explain(query)
        assert outcome(demo(nested_loop), query) == "<B><K>2</K></B><B><K>3.0</K></B>"
        assert outcome(demo(), query) == outcome(demo(nested_loop), query)

    @pytest.mark.parametrize("outer, inner", [
        # an untyped atom meets a number as the number it spells, on either side
        ("(<A>3.0</A>, <A>2</A>, <A>5</A>)", "(3, 2.0, 2, 7)"),
        ("(3, 2.0, 7)", "(<B>3.0</B>, <B>2</B>, <B>2</B>)"),
        # a string, and another untyped atom, by its text
        ("(<A>x</A>, <A>3.0</A>)", '("x", "3", "3.0")'),
        ("(<A>3.0</A>, <A>3</A>)", "(<B>3</B>, <B>3.0</B>, <B>03</B>)"),
        # a boolean as true/1 — and a boolean is not the number Python says it equals
        ("(<A>1</A>, <A>true</A>, <A>0</A>, <A>x</A>)", "(fn:true(), fn:false())"),
        ("(fn:true(), fn:false())", "(<B>1</B>, <B>no</B>, <B> true </B>)"),
        # several atoms on a side, untyped among them: each pair once, inner order
        ("(<A><K>2.0</K><K>3</K></A>, <A><K>3</K></A>)", "(3, 2, 3.0, 4)"),
    ])
    def test_untyped_atoms_meet_typed_ones_on_either_side(self, outer, inner):
        key = "$a/K" if "<K>" in outer else "fn:data($a)"
        query = (f"for $a at $p in {outer} for $b in {inner} "
                 f"where {key} = fn:data($b) return <P>{{$p}}{{$b}}</P>")
        assert "INDEX NESTED-LOOP JOIN" in demo().explain(query)
        expected = outcome(demo(nested_loop), query)
        assert expected and not expected.startswith("DynamicError")
        assert outcome(demo(), query) == expected

    def test_the_index_skips_a_pair_the_nested_loop_cannot_compare(self):
        """XQuery 2.3.4: an index may avoid the error of a pair it never
        forms — text that spells no number, against a number."""
        query = ("for $a in (<A>x</A>, <A>2</A>) for $b in (2, 3) "
                 "where fn:data($a) = $b return $b")
        assert outcome(demo(nested_loop), query) == \
            "DynamicError: cannot treat 'x' as a number"
        assert outcome(demo(), query) == "2"


#: a multi-item key that reaches a pushed region as a SQL *parameter*
#: (no PP-k correlation, no index join): query, external variables
PARAMETER_KEYS = {
    "external variable": (
        "for $c in CUSTOMER() where $c/CID {} $ids return $c/LAST_NAME",
        {"ids": [AtomicValue("C1", "xs:string"), AtomicValue("C2", "xs:string")]}),
    "correlated outer key": (
        "for $r in (<R><CID>C1</CID><CID>C2</CID></R>) return <X>{{ fn:count("
        "for $c in CUSTOMER() where $c/CID {} $r/CID return $c) }}</X>", None),
}


class TestPushedParameters:
    """The other half of the family: the key is bound to a ``?`` of the
    pushed statement, one value per parameter."""

    @pytest.mark.xfail(strict=True, reason=(
        "EXPERIMENTS.md, Deviations: a pushed comparison ships its middleware "
        "operand as one SQL parameter; '=' over several atoms needs an IN list "
        "of variable arity"))
    @pytest.mark.parametrize("form", PARAMETER_KEYS)
    def test_a_general_comparison_joins_on_any_atom(self, form):
        text, variables = PARAMETER_KEYS[form]
        query = text.format("=")
        expected = outcome(demo(nested_loop), query, variables)
        assert expected in ("<LAST_NAME>Jones</LAST_NAME><LAST_NAME>Smith</LAST_NAME>",
                            "<X>2</X>")
        assert "PUSHED SQL" in demo().explain(query, variables)
        assert outcome(demo(), query, variables) == expected

    @pytest.mark.parametrize("form", PARAMETER_KEYS)
    def test_a_value_comparison_raises_pushed_or_not(self, form):
        text, variables = PARAMETER_KEYS[form]
        query = text.format("eq")
        assert outcome(demo(nested_loop), query, variables) == \
            "DynamicError: value comparison over multi-item sequence"
        assert outcome(demo(), query, variables) == \
            "DynamicError: SQL parameter bound to a multi-item sequence"
