"""Units for the FLWOR runtime (P-BATCH).

Covers what a batch is (row ownership, emit-on-fill, schema-uniform
batches), the row-expression compiler's edge semantics against the
reference driver of ``tests/flwor_reference.py``, the ``batch_size``
value, batched serialization, the adaptive-PP-k/batch-size interaction,
and the ``BatchProbe`` observability surface.  End-to-end byte-identity
lives in ``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

import io

import pytest

from repro.config import DEFAULT_BATCH_SIZE
from repro.demo import build_demo_platform
from repro.relational import LatencyModel
from repro.runtime.batch import batched
from repro.xml.serialize import serialize_to_sink
from repro.xquery import ast_nodes as ast

from .flwor_reference import reference_execute


# ---------------------------------------------------------------------------
# Batches: lists of row dicts
# ---------------------------------------------------------------------------

@pytest.fixture()
def streamed(monkeypatch) -> list:
    """Every node that entered ``Evaluator.iter_eval`` — the lazy FLWOR
    driver and the pushed regions — in order."""
    from repro.runtime.evaluate import Evaluator

    seen: list = []
    iter_eval = Evaluator.iter_eval
    monkeypatch.setattr(
        Evaluator, "iter_eval",
        lambda self, node, env: seen.append(node) or iter_eval(self, node, env))
    return seen


def _let_stages(query: str):
    """``(evaluator, [(stage, kernel)])`` of the query's FLWOR."""
    from repro.runtime.batchexec import _row_kernel, _stages
    from repro.xquery.parser import parse_expression

    platform = build_demo_platform(customers=2, orders_per_customer=0)
    stages = _stages(parse_expression(query), True)
    return platform.evaluator, [(stage, _row_kernel(stage)) for stage in stages]


class TestTupleBatch:
    def test_initial_holds_the_callers_env_unowned(self):
        _ev, [(first, _kernel)] = _let_stages("let $b := 9 return $b")
        assert not first.owned and not first.mixed

    def test_extended_owned_reuses_frames_in_place(self):
        ev, [(_for, _bind), (let, kernel)] = _let_stages(
            "for $a in (1, 2) let $b := 10 return $b")
        assert let.owned  # the for made these rows
        rows = [{"a": [1]}, {"a": [2]}]
        extended = kernel(ev, rows)
        # the same dict objects were extended — no per-tuple copies
        assert extended is rows and extended[0] is rows[0]
        assert list(rows[0]) == ["a", "b"] and rows[0]["b"][0].value == 10

    def test_extended_unowned_copies_the_frames(self):
        ev, [(first, kernel), (second, _kernel)] = _let_stages(
            "let $b := 9 let $c := 8 return $b")
        rows = [{"a": [1]}]
        extended = kernel(ev, rows)
        assert rows[0] == {"a": [1]}  # caller's dict untouched
        assert list(extended[0]) == ["a", "b"]
        assert second.owned  # the copies belong to the pipeline now

    def test_where_and_order_by_hand_on_the_rows_they_were_given(self):
        """The pushdown pass moves a ``where`` above a ``let``: the rows
        that reach the ``let`` are then still the caller's."""
        from repro.runtime.batchexec import _stages
        from repro.xquery.parser import parse_expression

        flwor = parse_expression("let $b := 1 where $a return $b")
        flwor.clauses.reverse()
        assert [stage.owned for stage in _stages(flwor, True)] == [False, False]
        flwor = parse_expression("for $a in (1, 2) let $b := 1 where $a order by $a return $b")
        assert [stage.owned for stage in _stages(flwor, True)] == [False, True, True, True]


class TestBatchBuilder:
    def test_a_batch_is_emitted_when_it_fills(self):
        """Not when the next row arrives: the source is read no further
        than the rows handed on."""
        source = iter([{"a": [i]} for i in range(5)])
        batches = batched(source, 2, mixed=False)
        assert len(next(batches)) == 2
        assert next(source) == {"a": [2]}  # the third row was never pulled
        assert [len(b) for b in batches] == [2]

    def test_schema_change_flushes_pending_rows(self):
        rows = [{"a": [1]}, {"a": [1], "b": [2]}, {"a": [3], "b": [4]}]
        assert [len(b) for b in batched(rows, 10, mixed=True)] == [1, 2]
        # one row per batch: a schema change cannot close an empty batch
        assert [len(b) for b in batched(rows, 1, mixed=True)] == [1, 1, 1]
        # where schemas cannot differ they are not looked at
        assert [len(b) for b in batched(rows, 10, mixed=False)] == [3]

    def test_rebatch_round_trips_a_row_stream(self):
        rows = [{"a": [i]} for i in range(7)]
        batches = list(batched(iter(rows), 3, mixed=False))
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [env["a"][0] for b in batches for env in b] == list(range(7))

    def test_group_by_output_is_cut_at_schema_changes(self):
        """A group of one keeps its members' other bindings, a larger one
        does not: downstream batches never mix the two."""
        platform = build_demo_platform(customers=2, orders_per_customer=0)
        profile = platform.profile(
            "for $x in (1, 2, 2, 3, 3, 4) group $x as $xs by $x as $k "
            "order by $k return fn:count($xs)")
        # groups 1 | 2 2 | 3 3 | 4 -> schemas A B B A -> three batches
        assert profile.batches["group-by#2"]["batches"] == 3
        assert profile.batches["order-by#3"]["batches"] == 3
        assert profile.batches["return"] == {"batches": 3, "rows": 4, "rows_per_batch": 1.33}


# ---------------------------------------------------------------------------
# The knob, the stamp, and edge semantics
# ---------------------------------------------------------------------------

def _flwor_nodes(node, out):
    if isinstance(node, ast.FLWOR):
        out.append(node)
    for field in getattr(node, "_fields", ()):
        value = getattr(node, field, None)
        for child in (value if isinstance(value, (list, tuple)) else [value]):
            if isinstance(child, ast.AstNode):
                _flwor_nodes(child, out)
    if isinstance(node, ast.FLWOR):
        for clause in node.clauses:
            for field in getattr(clause, "_fields", ()):
                value = getattr(clause, field, None)
                for child in (value if isinstance(value, (list, tuple)) else [value]):
                    if isinstance(child, ast.AstNode):
                        _flwor_nodes(child, out)


class TestKnobAndStamp:
    def test_default_batch_size(self):
        platform = build_demo_platform(customers=2, orders_per_customer=0)
        assert platform.config.batch_size == DEFAULT_BATCH_SIZE == 256

    def test_set_batch_size_validates(self):
        platform = build_demo_platform(customers=2, orders_per_customer=0)
        platform.configure(batch_size=1)
        assert platform.config.batch_size == 1
        with pytest.raises(ValueError):
            platform.configure(batch_size=0)
        with pytest.raises(ValueError):
            platform.configure(batch_size=-3)

    def test_compiler_stamps_batch_capability(self):
        platform = build_demo_platform(customers=2, orders_per_customer=0)
        plan = platform.prepare(
            "for $i in (1 to 10) where $i mod 2 eq 0 return $i")
        flwors: list = []
        _flwor_nodes(plan.expr, flwors)
        assert flwors and all(f.batch_capable for f in flwors)

    def test_batch_size_selects_no_code_path(self):
        """Rows per pull is a value: the source reads it only to size a
        batch (and, in ``_block_sizer``, to cap an adaptive PP-k block)."""
        from pathlib import Path

        import repro

        hits = [path.name for path in Path(repro.__file__).parent.rglob("*.py")
                for line in path.read_text().splitlines() if "batch_size > 1" in line]
        assert hits == ["ppk.py"]

    def test_idiv_and_mod_match_across_engines(self):
        """Row-compiled arithmetic keeps XQuery (truncating) semantics for
        negative operands — the classic vectorization bug."""
        query = ("for $i in (-7, -1, 1, 7) "
                 "return <R>{$i idiv 2}{$i mod 3}</R>")
        outputs = set()
        for size in (1, 256):
            platform = build_demo_platform(customers=2, orders_per_customer=0)
            platform.configure(batch_size=size)
            from repro import serialize
            outputs.add(serialize(platform.execute(query)))
        assert len(outputs) == 1
        assert "<R>-3 -1</R>" in outputs.pop()


    def test_integer_mod_and_idiv_are_exact_beyond_2_to_the_53(self):
        """The one arithmetic kernel never detours through floats
        (``math.fmod``/``int(a / b)`` lose the low digits)."""
        from repro import serialize
        from repro.xquery.functions import arithmetic_value

        query = ("for $i in (1) return <R>{100000000000000001 mod 7} "
                 "{-100000000000000001 mod 7} {-100000000000000001 idiv 7} "
                 "{100000000000000001 idiv -7}</R>")
        for size in (1, 256):
            platform = build_demo_platform(customers=2, orders_per_customer=0)
            platform.configure(batch_size=size)
            assert serialize(platform.execute(query)) == (
                "<R>6 -6 -14285714285714285 -14285714285714285</R>")
        big = 2 ** 80 + 1
        assert arithmetic_value("mod", big, 2 ** 40).value == 1
        assert arithmetic_value("idiv", -big, 2 ** 40).value == -(2 ** 40)
        # floats keep fmod/truncation semantics
        assert arithmetic_value("mod", -7.5, 2).value == -1.5
        assert arithmetic_value("idiv", -7.5, 2).value == -3


# ---------------------------------------------------------------------------
# The atom lane: compiled vs the reference driver (the interpreter, one tuple
# at a time) over every operand cardinality
# ---------------------------------------------------------------------------

def _untyped(text: str):
    """An element whose atomization is one ``xs:untypedAtomic``."""
    from repro.xml import element
    from repro.xml.items import TextNode

    node = element("V")
    if text:
        node.add_child(TextNode(text))
    return node


def _atom(value, type_name):
    from repro.xml import AtomicValue

    return AtomicValue(value, type_name)


#: operand bindings: empty, one typed atom, one untyped node, multi-item,
#: and the values the error paths need
OPERANDS = {
    "empty": [],
    "int": [_atom(7, "xs:integer")],
    "zero": [_atom(0, "xs:integer")],
    "double": [_atom(2.5, "xs:double")],
    "string": [_atom("7", "xs:string")],
    "bool": [_atom(True, "xs:boolean")],
    "untyped": [_untyped("7")],
    "many": [_atom(1, "xs:integer"), _atom(7, "xs:integer")],
    "nodes": [_untyped("7"), _untyped("8")],
}

#: one expression per lane-bearing shape (and per consumer of a lane)
LANE_EXPRESSIONS = [
    "$a + $b", "$a - 1", "3 * $b", "$a div $b", "$a idiv $b", "$a mod $b",
    "-$a", "$a eq $b", "$a ne 7", "$a lt $b", "$a = $b", "$a != $b",
    "$a < 8", "$a and $b", "$a or $b", "fn:data($a)", "fn:data($a) + $b",
    "($a + $b) mod 5 eq 4", "if ($a eq $b) then 1 else 2",
    "if (fn:data($a)) then 1 else 2",
]

#: FLWORs consuming the expression as a return value, a let column, a
#: where condition, a group key and an order key
LANE_CONTEXTS = [
    "for $i in (1 to 3) return <R>{{ {0} }}</R>",
    "for $i in (1 to 3) let $v := {0} return <R>{{$v}}</R>",
    "for $i in (1 to 3) where {0} return $i",
    "for $i in (1 to 3) group $i as $is by ({0}) as $k "
    "return <G>{{$k}}{{fn:count($is)}}</G>",
    "for $i in (1 to 3) order by {0} descending return $i",
]


LANE_SIZES = (1, 2, 7, 256)


@pytest.fixture(scope="module")
def lane_platforms():
    platforms = {}
    for size in LANE_SIZES:
        platforms[size] = build_demo_platform(customers=2, orders_per_customer=0)
        platforms[size].configure(batch_size=size)
    platforms["reference"] = build_demo_platform(customers=2, orders_per_customer=0)
    return platforms


def _outcome(platform, query: str, variables: dict, execute=None) -> str:
    from repro import serialize
    from repro.errors import DynamicError

    try:
        return serialize((execute or platform.execute)(query, variables))
    except DynamicError as exc:
        return f"DynamicError: {exc}"


def _reference_outcome(lane_platforms, query: str, variables: dict) -> str:
    """The reference driver's outcome, over the plan the engine runs."""
    platform = lane_platforms["reference"]
    return _outcome(platform, query, variables,
                    lambda q, v: reference_execute(platform, q, v))


class TestAtomLane:
    @pytest.mark.parametrize("context", LANE_CONTEXTS)
    @pytest.mark.parametrize("expression", LANE_EXPRESSIONS)
    def test_compiled_matches_interpreter(self, lane_platforms, context, expression):
        """Identical results *and* identical error text for every pair of
        operand cardinalities, at every batch size."""
        query = context.format(expression)
        errors = set()
        for a_kind, a in OPERANDS.items():
            for b_kind, b in OPERANDS.items():
                variables = {"a": a, "b": b}
                expected = _reference_outcome(lane_platforms, query, variables)
                for size in LANE_SIZES:
                    assert _outcome(lane_platforms[size], query, variables) \
                        == expected, (query, a_kind, b_kind, size)
                if expected.startswith("DynamicError"):
                    errors.add(expected)
        # the sweep is not vacuous: multi-item operands do raise
        if expression in ("$a + $b", "$a eq $b"):
            assert errors

    @pytest.mark.parametrize("query, variables, message", [
        ("for $i in (1 to 3) return $a + $i", {"a": OPERANDS["many"]},
         "+: operand has more than one item"),
        ("for $i in (1 to 3) return $i mod $a", {"a": OPERANDS["nodes"]},
         "mod: operand has more than one item"),
        ("for $i in (1 to 3) return -$a", {"a": OPERANDS["many"]},
         "unary -: operand has more than one item"),
        ("for $i in (1 to 3) where $a eq $i return $i", {"a": OPERANDS["many"]},
         "value comparison over multi-item sequence"),
        ("for $i in (1 to 3) group $i as $is by $a as $k return $k",
         {"a": OPERANDS["many"]}, "group by key with more than one item"),
        ("for $i in (1 to 3) order by $a return $i", {"a": OPERANDS["nodes"]},
         "order by key with more than one item"),
        ("for $i in (1 to 3) return $a + $i", {"a": OPERANDS["bool"]},
         "boolean is not numeric"),
        ("for $i in (1 to 3) return $i idiv $a", {"a": OPERANDS["zero"]},
         "division by zero"),
        ("for $i in (1 to 3) where fn:data($a) return $i", {"a": OPERANDS["many"]},
         "effective boolean value of multi-item atomic sequence"),
        # left-to-right: the left operand's error wins over the right's
        ("for $i in (1 to 3) return $a + $b",
         {"a": OPERANDS["many"], "b": OPERANDS["bool"]},
         "+: operand has more than one item"),
        ("for $i in (1 to 3) return $b + $a",
         {"a": OPERANDS["many"], "b": OPERANDS["bool"]},
         "boolean is not numeric"),
    ])
    def test_error_text(self, lane_platforms, query, variables, message):
        assert _reference_outcome(lane_platforms, query, variables).endswith(message)
        for platform in lane_platforms.values():
            assert _outcome(platform, query, variables).endswith(message)

    def test_untyped_operands_promote(self, lane_platforms):
        """``xs:untypedAtomic`` promotes to the other operand's type in
        value and general comparison, on the lane as in the interpreter."""
        variables = {"a": OPERANDS["untyped"], "b": OPERANDS["int"]}
        for platform in lane_platforms.values():
            assert _outcome(platform, "for $i in (1) return <R>{$a eq $b} {$a = $b} "
                            "{$a lt 10} {$a = (1, 7)} {$a + 1}</R>", variables) \
                == "<R>true true true true 8</R>"

    @pytest.mark.parametrize("value, through_data, bare", [
        ([_atom(0, "xs:integer")], False, False),
        ([_atom(3, "xs:integer")], True, True),
        ([_atom("", "xs:string")], False, False),
        ([_atom("x", "xs:string")], True, True),
        ([_atom(float("nan"), "xs:double")], False, False),
        # a node is true whatever it holds; its (empty) atom is not
        ([_untyped("")], False, True),
        ([_untyped("0")], True, True),
        ([], False, False),
    ])
    def test_where_over_non_boolean_atoms(self, lane_platforms, value,
                                          through_data, bare):
        for platform in lane_platforms.values():
            kept = _outcome(platform, "for $i in (1 to 2) where fn:data($a) return $i",
                            {"a": value})
            assert kept == ("1 2" if through_data else ""), value
            kept = _outcome(platform, "for $i in (1 to 2) where $a return $i",
                            {"a": value})
            assert kept == ("1 2" if bare else ""), value

    def test_lane_outcomes(self):
        """The contract itself: one atom, None for empty, MANY for more;
        atomic shapes define their list form from the lane."""
        from repro.runtime.rowcompile import MANY, atomfn, rowfn
        from repro.xquery.parser import parse_expression

        platform = build_demo_platform(customers=2, orders_per_customer=0)
        ev = platform.evaluator
        lane = atomfn(parse_expression("$a"))
        assert lane(ev, {"a": []}) is None
        assert lane(ev, {"a": OPERANDS["int"]}) is OPERANDS["int"][0]
        assert lane(ev, {"a": OPERANDS["untyped"]}).type_name == "xs:untypedAtomic"
        many = lane(ev, {"a": OPERANDS["nodes"]})
        assert type(many) is MANY and [a.value for a in many] == ["7", "8"]
        # a shape without a lane of its own gets one derived from its items
        derived = atomfn(parse_expression("($a, $a)"))
        assert type(derived(ev, {"a": OPERANDS["int"]})) is MANY
        assert derived(ev, {"a": []}) is None
        for text in ("$a + 1", "-$a", "$a eq 1", "$a = 1", "$a and $a", "fn:data($a)", "1"):
            fn = rowfn(parse_expression(text))
            assert fn.atomic and fn(ev, {"a": []}) in ([], [fn.atom(ev, {"a": []})])
        data = rowfn(parse_expression("fn:data($a)"))
        assert data(ev, {"a": OPERANDS["nodes"]}) == list(many)
        assert not getattr(rowfn(parse_expression("$a")), "atomic", False)


# ---------------------------------------------------------------------------
# Compiled quantifiers and per-row FLWORs against the reference driver
# ---------------------------------------------------------------------------

#: quantifier shapes over the operand bindings ``$a`` / ``$b``
QUANTIFIED = [
    "some $x in $a satisfies $x eq $b",
    "every $x in $a satisfies $x eq $b",
    "some $x in $a, $y in $b satisfies $x eq $y",
    "every $x in $a, $y in $b satisfies $x eq $y",
    # shadowing: the inner $x hides the outer one; $i is rebound too
    "some $x in $a satisfies (some $x in $b satisfies $x eq 7)",
    "some $i in $a satisfies $i eq $b",
    # nested, with the outer variable used two levels down
    "every $x in $a satisfies (some $y in ($b, 7) satisfies $y eq $x)",
    # a sequence of atoms as the condition (an error on two atoms)
    "some $x in (1, 2) satisfies $a",
    "every $x in (1, 2) satisfies fn:data($b)",
    # bindings drawn from a FLWOR stream lazily
    "some $x in (for $k in $a return $k) satisfies $x eq $b",
    # an error in a later item, behind a deciding earlier one
    "some $x in ($b, 0) satisfies (7 idiv $x) eq 1",
    "every $x in ($b, 0) satisfies (7 idiv $x) eq 2",
]

#: FLWORs nested in a return: what ``<E?>``, filters and unfolding leave
PER_ROW_FLWORS = [
    "for $i in (1 to 3) return <R>{ for $x in $a where $x eq $b return $x }</R>",
    "for $i in (1 to 3) return <R>{ for $x in $a let $y := $x where $y = $b "
    "return <V>{$y}{$i}</V> }</R>",
    "for $i in (1 to 3) return <R>{ let $v := fn:data($a) where $v = $b return $v }</R>",
    "for $i in (1 to 3) return <R>{ for $x at $p in ($a, $b) where $p gt 1 return $p }</R>",
    # the filter-as-FLWOR and optional-element shapes the optimizer writes
    "for $i in (1 to 3) return <R><F?>{fn:data($a[. eq $b])}</F></R>",
    "for $i in (1 to 3) return <R>{ for $x in $a return "
    "for $y in $b where $x eq $y return ($x, $y) }</R>",
    # more inner rows than a small batch holds
    "for $i in (1 to 2) return <R>{ for $x in (1 to 9) where $x mod 2 eq $i - 1 "
    "return ($x, $a) }</R>",
]

#: the inner where is false for every row / the inner sequence is empty:
#: one outcome whatever the operands
EMPTY_PER_ROW_FLWORS = [
    "for $i in (1 to 3) return <R>{ for $x in ($a, $b) where $i gt 5 return $x }</R>",
    "for $i in (1 to 3) return <R>{ for $x in () return $a }</R>",
]


class TestQuantifiedAndPerRowFlwors:
    @pytest.mark.parametrize("query", [
        f"for $i in (1 to 3) where {q} return $i" for q in QUANTIFIED
    ] + [
        f"for $i in (1 to 3) return <R>{{ {q} }}</R>" for q in QUANTIFIED
    ] + PER_ROW_FLWORS + EMPTY_PER_ROW_FLWORS)
    def test_compiled_matches_interpreter(self, lane_platforms, query):
        """Results and error text for every pair of operand bindings, the
        empty sequence (``some`` false, ``every`` true), atoms and nodes."""
        outcomes = set()
        for a_kind, a in OPERANDS.items():
            for b_kind, b in OPERANDS.items():
                variables = {"a": a, "b": b}
                expected = _reference_outcome(lane_platforms, query, variables)
                outcomes.add(expected)
                for size in LANE_SIZES:
                    assert _outcome(lane_platforms[size], query, variables) \
                        == expected, (query, a_kind, b_kind, size)
        if query in EMPTY_PER_ROW_FLWORS:
            assert outcomes == {"<R/><R/><R/>"}
        else:
            assert len(outcomes) > 1, query  # the sweep is not vacuous

    def test_empty_binding_sequence(self, lane_platforms):
        variables = {"a": [], "b": OPERANDS["int"]}
        for platform in lane_platforms.values():
            assert _outcome(
                platform, "for $i in (1) return <R>{some $x in $a satisfies $x eq $b} "
                "{every $x in $a satisfies $x eq $b}</R>", variables) \
                == "<R>false true</R>"

    def test_deciding_item_short_circuits_past_a_later_error(self, lane_platforms):
        variables = {"a": OPERANDS["many"], "b": OPERANDS["int"]}
        for platform in lane_platforms.values():
            assert _outcome(platform, "for $i in (1) return "
                            "some $x in (7, 0) satisfies (7 idiv $x) eq 1", variables) == "true"
            assert _outcome(platform, "for $i in (1) return "
                            "every $x in (7, 0) satisfies (7 idiv $x) eq 2", variables) == "false"
            assert _outcome(platform, "for $i in (1) return "
                            "some $x in (0, 7) satisfies (7 idiv $x) eq 1", variables) \
                .endswith("division by zero")
            # a multi-item atomic condition is an error, as in a where
            assert _outcome(platform, "for $i in (1) return "
                            "some $x in (1, 2) satisfies $a", variables) \
                .endswith("effective boolean value of multi-item atomic sequence")

    def test_which_flwors_run_as_row_functions(self, streamed):
        """In-memory for/let/where FLWORs run the eager driver; one that
        touches a source, groups or orders enters the lazy driver, through
        ``Evaluator.iter_eval`` like a FLWOR at the root."""
        platform = build_demo_platform(customers=3, orders_per_customer=2)
        platform.configure(pushdown=False)  # keep source clauses mid-tier

        def nested(query):
            outer = platform.prepare(query).expr
            inner = [n for n in outer.return_expr.walk() if isinstance(n, ast.FLWOR)]
            platform.execute(query)
            return [not any(node is seen for seen in streamed) for node in inner]

        assert nested("for $i in (1 to 3) return <R>{ for $x in (1, 2) where $x eq $i "
                      "return $x }</R>") == [True]
        assert nested("for $i in (1 to 3) return <R>{ for $c in CUSTOMER() "
                      "return $c/CID }</R>") == [False]
        assert nested("for $i in (1 to 3) return <R>{ for $x in (2, 1) order by $x "
                      "return $x }</R>") == [False]
        assert nested("for $i in (1 to 3) return <R>{ for $x in (1, 1) group $x as $xs "
                      "by $x as $k return $k }</R>") == [False]
        # a source one level further down disqualifies the enclosing FLWOR too
        assert nested("for $i in (1 to 3) return <R>{ for $x in (1, 2) return "
                      "<S>{ for $c in CUSTOMER() return $c/CID }</S> }</R>") == [False, False]


# ---------------------------------------------------------------------------
# One evaluator: the expression compiler is total
# ---------------------------------------------------------------------------

class TestEveryExpressionCompiles:
    """``Evaluator.eval`` is ``rowfn(node)(evaluator, env)`` and nothing
    else: every expression class has a compiler, building a closure never
    raises, and what is wrong with an expression is raised when it runs."""

    @staticmethod
    def _expression_classes() -> list[type]:
        from repro.compiler import algebra
        from tests.test_ast_clone import node_classes

        #: what a path, an order-by and a reconstruction template are made of
        parts = (ast.Step, ast.OrderSpec, algebra.ColumnSlot, algebra.NestedSlot,
                 algebra.GroupSlot)
        return [cls for cls in node_classes()
                if cls is not ast.AstNode and not issubclass(cls, (ast.Clause, *parts))]

    def test_every_expression_class_has_a_compiler(self):
        from repro.runtime import rowcompile
        from tests.test_ast_clone import SAMPLES

        classes = self._expression_classes()
        assert len(classes) == 25  # Literal … ErrorExpr, SourceCall, PushedSQL
        assert {cls.__name__ for cls in classes} == set(rowcompile._COMPILERS)
        for cls in classes:
            assert callable(rowcompile.rowfn(SAMPLES[cls]())), cls.__name__

    @pytest.mark.parametrize("broken, message", [
        (lambda: ast.FunctionCall("fn:count", []), "fn:count: wrong number of arguments"),
        (lambda: ast.FunctionCall("fn-bea:async", []),
         "fn-bea:async: wrong number of arguments"),
        (lambda: ast.SequenceExpr([ast.FunctionCall("fn-bea:async", []),
                                   ast.FunctionCall("fn-bea:async", [])]),
         "fn-bea:async: wrong number of arguments"),
        # an unknown function fails before its arguments are evaluated
        (lambda: ast.FunctionCall("nope", [ast.ErrorExpr("argument")]),
         "unknown function nope#1"),
        (lambda: ast.ErrorExpr("broken"), "evaluation of erroneous expression: broken"),
        (lambda: ast.Step("child", ast.NameTest("A")), "cannot evaluate Step"),
    ])
    def test_an_error_is_raised_when_the_closure_runs_not_when_it_is_built(
            self, broken, message):
        from repro.errors import DynamicError
        from repro.xml import AtomicValue

        def choose(flag: bool):
            return ast.IfExpr(ast.Literal(AtomicValue(flag, "xs:boolean")), broken(),
                              ast.Literal(AtomicValue(1, "xs:integer")))

        evaluator = build_demo_platform(customers=1, orders_per_customer=0).evaluator
        # a branch that is never taken never fails
        assert [item.value for item in evaluator.eval(choose(False), {})] == [1]
        with pytest.raises(DynamicError) as raised:
            evaluator.eval(choose(True), {})
        assert str(raised.value) == message


# ---------------------------------------------------------------------------
# Batched serialization
# ---------------------------------------------------------------------------

class TestSerializeToSink:
    def test_bytes_identical_across_batch_sizes(self):
        platform = build_demo_platform(customers=3, orders_per_customer=1)
        items = platform.execute("for $c in CUSTOMER() return $c")
        reference = io.StringIO()
        count = serialize_to_sink(iter(items), reference, batch_size=1)
        for size in (2, 7, 256):
            sink = io.StringIO()
            assert serialize_to_sink(iter(items), sink, batch_size=size) == count
            assert sink.getvalue() == reference.getvalue()

    def test_execute_to_file_streams_batched(self, tmp_path):
        platform = build_demo_platform(customers=3, orders_per_customer=1)
        out = tmp_path / "batched.xml"
        count = platform.execute_to_file(
            "for $c in CUSTOMER() return $c/CID", out)
        assert count == 3
        platform.configure(batch_size=1)
        single = tmp_path / "single.xml"
        platform.execute_to_file("for $c in CUSTOMER() return $c/CID", single)
        assert out.read_text() == single.read_text()


# ---------------------------------------------------------------------------
# Adaptive PP-k vs the batch clamp (satellite regression)
# ---------------------------------------------------------------------------

class TestAdaptiveClamp:
    def _run(self, batch_size: int) -> int:
        platform = build_demo_platform(
            customers=60, orders_per_customer=0, deploy_profile=False,
            db_latency=LatencyModel(roundtrip_ms=50.0, per_row_ms=0.02),
        )
        platform.configure(adaptive_ppk=True)
        platform.configure(batch_size=batch_size)
        query = ('for $c in CUSTOMER() '
                 'return <O>{ for $cc in CREDIT_CARD() '
                 'where $cc/CID eq $c/CID return $cc/NUMBER }</O>')
        platform.execute(query)  # cold: seeds the observed-cost model
        platform.reset_stats()
        platform.execute(query)  # warm: the model recommends large k
        return platform.ctx.stats.ppk_blocks

    def test_adaptive_k_is_capped_at_the_batch_size(self):
        # High-latency profile: warm adaptive wants one big block.  With
        # batching on, k is capped at the batch size so a block fills from
        # a single upstream batch — more, smaller blocks.
        unclamped = self._run(batch_size=1)
        clamped = self._run(batch_size=8)
        assert clamped >= -(-60 // 8)  # ceil: k never exceeded 8
        assert unclamped < clamped

    def test_default_sizes_leave_adaptive_untouched(self):
        # k_max (200) < default batch size (256): the cap is inert, so
        # batching does not change adaptive block sizing by default.
        assert self._run(batch_size=1) == self._run(batch_size=256)


# ---------------------------------------------------------------------------
# Observability: BatchProbe, profile batches, metrics instruments
# ---------------------------------------------------------------------------

class TestBatchObservability:
    def test_profile_reports_rows_per_batch(self):
        platform = build_demo_platform(customers=4, orders_per_customer=2)
        profile = platform.profile(
            "for $i in (1 to 600) where $i mod 3 eq 0 return $i")
        assert profile.batches  # per-stage rows/batches under the default 256
        stage = next(iter(profile.batches.values()))
        assert set(stage) == {"batches", "rows", "rows_per_batch"}
        returned = profile.batches.get("return")
        assert returned is not None and returned["rows"] == 200
        # 600 source rows arrive in ceil(600/256) = 3 batches; the filter
        # narrows each batch in place without re-chunking
        assert returned["batches"] == 3

    def test_profile_reports_one_row_per_batch_at_size_one(self):
        platform = build_demo_platform(customers=4, orders_per_customer=2)
        platform.configure(batch_size=1)
        profile = platform.profile("for $i in (1 to 50) where $i mod 5 eq 0 return $i")
        assert profile.batches == {
            "for#1": {"batches": 50, "rows": 50, "rows_per_batch": 1.0},
            "where#2": {"batches": 10, "rows": 10, "rows_per_batch": 1.0},
            "return": {"batches": 10, "rows": 10, "rows_per_batch": 1.0},
        }

    def test_metrics_gain_batch_instruments(self):
        platform = build_demo_platform(customers=4, orders_per_customer=2)
        platform.execute("for $i in (1 to 600) return $i + 1")
        snapshot = platform.metrics_snapshot()
        assert any(name.startswith("batch.rows") for name in snapshot)
        assert any(name.startswith("batch.count") for name in snapshot)


# ---------------------------------------------------------------------------
# A FLWOR the compiler never stamped: the body of a non-inlined function
# ---------------------------------------------------------------------------

class TestUnstampedFlwor:
    """View unfolding stops at a recursion depth; the calls left run the
    declared body, which no compiler pass has visited.  It runs the one
    pipeline like any other FLWOR."""

    SERVICE = '''
        declare namespace t = "urn:t";
        declare function t:down($n as xs:integer) as element(D)* {
          for $i in (1 to $n) where $i eq $n
          return (<D>{$i}{ for $j in (1 to $i) where $j mod 2 eq 0 return $j }</D>,
                  t:down($n - 1))
        };
    '''
    EXPECTED = "".join(
        f"<D>{n}{''.join(f' {j}' for j in range(2, n + 1, 2))}</D>"
        for n in range(9, 0, -1))

    def _platform(self, size: int):
        platform = build_demo_platform(customers=2, orders_per_customer=0)
        platform.deploy(self.SERVICE, name="Down")
        platform.configure(batch_size=size)
        return platform

    @pytest.mark.parametrize("size", LANE_SIZES)
    def test_recursive_function_body_runs_the_pipeline(self, size):
        from repro import serialize
        from repro.xml import AtomicValue

        platform = self._platform(size)
        assert serialize(platform.execute("down(9)")) == self.EXPECTED
        body = platform.ctx.user_function("down", 1).body
        assert isinstance(body, ast.FLWOR) and body.batch_capable is None
        # the plan still calls the function, so the declared body did run
        assert any(isinstance(n, ast.FunctionCall) and n.name.endswith("down")
                   for n in platform.prepare("down(9)").expr.walk())
        before = platform.metrics_snapshot()["batch.count{op=where#2}"]
        platform.evaluator.eval(body, {"n": [AtomicValue(2, "xs:integer")]})
        after = platform.metrics_snapshot()["batch.count{op=where#2}"]
        assert after > before  # the body's own stages record batch.* series

    def test_its_nested_flwor_runs_the_eager_driver(self, streamed):
        from repro.xml import AtomicValue

        platform = self._platform(256)
        body = platform.ctx.user_function("down", 1).body
        nested = [n for n in body.return_expr.walk() if isinstance(n, ast.FLWOR)]
        assert len(nested) == 1
        platform.evaluator.eval(body, {"n": [AtomicValue(1, "xs:integer")]})
        # the body holds a user call, so it takes the lazy driver; the FLWOR
        # in its return is in-memory for/where and does not
        assert any(node is body for node in streamed)
        assert not any(node is nested[0] for node in streamed)
