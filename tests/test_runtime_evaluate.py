"""Evaluator tests: expression semantics over the optimized tree."""

import pytest

from repro.compiler import Compiler
from repro.errors import DynamicError, TypeMatchError
from repro.runtime import DynamicContext, Evaluator
from repro.services.metadata import MetadataRegistry
from repro.xml import AtomicValue, serialize
from repro.xquery import parse_expression
from repro.xquery.normalize import normalize


def run(text, env=None, **external):
    """Compile (no sources) and evaluate an expression."""
    compiler = Compiler(registry=MetadataRegistry())
    from repro.schema import ITEM_STAR

    externals = {name: ITEM_STAR for name in external}
    plan = compiler.compile_expression(text, externals=externals or None)
    ctx = DynamicContext(MetadataRegistry())
    with ctx.tracer.request(bindings=external):
        return Evaluator(ctx).eval(plan.expr, env or {})


def values(result):
    return [item.value for item in result]


class TestAtoms:
    def test_arithmetic(self):
        assert values(run("1 + 2 * 3")) == [7]
        assert values(run("7 idiv 2")) == [3]
        assert values(run("7 mod 2")) == [1]
        assert values(run("10 div 4")) == [2.5]

    def test_arithmetic_empty_propagates(self):
        assert run("() + 1") == []

    def test_division_by_zero(self):
        with pytest.raises(DynamicError):
            run("1 div 0")

    def test_unary_minus(self):
        assert values(run("-(3)")) == [-3]

    def test_range(self):
        assert values(run("1 to 4")) == [1, 2, 3, 4]

    def test_comparisons(self):
        assert values(run("1 lt 2")) == [True]
        assert values(run('"a" ne "b"')) == [True]

    def test_general_comparison_existential(self):
        assert values(run("(1, 2, 3) = 2")) == [True]
        assert values(run("(1, 2, 3) = 9")) == [False]

    def test_value_comparison_empty_is_empty(self):
        assert run("() eq 1") == []

    def test_logic_short_forms(self):
        assert values(run("1 eq 1 and 2 eq 2")) == [True]
        assert values(run("1 eq 2 or 2 eq 2")) == [True]

    def test_if(self):
        assert values(run('if (1 eq 1) then "y" else "n"')) == ["y"]

    def test_cast(self):
        assert values(run('"41" cast as xs:integer')) == [41]
        assert values(run('5 instance of xs:integer')) == [True]
        assert values(run('"x" castable as xs:integer')) == [False]
        with pytest.raises(DynamicError):
            run('"x" cast as xs:integer')

    def test_treat_failure(self):
        # disjoint treat is rejected statically; an intersecting one fails
        # at runtime when the value does not match
        from repro.errors import TypeError_

        with pytest.raises((DynamicError, TypeError_)):
            run('"x" treat as xs:integer')


class TestSequencesAndFLWOR:
    def test_flwor_over_range(self):
        assert values(run("for $i in 1 to 3 return $i * 10")) == [10, 20, 30]

    def test_where_filters(self):
        assert values(run("for $i in 1 to 10 where $i mod 2 eq 0 return $i")) == [2, 4, 6, 8, 10]

    def test_let_binding(self):
        assert values(run("for $i in 1 to 3 let $d := $i * $i return $d")) == [1, 4, 9]

    def test_positional_variable(self):
        out = values(run('for $x at $p in ("a","b","c") return $p'))
        assert out == [1, 2, 3]

    def test_order_by(self):
        assert values(run("for $i in (3,1,2) order by $i descending return $i")) == [3, 2, 1]

    def test_order_by_empty_least(self):
        out = values(run(
            "for $p in (1, 2, 3) let $k := if ($p eq 2) then () else $p "
            "order by $k return $p"
        ))
        assert out == [2, 1, 3]  # the empty key sorts least by default

    def test_group_by(self):
        out = run('''
            for $x in (1, 2, 3, 4, 5)
            group $x as $g by $x mod 2 as $k
            order by $k
            return <G k="{$k}">{ count($g) }</G>
        ''')
        assert serialize(out) == '<G k="0">2</G><G k="1">3</G>'

    def test_quantified(self):
        assert values(run("some $x in (1,2,3) satisfies $x gt 2")) == [True]
        assert values(run("every $x in (1,2,3) satisfies $x gt 0")) == [True]
        assert values(run("every $x in (1,2,3) satisfies $x gt 1")) == [False]

    def test_nested_flwor(self):
        out = values(run(
            "for $i in 1 to 2 return (for $j in 1 to 2 return $i * 10 + $j)"
        ))
        assert out == [11, 12, 21, 22]


class TestConstruction:
    def test_element_with_attributes(self):
        out = run('<P id="{1+1}"><X>{"a"}</X></P>')
        assert serialize(out) == '<P id="2"><X>a</X></P>'

    def test_adjacent_atomics_space_separated(self):
        out = run("<P>{1, 2}</P>")
        assert serialize(out) == "<P>1 2</P>"

    def test_optional_attribute_dropped_when_empty(self):
        out = run('<P rating?="{()}"/>')
        assert serialize(out) == "<P/>"

    def test_optional_element_dropped_when_empty(self):
        assert run("<F?>{()}</F>") == []
        assert serialize(run('<F?>{"x"}</F>')) == "<F>x</F>"

    def test_constructed_type_annotation_survives(self):
        # Section 3.1: typed content survives construction.
        [elem] = run("<CID>{5}</CID>")
        assert elem.typed_value()[0].type_name == "xs:integer"

    def test_content_nodes_deep_copied(self):
        out = run("for $i in 1 to 2 return <W>{<I>{$i}</I>}</W>")
        assert serialize(out) == "<W><I>1</I></W><W><I>2</I></W>"


class TestPathsAndFilters:
    def test_child_navigation(self):
        out = run("(<A><B>1</B><B>2</B><C>3</C></A>)/B")
        assert serialize(out) == "<B>1</B><B>2</B>"

    def test_positional_predicate(self):
        out = run("(<A><B>1</B><B>2</B></A>)/B[2]")
        assert serialize(out) == "<B>2</B>"

    def test_boolean_predicate_with_context(self):
        out = run('(<A><B><X>1</X></B><B><X>5</X></B></A>)/B[X gt 3]')
        assert serialize(out) == "<B><X>5</X></B>"

    def test_descendant_axis(self):
        out = run("(<A><B><C>1</C></B></A>)//C")
        assert serialize(out) == "<C>1</C>"

    def test_attribute_axis(self):
        out = run('(<A x="7"/>)/@x')
        assert out[0].string_value() == "7"

    def test_path_on_atomic_errors(self):
        with pytest.raises(DynamicError):
            run("(1)/B")


class TestExternalsAndErrors:
    def test_external_variables(self):
        out = run("$x + 1", x=[AtomicValue(4, "xs:integer")])
        assert values(out) == [5]

    def test_unbound_variable_raises(self):
        compiler = Compiler(registry=MetadataRegistry())
        from repro.schema import ITEM_STAR

        plan = compiler.compile_expression("$nope", externals={"nope": ITEM_STAR})
        ctx = DynamicContext(MetadataRegistry())
        with pytest.raises(DynamicError):
            Evaluator(ctx).eval(plan.expr, {})

    def test_typematch_enforced_at_runtime(self):
        from repro.schema import atomic
        from repro.xquery.ast_nodes import TypeMatch

        expr = TypeMatch(normalize(parse_expression('"text"')), atomic("xs:integer"))
        ctx = DynamicContext(MetadataRegistry())
        with pytest.raises(TypeMatchError):
            Evaluator(ctx).eval(expr, {})


class TestUserFunctions:
    def test_non_inlined_function_called_at_runtime(self):
        from repro.compiler import CompilerOptions
        from repro.xquery.parser import parse_module
        from repro.xquery.normalize import normalize_module

        module = parse_module("declare function double($x) { $x * 2 };")
        normalize_module(module)
        options = CompilerOptions(no_inline={("double", 1)})
        compiler = Compiler(registry=MetadataRegistry(), module=module, options=options)
        plan = compiler.compile_expression("double(21)")
        ctx = DynamicContext(MetadataRegistry(), module=module)
        assert values(Evaluator(ctx).eval(plan.expr, {})) == [42]

    def test_recursion_limit(self):
        from repro.compiler import CompilerOptions
        from repro.xquery.parser import parse_module
        from repro.xquery.normalize import normalize_module

        module = parse_module("declare function loop($x) { loop($x) };")
        normalize_module(module)
        options = CompilerOptions(no_inline={("loop", 1)})
        compiler = Compiler(registry=MetadataRegistry(), module=module, options=options)
        plan = compiler.compile_expression("loop(1)")
        ctx = DynamicContext(MetadataRegistry(), module=module)
        with pytest.raises(DynamicError):
            Evaluator(ctx).eval(plan.expr, {})


class TestModuleVariables:
    """A module variable's value may depend on the request's externals, so
    it is held per request — it used to be memoised on the declaration, for
    the life of the platform, with the first caller's externals."""

    MODULE = ("declare variable $x external; declare variable $y := $x * 2; "
              "declare variable $z := 7; declare function t:f($a) { $a + $y + $z };")

    @staticmethod
    def platform():
        from repro.demo import build_demo_platform

        platform = build_demo_platform(customers=2, orders_per_customer=0)
        platform.deploy(TestModuleVariables.MODULE)
        return platform

    @staticmethod
    def x(value):
        return {"x": [AtomicValue(value, "xs:integer")]}

    def test_each_request_sees_its_own_externals(self):
        platform = self.platform()
        assert values(platform.execute("t:f(1)", self.x(1))) == [10]
        assert values(platform.execute("t:f(1)", self.x(100))) == [208]
        assert values(platform.execute(
            "for $i in (1, 2) return $i + $y", self.x(5))) == [11, 12]

    def test_an_unbound_external_still_raises(self):
        platform = self.platform()
        assert values(platform.execute("t:f(1)", self.x(1))) == [10]
        with pytest.raises(DynamicError, match=r"external variable \$x was not bound"):
            platform.execute("t:f(1)")

    def test_evaluated_at_most_once_per_request(self):
        platform = self.platform()
        decl = platform.module.variables["y"]
        evaluations = []
        plain = platform.evaluator.eval

        def counting(node, env):
            if node is decl.value:
                evaluations.append(node)
            return plain(node, env)

        platform.evaluator.eval = counting
        assert values(platform.execute(
            "for $i in (1 to 50) return $i + $y", self.x(1))) == list(range(3, 53))
        assert len(evaluations) == 1
        platform.execute("$y", self.x(2))
        assert len(evaluations) == 2

    def test_interleaved_streams_each_see_their_own(self):
        platform = self.platform()
        platform.configure(batch_size=1)
        query = "for $i in (1 to 4) return $i + $y"
        streams = [platform.stream(query, self.x(10)), platform.stream(query, self.x(20))]
        seen: list[list] = [[], []]
        for turn in (0, 1, 1, 0, 0, 1, 0, 1):
            seen[turn].append(next(streams[turn]).value)
        assert seen == [[21, 22, 23, 24], [41, 42, 43, 44]]
