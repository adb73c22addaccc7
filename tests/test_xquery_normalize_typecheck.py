"""Normalization (stage 3) and type checking (stage 4) tests."""

import pytest

from repro import serialize
from repro.errors import TypeError_
from repro.schema import (
    ITEM_STAR,
    ElementItemType,
    Occurrence,
    SimpleContent,
    atomic,
    leaf,
    shape,
    shape_sequence,
)
from repro.xml import AtomicValue
from repro.xquery import ast, parse_expression, parse_module
from repro.xquery.normalize import normalize, normalize_module
from repro.xquery.typecheck import FunctionSignature, FunctionTable, TypeChecker

from tests.conftest import build_platform


CUSTOMER_SHAPE = shape(
    "CUSTOMER",
    [leaf("CID", "xs:string"), leaf("LAST_NAME", "xs:string"), leaf("SINCE", "xs:integer")],
)
EXTERNALS = {
    ("CUSTOMER", 0): FunctionSignature("CUSTOMER", [], shape_sequence(CUSTOMER_SHAPE)),
}


def checked(text, mode="runtime", env=None):
    expr = normalize(parse_expression(text))
    checker = TypeChecker(FunctionTable(externals=EXTERNALS), mode)
    inferred = checker.infer(expr, env or {})
    return expr, inferred, checker


class TestNormalization:
    def test_comparison_operands_atomized(self):
        expr = normalize(parse_expression("$c/CID eq $id"))
        assert isinstance(expr.left, ast.FunctionCall)
        assert expr.left.name == "fn:data"

    def test_literals_not_wrapped(self):
        expr = normalize(parse_expression('$x eq "C1"'))
        assert isinstance(expr.right, ast.Literal)

    def test_double_data_collapsed(self):
        expr = normalize(parse_expression("data(data($x/A))"))
        assert expr.name == "fn:data"
        assert isinstance(expr.args[0], ast.PathExpr)

    def test_optional_element_expanded_to_let_if(self):
        expr = normalize(parse_expression("<F?>{$f}</F>"))
        assert isinstance(expr, ast.FLWOR)
        assert isinstance(expr.clauses[0], ast.LetClause)
        body = expr.return_expr
        assert isinstance(body, ast.IfExpr)
        assert body.condition.name == "fn:exists"
        assert isinstance(body.then_branch, ast.ElementCtor)
        assert isinstance(body.else_branch, ast.EmptySequence)

    def test_order_by_keys_atomized(self):
        expr = normalize(parse_expression("for $x in X() order by $x/A return $x"))
        order = expr.clauses[1]
        assert order.specs[0].key.name == "fn:data"

    def test_group_keys_atomized(self):
        expr = normalize(parse_expression("for $x in X() group by $x/A as $a return $a"))
        group = expr.clauses[1]
        assert group.keys[0][0].name == "fn:data"

    def test_normalize_module_touches_all_functions(self):
        module = parse_module("declare function f($x) { <A?>{$x}</A> };")
        normalize_module(module)
        assert isinstance(module.function("f", 1).body, ast.FLWOR)


class TestTypeInference:
    def test_literal_types(self):
        _, t, _ = checked("42")
        assert t.show() == "xs:integer"

    def test_flwor_over_source(self):
        _, t, _ = checked('for $c in CUSTOMER() return $c/CID')
        assert "element(CID" in t.show()
        assert t.occurrence in (Occurrence.STAR, Occurrence.PLUS)

    def test_structural_constructor_type(self):
        _, t, _ = checked('<OUT>{ 1 }</OUT>')
        [alt] = t.alternatives
        assert isinstance(alt, ElementItemType)
        assert isinstance(alt.content, SimpleContent)
        assert alt.content.type_name == "xs:integer"

    def test_navigation_through_constructor_recovers_type(self):
        # The key structural-typing property (section 3.1).
        _, t, _ = checked('fn:data((<C><L>{"x"}</L></C>)/L)')
        assert t.alternatives[0].name == "xs:string"

    def test_if_union_type(self):
        _, t, _ = checked('if ($x) then 1 else "a"', env={"x": atomic("xs:boolean")})
        assert len(t.alternatives) == 2

    def test_arithmetic_promotes(self):
        _, t, _ = checked("1 + 2.5")
        assert t.alternatives[0].name in ("xs:decimal", "xs:double")

    def test_arithmetic_over_an_unknown_operand_may_be_any_numeric(self):
        """An operand of unknown type (an external's ``item()*``) may hold
        any numeric type; a known untyped atom is an ``xs:double``."""
        _, t, _ = checked("1 + $s", env={"s": ITEM_STAR})
        assert t.show() == "(xs:integer | xs:decimal | xs:float | xs:double)?"
        _, t, _ = checked("$s * 2.5", env={"s": ITEM_STAR})
        assert t.show() == "(xs:decimal | xs:float | xs:double)?"
        _, t, _ = checked("$u + 1", env={"u": atomic("xs:untypedAtomic")})
        assert t.show() == "xs:double"

    def test_a_typed_parameter_takes_arithmetic_over_an_external(self):
        platform = build_platform()
        platform.deploy(
            'declare namespace t = "urn:t"; '
            "declare function t:twice($n as xs:integer) as xs:integer { $n * 2 };",
            name="Twice")
        result = platform.execute("t:twice(1 + $s)", {"s": [AtomicValue(3, "xs:integer")]})
        assert serialize(result) == "8"

    def test_comparison_is_boolean(self):
        _, t, _ = checked("1 eq 2")
        assert t.show().startswith("xs:boolean")

    def test_undefined_variable_is_error(self):
        with pytest.raises(TypeError_):
            checked("$nope")

    def test_unknown_function_is_error(self):
        with pytest.raises(TypeError_):
            checked("no-such-fn(1)")

    def test_design_mode_collects_errors(self):
        _, _, checker = checked("$nope", mode="design")
        assert checker.errors

    def test_group_by_rebinds_scope(self):
        _, t, _ = checked(
            "for $c in CUSTOMER() group $c as $p by data($c/LAST_NAME) as $l "
            "return count($p)"
        )
        assert "integer" in t.show()

    def test_grouped_source_out_of_scope_is_undefined_variable(self):
        query = "for $x in (1, 2) group $zz as $g by $x as $k return fn:count($g)"
        with pytest.raises(TypeError_, match=r"undefined variable \$zz"):
            checked(query)
        _, _, checker = checked(query, mode="design")
        assert checker.errors == ["undefined variable $zz"]
        # the platform reports it as the static error, not as a plan-verifier
        # invariant (ALDSP-E001/E002)
        with pytest.raises(TypeError_, match=r"undefined variable \$zz"):
            build_platform().execute(query)


class TestOptimisticTyping:
    def test_typematch_inserted_on_overlap(self):
        externals = dict(EXTERNALS)
        externals[("takesCustomer", 1)] = FunctionSignature(
            "takesCustomer",
            [shape_sequence(CUSTOMER_SHAPE, "")],
            atomic("xs:string"),
        )
        from repro.schema import AnyNodeType, SequenceType

        expr = normalize(parse_expression("takesCustomer($x)"))
        checker = TypeChecker(FunctionTable(externals=externals))
        checker.infer(
            expr,
            {"x": SequenceType((AnyNodeType(),), Occurrence.STAR)},
        )
        # node()* only intersects element(CUSTOMER) -> guard inserted
        assert isinstance(expr.args[0], ast.TypeMatch)

    def test_no_typematch_when_subtype(self):
        externals = dict(EXTERNALS)
        externals[("wantsDecimal", 1)] = FunctionSignature(
            "wantsDecimal", [atomic("xs:decimal")], atomic("xs:decimal"))
        expr = normalize(parse_expression("wantsDecimal(1)"))
        checker = TypeChecker(FunctionTable(externals=externals))
        checker.infer(expr, {})
        assert isinstance(expr.args[0], ast.Literal)

    def test_disjoint_types_rejected(self):
        externals = dict(EXTERNALS)
        externals[("wantsInt", 1)] = FunctionSignature(
            "wantsInt", [atomic("xs:integer")], atomic("xs:integer"))
        expr = normalize(parse_expression('wantsInt("text")'))
        checker = TypeChecker(FunctionTable(externals=externals))
        with pytest.raises(TypeError_):
            checker.infer(expr, {})


class TestModuleChecking:
    def test_return_type_conflict_reported(self):
        module = parse_module(
            'declare function f() as xs:integer { "text" };', mode="design"
        )
        normalize_module(module)
        checker = TypeChecker(FunctionTable(module), mode="design")
        checker.check_module(module)
        assert module.function("f", 0).errors

    def test_error_free_signature_usable_despite_bad_body(self):
        # Section 4.1: signatures survive body errors in design mode.
        module = parse_module(
            "declare function bad() as xs:integer { $missing };\n"
            "declare function caller() as xs:integer { bad() };",
            mode="design",
        )
        normalize_module(module)
        checker = TypeChecker(FunctionTable(module), mode="design")
        checker.check_module(module)
        assert module.function("bad", 0).errors
        assert not module.function("caller", 0).errors
