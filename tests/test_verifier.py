"""Plan verifier tests: the diagnostics framework, the four analysis
passes, the conjunct round-trip, and the lint entry points."""

import json

import pytest

from repro import PlanVerificationError
from repro.compiler.algebra import (
    ColumnSlot,
    Correlation,
    PPkLetClause,
    PushedSQL,
    SourceCall,
    TableMeta,
)
from repro.compiler.pipeline import Compiler
from repro.compiler.verify import verify_plan
from repro.diagnostics import CODE_REGISTRY, DiagnosticReport, Severity, make
from repro.schema.types import atomic
from repro.sql.ast_nodes import (
    ColumnRef,
    FuncCall,
    Param,
    Select,
    SelectItem,
    TableRef,
)
from repro.sql.pushdown import join_conjuncts, split_conjuncts
from repro.xquery import ast, parse_expression
from repro.xquery.normalize import normalize
from repro.xquery.scope import free_vars

from tests.conftest import build_platform


def parsed(text: str) -> ast.AstNode:
    return normalize(parse_expression(text))


def make_pushed(vendor="oracle", params=None, correlation=None, regroup=None):
    select = Select(
        items=[SelectItem(ColumnRef("t1", "CID"), alias="c1")],
        from_items=[TableRef("CUSTOMER", "t1")],
    )
    template = ColumnSlot("c1", "xs:string", "CID")
    return PushedSQL("custdb", vendor, select, params or [], template,
                     regroup=regroup, correlation=correlation)


CUSTOMER_META = TableMeta(
    database="custdb", table="CUSTOMER", element_name="CUSTOMER",
    columns=[("CID", "xs:string")],
)


# ---------------------------------------------------------------------------
# Diagnostics framework
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_severity_encoded_in_code(self):
        assert Severity.from_code("ALDSP-E101") is Severity.ERROR
        assert Severity.from_code("ALDSP-W004") is Severity.WARNING
        assert Severity.from_code("ALDSP-I302") is Severity.INFO

    def test_every_registered_code_has_a_severity(self):
        for code in CODE_REGISTRY:
            assert Severity.from_code(code) in Severity

    def test_make_rejects_unregistered_codes(self):
        with pytest.raises(ValueError):
            make("ALDSP-E999", "no such code")

    def test_report_sorting_and_rendering(self):
        report = DiagnosticReport()
        report.add(make("ALDSP-I302", "a note", "FLWOR/clause[0]"))
        report.add(make("ALDSP-E001", "an error", "FLWOR", line=3))
        report.add(make("ALDSP-W004", "a warning"))
        assert [d.code for d in report.sorted()] == \
            ["ALDSP-E001", "ALDSP-W004", "ALDSP-I302"]
        text = report.render_text()
        assert "ALDSP-E001 error: an error (at FLWOR) [line 3]" in text
        payload = json.loads(report.render_json())
        assert payload["errors"] == 1 and payload["warnings"] == 1
        assert payload["diagnostics"][0]["code"] == "ALDSP-E001"

    def test_raise_if_errors_carries_the_report(self):
        report = DiagnosticReport([make("ALDSP-E001", "boom")])
        with pytest.raises(PlanVerificationError) as info:
            report.raise_if_errors("ctx")
        assert info.value.report is report
        # warnings alone never raise
        DiagnosticReport([make("ALDSP-W004", "shadow")]).raise_if_errors()


# ---------------------------------------------------------------------------
# free_vars on adversarial scoping
# ---------------------------------------------------------------------------


class TestFreeVars:
    def test_shadowed_for_variables(self):
        expr = parsed("for $x in (1, 2) return for $x in (3) return $x")
        assert free_vars(expr) == set()

    def test_let_rebinding_inside_flwor(self):
        expr = parsed("let $x := 1 let $x := $x + 1 return $x")
        assert free_vars(expr) == set()
        expr = parsed("let $x := $y return $x")
        assert free_vars(expr) == {"y"}

    def test_variables_through_element_content(self):
        expr = parsed("<A>{ $z }</A>")
        assert free_vars(expr) == {"z"}
        expr = parsed("for $v in (1) return <A><B>{ $v }</B>{ $w }</A>")
        assert free_vars(expr) == {"w"}

    def test_quantified_and_typeswitch_bindings(self):
        expr = parsed("some $v in (1, 2) satisfies $v eq $w")
        assert free_vars(expr) == {"w"}
        expr = parsed(
            "typeswitch (1) case $i as xs:integer return $i "
            "default $d return $d"
        )
        assert free_vars(expr) == set()

    def test_group_by_key_expressions(self):
        expr = parsed(
            "for $x in (1, 2) group $x as $g by $x as $k return ($k, $g)"
        )
        assert free_vars(expr) == set()

    def test_group_by_ends_the_scope_of_the_clauses_before_it(self):
        # after the group-by ``$y`` is not the let's: it is free
        expr = parsed(
            "for $x in (1, 2) let $y := $x group $x as $g by $x as $k return $y"
        )
        assert free_vars(expr) == {"y"}
        report = verify_plan(expr, externals=frozenset({"y"}))
        assert not report.has_errors
        assert "ALDSP-E001" in verify_plan(expr).codes()

    def test_compiled_ppk_plan_is_closed(self):
        # The optimized getProfile plan contains PP-k clauses whose
        # correlation keys reference outer variables only through the
        # Correlation record — free_vars must see through it.
        platform = build_platform()
        plan = platform.prepare("getProfile()")
        assert any(isinstance(n, PPkLetClause) for n in plan.expr.walk())
        assert free_vars(plan.expr) == set()


# ---------------------------------------------------------------------------
# split/join conjunct round-trip
# ---------------------------------------------------------------------------


class TestConjunctRoundTrip:
    def test_none_and_empty(self):
        assert split_conjuncts(None) == []
        assert join_conjuncts([]) is None

    def test_single_conjunct(self):
        cond = parsed("1 eq 1")
        assert split_conjuncts(cond) == [cond]
        assert join_conjuncts([cond]) is cond

    def test_round_trip_preserves_order(self):
        a, b, c = parsed("$x eq 1"), parsed("$y eq 2"), parsed("$z eq 3")
        joined = join_conjuncts([a, b, c])
        assert split_conjuncts(joined) == [a, b, c]

    def test_split_flattens_nested_ands(self):
        cond = parsed("$a eq 1 and $b eq 2 and $c eq 3 and $d eq 4")
        parts = split_conjuncts(cond)
        assert len(parts) == 4
        assert split_conjuncts(join_conjuncts(parts)) == parts


# ---------------------------------------------------------------------------
# Pass 1: scope / binding
# ---------------------------------------------------------------------------


class TestScopeChecker:
    def test_unbound_variable(self):
        report = verify_plan(parsed("$nowhere + 1"))
        assert "ALDSP-E001" in report.codes()
        assert "ALDSP-E002" in report.codes()
        assert report.has_errors

    def test_externals_are_bound(self):
        report = verify_plan(parsed("$arg + 1"), externals=frozenset({"arg"}))
        assert not report.has_errors

    def test_shadowing_is_a_warning_not_an_error(self):
        report = verify_plan(
            parsed("for $x in (1, 2) return for $x in (3) return $x"))
        assert report.by_code("ALDSP-W004")
        assert not report.has_errors

    def test_open_template_is_an_error(self):
        pushed = make_pushed()
        pushed.template = ast.ElementCtor("ROW", [], [ast.VarRef("leak")])
        report = verify_plan(pushed)
        assert [d.code for d in report.errors] == ["ALDSP-E003"]

    def test_typeswitch_case_variables_are_scoped(self):
        report = verify_plan(parsed(
            "typeswitch (1) case $i as xs:integer return $i "
            "default $d return $d"
        ))
        assert not report.has_errors


# ---------------------------------------------------------------------------
# Pass 2: pushdown-safety auditor
# ---------------------------------------------------------------------------


class TestPushdownAuditor:
    def test_capability_drift_is_rejected(self):
        # Compile a real plan that legitimately pushes CEIL to Oracle,
        # then simulate capability drift by retargeting the region at the
        # base SQL92 dialect, where CEIL is not pushable.
        platform = build_platform()
        plan = platform.prepare(
            "for $o in ORDER() return ceiling($o/AMOUNT div 7)")
        regions = [n for n in plan.expr.walk() if isinstance(n, PushedSQL)]
        assert regions, "expected a pushed region"
        assert any(
            isinstance(n, FuncCall) and n.name == "CEIL"
            for r in regions for n in _sql_walk(r.select)
        )
        assert not verify_plan(plan.expr).has_errors
        for region in regions:
            region.vendor = "sql92"
        report = verify_plan(plan.expr)
        assert report.by_code("ALDSP-E101")
        assert report.has_errors

    def test_unsupported_pagination(self):
        pushed = make_pushed(vendor="sybase")
        pushed.select.fetch = (0, 5)
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-E102")

    def test_parameter_without_middleware_expression(self):
        pushed = make_pushed()
        pushed.select.where = Param(3)
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-E105")

    def test_unshipped_parameter_expression(self):
        pushed = make_pushed(params=[ast.EmptySequence()])
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-W106")
        assert not report.has_errors

    def test_unknown_vendor_falls_back_with_warning(self):
        report = verify_plan(make_pushed(vendor="acmedb"))
        assert report.by_code("ALDSP-W109")
        assert not report.has_errors

    def test_unprojected_template_alias(self):
        pushed = make_pushed()
        pushed.template = ColumnSlot("missing", "xs:string", "CID")
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-E107")

    def test_unprojected_correlation_alias(self):
        correlation = Correlation(ColumnRef("t1", "CID"), "not_projected",
                                  ast.EmptySequence())
        report = verify_plan(make_pushed(correlation=correlation))
        assert report.by_code("ALDSP-E107")

    def test_empty_select_list(self):
        pushed = make_pushed()
        pushed.select.items = []
        pushed.template = ast.ElementCtor("R", [], [])
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-E111")
        assert report.has_errors

    def test_ppk_without_correlation(self):
        flwor = ast.FLWOR(
            [ast.ForClause("x", parsed("(1, 2)")),
             PPkLetClause("cc", make_pushed(), k=20)],
            ast.VarRef("cc"),
        )
        report = verify_plan(flwor)
        assert report.by_code("ALDSP-E110")


def _sql_walk(obj):
    if isinstance(obj, (list, tuple)):
        for entry in obj:
            yield from _sql_walk(entry)
        return
    if hasattr(obj, "__dataclass_fields__"):
        yield obj
        for name in obj.__dataclass_fields__:
            yield from _sql_walk(getattr(obj, name))


# ---------------------------------------------------------------------------
# Pass 3: typematch consistency
# ---------------------------------------------------------------------------


class TestTypeConsistency:
    def _typematch(self, operand_type, target):
        operand = ast.EmptySequence()
        operand.static_type = operand_type
        node = ast.TypeMatch(operand, target)
        node.static_type = target
        return node

    def test_redundant_typematch(self):
        node = self._typematch(atomic("xs:integer"), atomic("xs:integer"))
        report = verify_plan(node)
        assert report.by_code("ALDSP-W201")
        assert not report.has_errors

    def test_unsatisfiable_typematch(self):
        node = self._typematch(atomic("xs:integer"), atomic("xs:string"))
        report = verify_plan(node)
        assert report.by_code("ALDSP-W202")

    def test_justified_typematch_is_silent(self):
        from repro.schema.types import ITEM_STAR

        node = self._typematch(ITEM_STAR, atomic("xs:integer"))
        report = verify_plan(node)
        assert not report.by_code("ALDSP-W201")
        assert not report.by_code("ALDSP-W202")


# ---------------------------------------------------------------------------
# Pass 4: plan-shape lints
# ---------------------------------------------------------------------------


class TestPlanShape:
    def _ppk_flwor(self, k):
        correlation = Correlation(ColumnRef("t1", "CID"), "c1",
                                  ast.EmptySequence())
        return ast.FLWOR(
            [ast.ForClause("x", parsed("(1, 2)")),
             PPkLetClause("cc", make_pushed(correlation=correlation), k=k)],
            ast.VarRef("cc"),
        )

    def test_invalid_block_size(self):
        report = verify_plan(self._ppk_flwor(0))
        assert report.by_code("ALDSP-E301")

    def test_degenerate_block_size_is_a_note(self):
        report = verify_plan(self._ppk_flwor(1))
        assert report.by_code("ALDSP-I302")
        assert not report.has_errors

    def test_oversized_block_size(self):
        report = verify_plan(self._ppk_flwor(5000))
        assert report.by_code("ALDSP-W303")

    def test_dead_let_slot(self):
        report = verify_plan(parsed("let $unused := 1 return 2"))
        assert report.by_code("ALDSP-W304")
        assert not report.has_errors

    def test_dead_projection(self):
        pushed = make_pushed()
        pushed.select.items.append(
            SelectItem(ColumnRef("t1", "SSN"), alias="dead"))
        report = verify_plan(pushed)
        assert report.by_code("ALDSP-W305")

    def test_middleware_table_scan_only_when_push_enabled(self):
        scan = SourceCall("CUSTOMER", [], "table", CUSTOMER_META)
        assert verify_plan(scan, push_enabled=True).by_code("ALDSP-W306")
        assert not verify_plan(scan, push_enabled=False).by_code("ALDSP-W306")

    def test_unguarded_web_service_call(self):
        call = SourceCall("getRating", [], "webservice")
        assert verify_plan(call).by_code("ALDSP-I308")
        guarded = ast.FunctionCall("fn-bea:timeout", [
            SourceCall("getRating", [], "webservice"),
            ast.EmptySequence(),
        ])
        assert not verify_plan(guarded).by_code("ALDSP-I308")


# ---------------------------------------------------------------------------
# Pipeline / Platform / CLI integration
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_verify_is_on_by_default(self):
        plan = Compiler().compile_expression("1 + 1")
        assert isinstance(plan.diagnostics, DiagnosticReport)

    def test_compiled_plans_carry_diagnostics(self):
        platform = build_platform()
        plan = platform.prepare("for $c in CUSTOMER() return $c/CID")
        assert isinstance(plan.diagnostics, DiagnosticReport)
        assert not plan.diagnostics.has_errors

    def test_explain_appends_diagnostics_and_dialect(self):
        platform = build_platform()
        text = platform.explain("getProfile()")
        assert "sql[oracle]:" in text or "sql[db2]:" in text
        assert "DIAGNOSTICS" in text  # the plan has info-level notes

    def test_explain_names_the_dialect_next_to_sql(self):
        platform = build_platform()
        text = platform.explain("for $c in CUSTOMER() return $c/CID")
        assert "PUSHED SQL -> custdb (oracle)" in text
        assert "sql[oracle]: SELECT" in text

    def test_lint_collects_analysis_errors_as_e000(self):
        platform = build_platform()
        report = platform.lint("$undefined + 1")
        assert report.by_code("ALDSP-E000")
        assert report.has_errors

    def test_lint_clean_query(self):
        platform = build_platform()
        report = platform.lint("for $c in CUSTOMER() return $c/CID")
        assert not report.has_errors

    def test_cli_lint_exit_codes(self, capsys):
        from repro.cli import main

        assert main(["lint", "for $c in CUSTOMER() return $c/CID"]) == 0
        capsys.readouterr()
        assert main(["lint", "$undefined + 1"]) == 1
        out = capsys.readouterr().out
        assert "ALDSP-E000" in out

    def test_cli_lint_json(self, capsys):
        from repro.cli import main

        assert main(["lint", "--json", "getProfile()"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert isinstance(payload["diagnostics"], list)


# ---------------------------------------------------------------------------
# Regression: the benchmark corpus verifies clean
# ---------------------------------------------------------------------------

CORPUS = [
    # running example and method calls
    "getProfile()",
    'getProfileByID("C1")',
    # Table 1/2-style pushdown patterns
    "for $c in CUSTOMER() return $c/CID",
    "for $c in CUSTOMER() where $c/SINCE gt 864000 return $c/LAST_NAME",
    "for $o in ORDER() order by $o/AMOUNT descending return $o/OID",
    "for $o in ORDER() return ceiling($o/AMOUNT div 7)",
    "fn:count(for $o in ORDER() return $o)",
    "for $c in CUSTOMER() return upper-case(data($c/LAST_NAME))",
    # same-database join (pushed as one SQL query)
    "for $c in CUSTOMER() for $o in ORDER() "
    "where $o/CID eq $c/CID return ($c/CID, $o/OID)",
    # cross-database join (PP-k)
    "for $c in CUSTOMER() for $cc in CREDIT_CARD() "
    "where $cc/CID eq $c/CID return $cc/NUMBER",
    # grouping
    "for $o in ORDER() group $o as $g by data($o/CID) as $k "
    "return <T><K>{$k}</K><N>{count($g)}</N></T>",
    # pagination
    "subsequence(for $o in ORDER() order by $o/OID return $o, 1, 2)",
    # quantifier and conditional
    "for $c in CUSTOMER() where some $o in ORDER() "
    "satisfies $o/CID eq $c/CID return $c/CID",
    "for $o in ORDER() return if ($o/AMOUNT gt 20) then $o/OID else ()",
]


class TestBenchmarkCorpusClean:
    @pytest.mark.parametrize("query", CORPUS)
    def test_corpus_query_verifies_clean(self, query):
        platform = build_platform()
        report = platform.lint(query)
        errors = [d.render() for d in report.errors]
        assert not errors, errors

    def test_corpus_compiles_under_runtime_verification(self):
        # Runtime mode raises on error-severity diagnostics; compiling the
        # whole corpus proves the verifier is clean on real plans.
        platform = build_platform(customers=3)
        for query in CORPUS:
            platform.prepare(query)
