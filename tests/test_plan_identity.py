"""Plan identity: what the compiler produces for a fixed set of queries is
pinned byte for byte in ``tests/golden/plan_identity.txt``.

The golden file was written by :func:`plan_identity_text` at the commit
before view unfolding went clone-free and the traversal helpers lost their
nested generators; a change that only makes the compiler *faster* must
never need to regenerate it.  Per query it holds the plan tree's ``repr``,
the ``Platform.explain`` text (diagnostics included), every pushed
region's SQL in each dialect, and in pre-order every stamp a node carries
(those its class declares, ``ast_nodes.stamps_of``, set by a pass).  Platform-backed queries
are compiled with a cold and then a warm view cache and must come out the
same both times.  To regenerate after a change that is *meant* to move
plans::

    PYTHONPATH=src python tests/test_plan_identity.py
"""

from __future__ import annotations

import ast as python_ast
import sys
import tempfile
from pathlib import Path

from repro.compiler.algebra import PushedSQL
from repro.compiler.explain import explain as explain_plan
from repro.errors import StaticError
from repro.schema.types import ITEM_STAR
from repro.sql.dialects import DIALECTS, SqlRenderer
from repro.xquery import ast_nodes as ast

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "plan_identity.txt"
LAYERED = HERE.parent / "benchmarks" / "layered"


def describe(plan) -> str:
    """Everything a user or the runtime can see of a compiled plan."""
    text = explain_plan(plan.expr)
    if plan.diagnostics is not None and len(plan.diagnostics):
        text += ("\nDIAGNOSTICS (" + plan.diagnostics.summary() + ")\n"
                 + plan.diagnostics.render_text(prefix="  "))
    lines = [f"tree: {plan.expr!r}", "explain:", text]
    for node in plan.expr.walk():
        stamps = [f"{name}={value!r}"
                  for name, unset in ast.stamps_of(type(node)).items()
                  if (value := getattr(node, name)) != unset]
        if stamps:
            lines.append(f"stamp: {type(node).__name__} {' '.join(stamps)}")
        if isinstance(node, PushedSQL):
            for vendor, caps in DIALECTS.items():
                try:
                    sql = SqlRenderer(caps).render(node.select)
                except Exception as exc:  # noqa: BLE001 - the refusal is the golden text
                    sql = f"{type(exc).__name__}: {exc}"
                lines.append(f"sql[{vendor}]: {sql}")
    return "\n".join(lines)


def _entry(subject, query: str, variables=None) -> str:
    """Cold view cache, then warm: one text, the same both times.

    Pinned to the *inline* compile (``Compiler.compile_expression``, what
    the plan cache compiles first and checks its parameterised plans
    against); ``tests/test_plan_shapes.py`` holds the served plans to it.
    ``subject`` is a platform or, for the pushdown patterns, a compiler."""
    externals = {name: ITEM_STAR for name in sorted(variables)} \
        if variables else None
    if hasattr(subject, "view_cache"):
        subject.view_cache.clear()
    make = getattr(subject, "_compiler", lambda: subject)
    cold = make().compile_expression(query, externals=externals)
    warm = make().compile_expression(query, externals=externals)
    assert warm is not cold
    text = describe(cold)
    assert describe(warm) == text, f"warm view cache changed the plan of {query!r}"
    names = ",".join(sorted(variables or ()))
    return f"== {query.strip()}\n-- externals: {names}\n{text}\n"


def _running_example():
    from repro.xml.items import AtomicValue
    from tests.conftest import build_platform

    platform = build_platform()
    c1 = {"id": [AtomicValue("C1", "xs:string")]}
    for query, variables in (
            ("getProfile()", None), ('getProfileByID("C1")', None),
            ("getProfileByID($id)", c1),
            ("for $p in getProfile() return $p/LAST_NAME", None)):
        yield "", platform, query, variables


def _benchmark_shapes(tmp_path):
    """The request shapes of all seven layered-benchmark workloads
    (``cold_compile``'s six templates among them), over its federation."""
    sys.path.insert(0, str(LAYERED))
    try:
        from federation import SIZES, build_federation
        from oracle import Oracle
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(LAYERED))
    fed = build_federation(1, SIZES["smoke"], tmp_path, virtual=True)
    try:
        seen = set()
        for name, cls in WORKLOADS.items():
            workload = cls(fed, Oracle(fed.rows), 1)
            for request in workload.requests(3):
                key = (request.text, tuple(sorted(request.variables or ())))
                if request.text and key not in seen:
                    seen.add(key)
                    yield f"## {name}\n", fed.platform, request.text, request.variables
    finally:
        fed.close()


def _pushdown_pattern_queries() -> list[str]:
    """Every query text ``tests/test_sql_pushdown_patterns.py`` compiles."""
    tree = python_ast.parse((HERE / "test_sql_pushdown_patterns.py").read_text())
    queries = []
    for call in python_ast.walk(tree):
        if not isinstance(call, python_ast.Call):
            continue
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        position = {"compile_and_run": 1, "compile_expression": 0}.get(name)
        if position is None or len(call.args) <= position:
            continue
        arg = call.args[position]
        if isinstance(arg, python_ast.Constant) and isinstance(arg.value, str):
            queries.append(arg.value)
    return queries


def _pushdown_patterns():
    import re

    from tests.test_sql_pushdown_patterns import build_env

    compiler = build_env()[0]
    for query in _pushdown_pattern_queries():
        variables = None
        try:
            compiler.compile_expression(query)
        except StaticError:
            variables = dict.fromkeys(re.findall(r"\$(\w+)", query))
        yield "", compiler, query, variables


def _composite_scenario(tmp_path):
    from tests.test_composite_scenario import SALES_VELOCITY, build_scenario

    platform = build_scenario(tmp_path)[0]
    for query in ("productInfo()", "replenishmentReport()", SALES_VELOCITY):
        yield "", platform, query, None


def _inverse_rules():
    """A transform rule and an inverse pair are registered, so the
    optimizer's non-empty-registry path is the one that runs."""
    from tests.test_inverse_functions import platform_with_inverses

    platform = platform_with_inverses()
    for query in (
            "for $v in getSince() where $v/SINCE gt int2date(2500000) return $v/CID",
            "for $c in CUSTOMER() where int2date($c/SINCE) gt int2date(2500000) "
            "return $c/CID",
            "for $c in CUSTOMER() return date2int(int2date($c/SINCE))",
            "getSince()"):
        yield "", platform, query, None


def plan_corpus(tmp_path):
    """``(section, cases)`` per section of the golden file; a case is
    ``(heading, platform or compiler, query, variables)``."""
    return [
        ("running example", _running_example()),
        ("layered benchmark shapes", _benchmark_shapes(tmp_path)),
        ("tests/test_sql_pushdown_patterns.py", _pushdown_patterns()),
        ("tests/test_composite_scenario.py", _composite_scenario(tmp_path)),
        ("inverse and transform rules registered", _inverse_rules()),
    ]


def plan_identity_text(tmp_path) -> str:
    return "".join(
        f"#### {title}\n" + "\n".join(
            heading + _entry(subject, query, variables)
            for heading, subject, query, variables in cases) + "\n"
        for title, cases in plan_corpus(tmp_path))


def test_plans_match_golden(tmp_path):
    assert plan_identity_text(tmp_path) == GOLDEN.read_text()


def test_every_pushdown_pattern_query_is_found():
    # the source scan must keep up with the file it reads
    assert len(_pushdown_pattern_queries()) >= 19


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(plan_identity_text(Path(scratch)))
    print(f"wrote {GOLDEN}")
