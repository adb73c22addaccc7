"""Plan verification: a static-analysis pass over compiled plans.

The compiler stakes correctness on invariants it never used to check:
every pushed SQL region must only use operations its target dialect
supports (paper section 4.4, Tables 1-2), every ``typematch`` guard must be
justified by the optimistic-typing rule (section 4.1), and optimizer
rewrites (view unfolding, PP-k introduction, pushdown) must preserve
variable scoping.  :class:`PlanVerifier` re-checks those invariants over
the *optimized* algebra tree — between the optimizer and the runtime — so
a rewrite bug or capability-matrix drift is caught at compile time with a
stable diagnostic code rather than deep inside a source backend.

Four passes, each emitting :class:`~repro.diagnostics.Diagnostic` records:

1. **scope/binding** — every variable use is bound, alpha-renaming left no
   captures, reconstruction templates are closed, and the plan root has no
   free variables beyond its declared externals;
2. **pushdown safety** — each :class:`~repro.compiler.algebra.PushedSQL`
   region's SQL AST is re-validated against ``capabilities_for(vendor)``
   (unsupported functions / pagination / outer joins / CASE), parameter
   slots line up with middleware expressions, and correlation/regroup
   aliases are actually projected;
3. **type consistency** — every ``typematch`` is either necessary under
   ``needs_typematch`` or flagged redundant (an unsatisfiable guard is
   flagged too), and nodes stripped of static types by rewrites are
   counted;
4. **plan shape** — degenerate PP-k block sizes, dead let slots, dead
   projected columns, middleware joins/scans that were pushdown-eligible,
   and unguarded network-source calls.

Error-severity findings abort runtime-mode compilation
(:meth:`~repro.diagnostics.DiagnosticReport.raise_if_errors`); design mode
and ``repro lint`` collect everything, mirroring section 4.1's error
recovery.
"""

from __future__ import annotations

from ..diagnostics import DiagnosticReport, make
from ..schema.structural import intersects, needs_typematch
from ..sql.ast_nodes import CaseExpr, FuncCall, Join, Param, Select, sql_nodes
from ..sql.dialects import SqlRenderer, capabilities_for
from ..sql.pushdown import is_table_call
from ..xquery import ast_nodes as ast
from ..xquery.scope import CLOSED, UNBOUND, free_vars, use_counts, walk
from .algebra import (
    ColumnSlot,
    GroupSlot,
    NestedSlot,
    PPkLetClause,
    PushedSQL,
    PushedTupleForClause,
    SourceCall,
)

#: PP-k block sizes beyond this are flagged: the disjunctive block query
#: stops amortizing roundtrips and starts stressing source SQL parsers.
PPK_OVERSIZED = 1000

#: service-quality control functions whose arguments are protected
_GUARD_FUNCTIONS = frozenset({"fn-bea:timeout", "fn-bea:fail-over", "fn-bea:async"})


def verify_plan(expr: ast.AstNode, externals: frozenset[str] = frozenset(),
                push_enabled: bool = True) -> DiagnosticReport:
    """Run every verifier pass over an optimized plan tree."""
    return PlanVerifier(externals, push_enabled).verify(expr)


class PlanVerifier:
    def __init__(self, externals: frozenset[str] = frozenset(),
                 push_enabled: bool = True):
        self.externals = frozenset(externals)
        self.push_enabled = push_enabled
        self.report = DiagnosticReport()

    # -- entry point ------------------------------------------------------------

    def verify(self, expr: ast.AstNode) -> DiagnosticReport:
        self.report = DiagnosticReport()
        index = iter_with_path(expr)  # one traversal, shared by the passes
        self.check_scopes(expr, index)
        self.check_pushdown_safety(index)
        self.check_types(expr, index)
        self.check_plan_shape(expr, index)
        return self.report

    def _emit(self, code: str, message: str, path: str,
              line: int | None = None, **detail) -> None:
        self.report.add(make(code, message, path, line, **detail))

    # ------------------------------------------------------------------------
    # Pass 1: scope / binding checker
    # ------------------------------------------------------------------------

    def check_scopes(self, expr: ast.AstNode, index: PlanIndex) -> None:
        """One scope walk (:mod:`repro.xquery.scope`): every use bound, no
        binder hiding another, every template closed, and the root closed
        over its externals."""
        root = _root_path(expr)
        paths = {id(node): path for node, path, _in_pushed in index}
        leaked: dict[str, None] = {}

        def use(node: ast.AstNode, name: str, binder) -> None:
            at = paths.get(id(node), root)
            if binder is CLOSED:
                self._emit(
                    "ALDSP-E003",
                    f"reconstruction template references variable ${name}",
                    at, node.line, variable=name,
                )
            elif binder is UNBOUND:
                leaked[name] = None
                what = "variable" if isinstance(node, ast.VarRef) else "grouped variable"
                self._emit(
                    "ALDSP-E001",
                    f"{what} ${name} is not bound in this scope",
                    at, node.line, variable=name,
                )

        def bind(binder: ast.AstNode, name: str, scope: dict) -> None:
            if name in scope:
                self._emit(
                    "ALDSP-W004",
                    f"binding of ${name} shadows an outer binding",
                    paths.get(id(binder), root), variable=name,
                )

        walk(expr, use, bind, dict.fromkeys(self.externals))
        if leaked:
            names = ", ".join(f"${name}" for name in sorted(leaked))
            self._emit(
                "ALDSP-E002",
                f"plan root has free variables: {names}",
                root, variables=sorted(leaked),
            )

    # ------------------------------------------------------------------------
    # Pass 2: pushdown-safety auditor
    # ------------------------------------------------------------------------

    def check_pushdown_safety(self, index: PlanIndex) -> None:
        audited: set[int] = set()
        for node, path, _in_pushed in index:
            if isinstance(node, PPkLetClause):
                audited.add(id(node.pushed))
                self._audit_region(node.pushed, f"{path}/PushedSQL",
                                   require_correlation=True)
            elif isinstance(node, PushedTupleForClause):
                audited.add(id(node.pushed))
                self._audit_region(node.pushed, f"{path}/PushedSQL")
            elif isinstance(node, PushedSQL) and id(node) not in audited:
                audited.add(id(node))
                self._audit_region(node, path)

    def _audit_region(self, pushed: PushedSQL, path: str,
                      require_correlation: bool = False) -> None:
        vendor = pushed.vendor
        caps = capabilities_for(vendor)
        errors_before = len(self.report.errors)
        if caps.name == "sql92" and vendor.lower() != "sql92":
            self._emit(
                "ALDSP-W109",
                f"vendor {vendor!r} is not registered; using base SQL92 capabilities",
                path, vendor=vendor,
            )

        # Re-validate the SQL AST operation by operation (Tables 1-2).
        nodes = sql_nodes(pushed.select)
        for sql_node in nodes:
            if isinstance(sql_node, FuncCall):
                mapped = caps.function_map.get(sql_node.name, sql_node.name)
                if sql_node.name in caps.unpushable_functions \
                        or mapped in caps.unpushable_functions:
                    self._emit(
                        "ALDSP-E101",
                        f"function {sql_node.name} is not pushable on {caps.name}",
                        path, vendor=vendor, function=sql_node.name,
                    )
            elif isinstance(sql_node, Select) and sql_node.fetch is not None \
                    and caps.pagination is None:
                self._emit(
                    "ALDSP-E102",
                    f"dialect {caps.name} cannot express pushed pagination",
                    path, vendor=vendor,
                )
            elif isinstance(sql_node, Join) and sql_node.kind == "left" \
                    and not caps.supports_outer_join:
                self._emit(
                    "ALDSP-E103",
                    f"dialect {caps.name} cannot push LEFT OUTER JOIN",
                    path, vendor=vendor,
                )
            elif isinstance(sql_node, CaseExpr) and not caps.supports_case:
                self._emit(
                    "ALDSP-E104",
                    f"dialect {caps.name} cannot push CASE expressions",
                    path, vendor=vendor,
                )

        # Parameter slots must line up with middleware expressions.
        declared = len(pushed.param_exprs)
        used = {n.index for n in nodes if isinstance(n, Param)}
        out_of_range = sorted(i for i in used if i < 0 or i >= declared)
        if out_of_range:
            self._emit(
                "ALDSP-E105",
                f"SQL references parameter slot(s) {out_of_range} but only "
                f"{declared} middleware expression(s) are attached",
                path, indexes=out_of_range, declared=declared,
            )
        unused = sorted(set(range(declared)) - used)
        if unused:
            self._emit(
                "ALDSP-W106",
                f"middleware parameter expression(s) {unused} are never shipped",
                path, indexes=unused,
            )

        # Correlation / regroup aliases must actually be projected.
        aliases = {item.alias for item in pushed.select.items if item.alias}
        if not pushed.select.items:
            self._emit(
                "ALDSP-E111",
                "pushed SQL has an empty select list (a return that reads "
                "no column projects a hidden constant)",
                path, database=pushed.database,
            )
        if require_correlation and pushed.correlation is None:
            self._emit(
                "ALDSP-E110",
                "PP-k clause over a region with no correlation predicate",
                path, database=pushed.database,
            )
        if pushed.correlation is not None \
                and pushed.correlation.column_alias not in aliases:
            self._emit(
                "ALDSP-E107",
                f"correlation alias {pushed.correlation.column_alias} is not projected",
                path, alias=pushed.correlation.column_alias,
            )
        for alias in pushed.regroup or ():
            if alias not in aliases:
                self._emit(
                    "ALDSP-E107",
                    f"regroup alias {alias} is not projected",
                    path, alias=alias,
                )
        template_aliases = _template_aliases(pushed.template)
        missing = sorted(template_aliases - aliases)
        if missing:
            self._emit(
                "ALDSP-E107",
                f"template column slot(s) {missing} are not projected",
                path, aliases=missing,
            )

        # Finally, the dialect must actually render the statement.  Skip the
        # smoke test when a specific violation was already reported (it
        # would fail for the same reason).
        if len(self.report.errors) == errors_before:
            try:
                SqlRenderer(caps).render(pushed.select)
            except Exception as exc:  # SQLError, but stay defensive
                self._emit(
                    "ALDSP-E108",
                    f"dialect {caps.name} failed to render pushed SQL: {exc}",
                    path, vendor=vendor,
                )

    # ------------------------------------------------------------------------
    # Pass 3: type-annotation consistency
    # ------------------------------------------------------------------------

    def check_types(self, expr: ast.AstNode, index: PlanIndex) -> None:
        unannotated = 0
        for node, path, in_pushed in index:
            if in_pushed:
                # templates and parameter expressions live outside the
                # middleware type discipline
                continue
            if isinstance(node, ast.TypeMatch):
                operand_type = node.operand.static_type
                if node.target is None:
                    continue
                if operand_type is None:
                    continue
                if not intersects(operand_type, node.target) \
                        and not operand_type.is_empty:
                    self._emit(
                        "ALDSP-W202",
                        f"typematch can never succeed: operand type "
                        f"{operand_type.show()} does not intersect "
                        f"{node.target.show()}",
                        path, node.line,
                    )
                elif not needs_typematch(operand_type, node.target):
                    self._emit(
                        "ALDSP-W201",
                        f"redundant typematch: {operand_type.show()} is already "
                        f"a subtype of {node.target.show()}",
                        path, node.line,
                    )
            if _is_expression_node(node) and node.static_type is None:
                unannotated += 1
        if unannotated:
            self._emit(
                "ALDSP-I203",
                f"{unannotated} expression node(s) lost their static-type "
                "annotation during rewriting",
                _root_path(expr), count=unannotated,
            )

    # ------------------------------------------------------------------------
    # Pass 4: plan-shape lints
    # ------------------------------------------------------------------------

    def check_plan_shape(self, expr: ast.AstNode, index: PlanIndex) -> None:
        uses = use_counts(expr)
        for node, path, _in_pushed in index:
            if isinstance(node, ast.FLWOR):
                self._lint_flwor(node, path, uses)
                self._lint_scatter(node, path)
            if isinstance(node, PPkLetClause):
                self._lint_ppk(node, path)
            if isinstance(node, PushedSQL):
                self._lint_dead_projection(node, path)
        if self.push_enabled:
            for node, path, _in_pushed in index:
                if is_table_call(node):
                    self._emit(
                        "ALDSP-W306",
                        f"table {node.table_meta.table} is scanned through its "
                        "adaptor in the middleware; the scan was not pushed",
                        path, table=node.table_meta.table,
                        database=node.table_meta.database,
                    )
        self._lint_unguarded_sources(expr)

    def _lint_ppk(self, clause: PPkLetClause, path: str) -> None:
        if clause.k < 1:
            self._emit(
                "ALDSP-E301",
                f"PP-k block size {clause.k} is invalid (must be >= 1)",
                path, k=clause.k,
            )
        elif clause.k == 1:
            self._emit(
                "ALDSP-I302",
                "PP-1 degenerates to an index nested-loop join "
                "(one source roundtrip per outer tuple)",
                path, k=clause.k,
            )
        elif clause.k > PPK_OVERSIZED:
            self._emit(
                "ALDSP-W303",
                f"PP-k block size {clause.k} exceeds the useful range "
                f"(> {PPK_OVERSIZED}); the disjunctive block query will be huge",
                path, k=clause.k,
            )

    def _lint_flwor(self, flwor: ast.FLWOR, path: str, uses) -> None:
        # Dead let slots: a binding nothing reads (a grouped variable
        # naming it reads it).
        for index, clause in enumerate(flwor.clauses):
            if not isinstance(clause, (ast.LetClause, PPkLetClause)):
                continue
            if uses[clause, clause.var] == 0:
                self._emit(
                    "ALDSP-W304",
                    f"let-bound ${clause.var} is never used (dead slot)",
                    f"{path}/clause[{index}]", variable=clause.var,
                )
        # Middleware join between two pushed scans of the same database:
        # the region compiler could have joined them at the source.
        previous_db: str | None = None
        for index, clause in enumerate(flwor.clauses):
            if isinstance(clause, ast.ForClause) and isinstance(clause.expr, PushedSQL):
                pushed = clause.expr
                is_plain_scan = (
                    pushed.regroup is None
                    and pushed.correlation is None
                    and pushed.select.fetch is None
                )
                if is_plain_scan and previous_db == pushed.database:
                    self._emit(
                        "ALDSP-W307",
                        f"adjacent scans of database {pushed.database} are joined "
                        "in the middleware; a single pushed SQL join was eligible",
                        f"{path}/clause[{index}]", database=pushed.database,
                    )
                previous_db = pushed.database if is_plain_scan else None
            elif isinstance(clause, (ast.LetClause, ast.WhereClause)):
                continue  # keeps scan adjacency
            else:
                previous_db = None

    def _lint_scatter(self, flwor: ast.FLWOR, path: str) -> None:
        """Re-prove the scatter-group independence rule (P-ADAPT): members
        of one group run concurrently, so no member's expression may read a
        variable bound by another member of the same group."""
        groups: dict[int, list[tuple[int, ast.LetClause]]] = {}
        for index, clause in enumerate(flwor.clauses):
            group = clause.scatter_group
            if group is not None and isinstance(clause, ast.LetClause):
                groups.setdefault(group, []).append((index, clause))
        for group, members in groups.items():
            bound = {clause.var for _i, clause in members}
            for index, clause in members:
                overlap = free_vars(clause.expr) & (bound - {clause.var})
                if overlap:
                    names = ", ".join(f"${name}" for name in sorted(overlap))
                    self._emit(
                        "ALDSP-E309",
                        f"scatter group {group} member ${clause.var} depends on "
                        f"sibling binding(s) {names}",
                        f"{path}/clause[{index}]", group=group,
                        variable=clause.var, depends_on=sorted(overlap),
                    )

    def _lint_dead_projection(self, pushed: PushedSQL, path: str) -> None:
        if pushed.select.distinct or len(pushed.select.items) == 1:
            # every projected column affects DISTINCT semantics, and a
            # select list cannot lose its last column
            return
        used = _template_aliases(pushed.template)
        used.update(pushed.regroup or ())
        if pushed.correlation is not None:
            used.add(pushed.correlation.column_alias)
        group_exprs = list(pushed.select.group_by)
        for item in pushed.select.items:
            if item.alias is None or item.alias in used:
                continue
            if any(item.expr == group_expr for group_expr in group_exprs):
                continue  # hidden grouping column (implicit aggregation)
            self._emit(
                "ALDSP-W305",
                f"projected column {item.alias} is never consumed by a "
                "template, regroup, or correlation (dead projection)",
                path, alias=item.alias,
            )

    def _lint_unguarded_sources(self, expr: ast.AstNode) -> None:
        """Network sources without timeout/fail-over protection (section
        5.6): an unguarded web-service call stalls the whole plan when the
        service degrades."""

        def visit(node: ast.AstNode, guarded: bool, path: str) -> None:
            label = type(node).__name__
            here = f"{path}/{label}" if path else label
            if isinstance(node, ast.FunctionCall) and node.name in _GUARD_FUNCTIONS:
                for arg in node.args:
                    visit(arg, True, here)
                return
            if isinstance(node, SourceCall) and node.kind == "webservice" \
                    and not guarded:
                self._emit(
                    "ALDSP-I308",
                    f"web-service call {node.name}() has no fn-bea:timeout or "
                    "fn-bea:fail-over guard",
                    here, source=node.name,
                )
            for child in node.children():
                visit(child, guarded, here)

        visit(expr, False, "")


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


#: what :func:`iter_with_path` returns
PlanIndex = list[tuple[ast.AstNode, str, bool]]


def iter_with_path(node: ast.AstNode, path: str = "") -> PlanIndex:
    """The plan in pre-order as (node, operator-path, inside a pushed
    region) triples.

    FLWOR clauses get indexed path segments so diagnostics are
    cross-referenceable with ``explain`` output.  The flag is true for
    everything *below* a :class:`PushedSQL` (its templates and parameter
    expressions), not for the region node itself.
    """
    index: PlanIndex = []

    def visit(current: ast.AstNode, path: str, in_pushed: bool) -> None:
        label = type(current).__name__
        here = f"{path}/{label}" if path else label
        index.append((current, here, in_pushed))
        below = in_pushed or isinstance(current, PushedSQL)
        if isinstance(current, ast.FLWOR):
            for position, clause in enumerate(current.clauses):
                visit(clause, f"{here}/clause[{position}]", below)
            visit(current.return_expr, f"{here}/return", below)
            return
        for child in current.children():
            visit(child, here, below)

    visit(node, path, False)
    return index


def _root_path(expr: ast.AstNode) -> str:
    return type(expr).__name__


def _template_aliases(template: ast.AstNode) -> set[str]:
    """Select aliases a reconstruction template reads."""
    aliases: set[str] = set()
    for sub in template.walk():
        if isinstance(sub, ColumnSlot):
            aliases.add(sub.alias)
        elif isinstance(sub, NestedSlot):
            aliases.add(sub.probe_alias)
        elif isinstance(sub, GroupSlot):
            pass  # its inner template is reached by walk()
    return aliases


#: node classes whose instances the middleware type checker annotates;
#: clauses, steps and compiler-internal slots are structural, not typed.
def _is_expression_node(node: ast.AstNode) -> bool:
    if isinstance(node, (ast.Clause, ast.Step)):
        return False
    if type(node).__module__ != ast.__name__:
        return False  # algebra nodes are introduced after typing
    return True
