"""The pushdown rewriter: carve maximal SQL regions out of an optimized
query tree (sections 4.2–4.4).

Strategy per FLWOR:

1. Try to compile the *whole* FLWOR as one single-database region
   (:class:`~repro.sql.generate.RegionCompiler`).  This covers all of
   Tables 1 and 2.
2. Otherwise fall back clause by clause:

   * runs of consecutive same-database table ``for`` clauses (with the
     where conjuncts that apply to them) push as one SQL join —
     :class:`~repro.compiler.algebra.PushedTupleForClause`;
   * a lone table ``for`` clause with an equality correlation to earlier
     middleware variables becomes a PP-k join —
     :class:`~repro.compiler.algebra.PPkLetClause` feeding a plain ``for``;
   * correlated sub-FLWORs in ``let`` clauses and in the return expression
     (nested content, aggregates over correlated scans, quantified
     predicates) are hoisted into PP-k lets — the paper's "joins that occur
     inside lets are rewritten as left outer joins and brought out into the
     outer FLWR" (section 4.3), executed with parameter passing;
   * everything else stays in the middleware and is rewritten recursively.
"""

from __future__ import annotations

from ..compiler.algebra import PPkLetClause, PushedSQL, PushedTupleForClause, SourceCall
from ..xml.items import AtomicValue
from ..xquery import ast_nodes as ast
from ..xquery.parser import fresh_var
from ..config import EngineConfig
from .generate import RegionCompiler, _NotPushable
from .pushdown import free_vars, is_table_call, join_conjuncts, split_conjuncts


def push_sql(expr: ast.AstNode, config: EngineConfig | None = None,
             bound: frozenset[str] = frozenset()) -> ast.AstNode:
    """Entry point: rewrite pushable regions of ``expr`` into SQL.

    ``bound`` names variables bound outside the expression (external query
    variables, module variables): they can be evaluated mid-tier and shipped
    as SQL parameters (section 4.4).
    """
    config = config or EngineConfig()
    if not config.pushdown:
        return expr
    return PushdownRewriter(config).rewrite(expr, bound)


class PushdownRewriter:
    def __init__(self, config: EngineConfig):
        self.config = config

    # -- generic traversal ---------------------------------------------------

    def rewrite(self, node: ast.AstNode, bound: frozenset[str]) -> ast.AstNode:
        # subsequence(<flwor>, s, l) directly over a pushable region:
        # pagination pushdown (Table 2(i), post let-inlining form).
        if (
            isinstance(node, ast.FunctionCall)
            and node.name == "fn:subsequence"
            and isinstance(node.args[0], ast.FLWOR)
            and _mentions_table(node.args[0])
        ):
            from .generate import subsequence_bounds

            bounds = subsequence_bounds(node)
            if bounds is not None:
                pushed = self._try_region_with_fetch(node.args[0], bound, bounds)
                if pushed is not None:
                    return _apply_residual_fetch(pushed)
        if isinstance(node, ast.FLWOR):
            return self._rewrite_flwor(node, bound)
        if is_table_call(node):
            pushed = self._try_scan(node, [], bound)
            return pushed if pushed is not None else node
        if isinstance(node, ast.Quantified):
            inner = set(bound)
            new_bindings = []
            for var, expr in node.bindings:
                new_bindings.append((var, self.rewrite(expr, frozenset(inner))))
                inner.add(var)
            node.bindings = new_bindings
            node.satisfies = self.rewrite(node.satisfies, frozenset(inner))
            return node
        return node.transform_children(lambda child: self.rewrite(child, bound))

    # -- FLWOR handling ----------------------------------------------------------

    def _rewrite_flwor(self, flwor: ast.FLWOR, bound: frozenset[str]) -> ast.AstNode:
        # Step 1: whole-region pushdown.
        if _mentions_table(flwor):
            pushed = self._try_region(flwor, bound, allow_correlation=False)
            if pushed is not None:
                return _apply_residual_fetch(pushed)

        # Step 2: per-clause fallback.
        conjuncts = []
        clauses: list[ast.Clause] = []
        for clause in flwor.clauses:
            if isinstance(clause, ast.WhereClause):
                conjuncts.extend(split_conjuncts(clause.condition))
            else:
                clauses.append(clause)

        new_clauses: list[ast.Clause] = []
        bound_now: set[str] = set(bound)
        index = 0
        while index < len(clauses):
            clause = clauses[index]
            if isinstance(clause, ast.ForClause) and is_table_call(clause.expr):
                index = self._handle_table_run(
                    clauses, index, conjuncts, new_clauses, bound, bound_now
                )
            elif isinstance(clause, ast.ForClause):
                loop_invariant = free_vars(clause.expr) <= bound
                clause.expr = self._hoist(clause.expr, bound, bound_now, new_clauses)
                converted = None
                if loop_invariant and clause.pos_var is None and bound_now - bound:
                    converted = self._try_index_join(clause, conjuncts, bound_now)
                if converted is not None:
                    new_clauses.append(converted)
                else:
                    new_clauses.append(clause)
                bound_now.add(clause.var)
                if clause.pos_var:
                    bound_now.add(clause.pos_var)
                index += 1
            elif isinstance(clause, ast.LetClause):
                clause.expr = self._hoist(clause.expr, bound, bound_now, new_clauses)
                new_clauses.append(clause)
                bound_now.add(clause.var)
                index += 1
            elif isinstance(clause, ast.GroupByClause):
                self._flush_conjuncts(conjuncts, new_clauses, bound_now)
                clause.keys = [
                    (self._hoist(expr, bound, bound_now, new_clauses), var)
                    for expr, var in clause.keys
                ]
                new_clauses.append(clause)
                bound_now = set(bound)
                bound_now.update(var for _e, var in clause.keys)
                bound_now.update(target for _s, target in clause.grouped)
                index += 1
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    spec.key = self._hoist(spec.key, bound, bound_now, new_clauses)
                new_clauses.append(clause)
                index += 1
            else:
                new_clauses.append(clause)
                index += 1
            self._flush_conjuncts(conjuncts, new_clauses, bound_now)

        # Any leftover conjuncts apply at the end (their variables may come
        # entirely from enclosing scopes).
        if conjuncts:
            rewritten = [self._hoist(c, bound, bound_now, new_clauses) for c in conjuncts]
            condition = join_conjuncts(rewritten)
            assert condition is not None
            new_clauses.append(ast.WhereClause(condition))

        flwor.return_expr = self._hoist(flwor.return_expr, bound, bound_now, new_clauses)
        flwor.clauses = new_clauses
        self._push_order_to_scan(flwor)
        if self.config.request_clustering:
            self._request_clustering(flwor)
        return flwor

    def _push_order_to_scan(self, flwor: ast.FLWOR) -> None:
        """Delegate a mid-tier sort to the source ("ordering clauses are
        optimized based on pre-sorted prefixes", section 4.3): when every
        order key is a column of a pushed scan and no clause in between
        multiplies or reorders the tuple stream, the ORDER BY ships with
        the scan and the middleware sort disappears."""
        from .ast_nodes import OrderItem

        scan_for: ast.ForClause | None = None
        scan_pushed: PushedSQL | None = None
        for position, clause in enumerate(flwor.clauses):
            if isinstance(clause, ast.ForClause) and isinstance(clause.expr, PushedSQL):
                pushed = clause.expr
                if pushed.regroup is None and not pushed.select.order_by \
                        and pushed.select.fetch is None and not pushed.select.group_by:
                    scan_for, scan_pushed = clause, pushed
                else:
                    scan_for = None
                continue
            if isinstance(clause, (ast.ForClause, PPkLetClause, PushedTupleForClause,
                                   ast.GroupByClause)):
                scan_for = None  # stream multiplied or rebound: order matters
                continue
            if isinstance(clause, ast.OrderByClause):
                if scan_for is None or scan_pushed is None:
                    return
                items = []
                for spec in clause.specs:
                    if spec.empty_greatest:
                        return  # SQL NULL ordering = empty least only
                    column = _scan_column_of(spec.key, scan_for.var, scan_pushed)
                    if column is None:
                        return
                    items.append(OrderItem(_select_expr_for_alias(scan_pushed, column),
                                           spec.descending))
                scan_pushed.select.order_by.extend(items)
                flwor.clauses = flwor.clauses[:position] + flwor.clauses[position + 1:]
                return

    def _request_clustering(self, flwor: ast.FLWOR) -> None:
        """Choose a constant-memory group-by where possible (section 4.2):
        when a middleware FLWGOR groups on columns of a pushed scan, ask
        the source to ORDER BY those columns and mark the clause
        pre-clustered — the streaming operator then needs no sort.

        Intervening for/let/where clauses preserve the clustering of the
        scan (the tuple stream stays contiguous in the scan's order); an
        intervening order-by destroys it.
        """
        from ..compiler.algebra import ColumnSlot
        from .ast_nodes import OrderItem

        scan_for: ast.ForClause | None = None
        scan_pushed: PushedSQL | None = None
        for clause in flwor.clauses:
            if isinstance(clause, ast.OrderByClause):
                scan_for = None  # explicit ordering destroys clustering
            elif isinstance(clause, ast.ForClause) and isinstance(clause.expr, PushedSQL):
                pushed = clause.expr
                if pushed.regroup is None and not pushed.select.order_by \
                        and pushed.select.fetch is None and not pushed.select.group_by:
                    scan_for, scan_pushed = clause, pushed
            elif isinstance(clause, ast.GroupByClause):
                if scan_for is None or scan_pushed is None:
                    return
                columns = []
                for key_expr, _var in clause.keys:
                    column = _scan_column_of(key_expr, scan_for.var, scan_pushed)
                    if column is None:
                        return
                    columns.append(column)
                for alias in columns:
                    expr = _select_expr_for_alias(scan_pushed, alias)
                    scan_pushed.select.order_by.append(OrderItem(expr))
                clause.pre_clustered = True
                return


    def _flush_conjuncts(self, conjuncts: list[ast.AstNode],
                         new_clauses: list[ast.Clause], bound_now: set[str]) -> None:
        ready = [c for c in conjuncts if free_vars(c) <= bound_now]
        if not ready:
            return
        for conjunct in ready:
            conjuncts.remove(conjunct)
        hoisted = [self._hoist(c, frozenset(), bound_now, new_clauses) for c in ready]
        condition = join_conjuncts(hoisted)
        assert condition is not None
        new_clauses.append(ast.WhereClause(condition))

    # -- table-for handling ----------------------------------------------------------

    def _handle_table_run(
        self,
        clauses: list[ast.Clause],
        index: int,
        conjuncts: list[ast.AstNode],
        new_clauses: list[ast.Clause],
        bound: frozenset[str],
        bound_now: set[str],
    ) -> int:
        """Handle one or more consecutive table for-clauses starting at
        ``index``; returns the next clause index."""
        first = clauses[index]
        assert isinstance(first, ast.ForClause) and isinstance(first.expr, SourceCall)
        database = first.expr.table_meta.database  # type: ignore[union-attr]

        run: list[ast.ForClause] = [first]
        if self.config.clause_join_pushdown:
            probe = index + 1
            while probe < len(clauses):
                candidate = clauses[probe]
                if (
                    isinstance(candidate, ast.ForClause)
                    and is_table_call(candidate.expr)
                    and candidate.expr.table_meta.database == database  # type: ignore[union-attr]
                ):
                    run.append(candidate)
                    probe += 1
                else:
                    break

        run_vars = {clause.var for clause in run}
        applicable = [
            c for c in conjuncts
            if free_vars(c) <= (run_vars | bound_now) and free_vars(c) & run_vars
        ]
        if not self.config.hoist_correlated:
            applicable = [
                c for c in applicable if free_vars(c) <= (run_vars | bound)
            ]

        if len(run) > 1:
            for attempt in (list(applicable), None):
                if attempt is None:
                    # shed the conjuncts that do not push individually
                    attempt = [
                        c for c in applicable
                        if self._try_tuple_run(run, [c], frozenset(bound_now)) is not None
                    ]
                pushed_run = self._try_tuple_run(run, attempt, frozenset(bound_now))
                if pushed_run is not None:
                    for conjunct in attempt:
                        conjuncts.remove(conjunct)
                    new_clauses.append(pushed_run)
                    bound_now.update(run_vars)
                    return index + len(run)
            run = [first]
            run_vars = {first.var}
            applicable = [
                c for c in conjuncts
                if free_vars(c) <= (run_vars | bound_now) and free_vars(c) & run_vars
            ]

        # Single table for-clause: correlated -> PP-k; otherwise scan.
        # Non-pushable conjuncts must not block the pushable ones ("clauses
        # are locally reordered based on their acceptability for pushdown",
        # section 4.3): greedily shrink the predicate set until the region
        # compiles, leaving rejected conjuncts in the middleware pool.
        def individually_pushable(conjunct):
            return self._try_region(
                ast.FLWOR([ast.ForClause(first.var, first.expr),
                           ast.WhereClause(conjunct)], ast.VarRef(first.var)),
                frozenset(bound_now),
                allow_correlation=not (free_vars(conjunct) <= (run_vars | bound)),
            ) is not None

        local_only = [c for c in applicable if free_vars(c) <= (run_vars | bound)]
        attempts = [list(applicable)]
        if local_only != applicable:
            attempts.append(list(local_only))  # drop correlations
        attempts.append(None)  # filter individually (computed lazily)
        attempts.append([])  # bare scan
        for attempt in attempts:
            if attempt is None:
                attempt = [c for c in applicable if individually_pushable(c)]
            where_clauses = (
                [ast.WhereClause(join_conjuncts(list(attempt)))] if attempt else []
            )
            region = ast.FLWOR(
                [ast.ForClause(first.var, first.expr)] + where_clauses,
                ast.VarRef(first.var),
            )
            correlated = any(not (free_vars(c) <= (run_vars | bound)) for c in attempt)
            pushed = self._try_region(region, frozenset(bound_now),
                                      allow_correlation=correlated)
            if pushed is None:
                continue
            for conjunct in attempt:
                conjuncts.remove(conjunct)
            if pushed.correlation is not None:
                group_var = fresh_var("ppk")
                new_clauses.append(
                    PPkLetClause(group_var, pushed, self._choose_k(pushed, bound))
                )
                new_clauses.append(ast.ForClause(first.var, ast.VarRef(group_var)))
            else:
                new_clauses.append(ast.ForClause(first.var, pushed))
            bound_now.add(first.var)
            return index + 1

        # Not pushable even as a bare scan (e.g. unregistered vendor
        # feature): keep the raw scan; the runtime adaptor can still
        # full-scan the table.
        new_clauses.append(first)
        bound_now.add(first.var)
        return index + 1

    def _try_tuple_run(
        self,
        run: list[ast.ForClause],
        conjuncts: list[ast.AstNode],
        outer: frozenset[str],
    ) -> PushedTupleForClause | None:
        """Compile a multi-table same-database run into one pushed join that
        binds all the run's variables per row."""
        compiler = RegionCompiler(outer, allow_correlation=False, config=self.config)
        try:
            for clause in run:
                compiler._compile_for(clause)
            if conjuncts:
                compiler._compile_where(ast.WhereClause(join_conjuncts(list(conjuncts))))
            var_templates = [
                (clause.var, compiler._row_template(clause.var)) for clause in run
            ]
            pushed = compiler._finalize(ast.EmptySequence())
        except _NotPushable:
            return None
        return PushedTupleForClause(var_templates, pushed)

    def _try_index_join(self, clause: ast.ForClause, conjuncts: list[ast.AstNode],
                        bound_now: set[str]) -> "IndexJoinForClause | None":
        """Convert a middleware equi-join into an index nested-loop join
        (section 5.2's repertoire): hash the loop-invariant inner sequence
        once, probe per outer tuple."""
        from ..compiler.algebra import IndexJoinForClause

        var = clause.var
        for conjunct in conjuncts:
            if not isinstance(conjunct, ast.Comparison) or conjunct.op != "eq":
                continue
            for inner_side, outer_side in ((conjunct.left, conjunct.right),
                                           (conjunct.right, conjunct.left)):
                inner_free = free_vars(inner_side)
                outer_free = free_vars(outer_side)
                if inner_free == {var} and outer_free and outer_free <= bound_now:
                    conjuncts.remove(conjunct)
                    return IndexJoinForClause(var, clause.expr, inner_side, outer_side,
                                              conjunct.general)
        return None

    def _try_scan(self, call: ast.AstNode, conjuncts: list[ast.AstNode],
                  bound: frozenset[str]) -> PushedSQL | None:
        var = fresh_var("row")
        clauses: list[ast.Clause] = [ast.ForClause(var, call)]
        if conjuncts:
            clauses.append(ast.WhereClause(join_conjuncts(list(conjuncts))))
        region = ast.FLWOR(clauses, ast.VarRef(var))
        return self._try_region(region, bound, allow_correlation=False)

    def _try_region(self, flwor: ast.FLWOR, outer: frozenset[str],
                    allow_correlation: bool) -> PushedSQL | None:
        compiler = RegionCompiler(outer, allow_correlation, self.config)
        try:
            return compiler.compile(flwor)
        except _NotPushable:
            return None

    def _try_region_with_fetch(self, flwor: ast.FLWOR, outer: frozenset[str],
                               bounds: tuple[int, int | None]) -> PushedSQL | None:
        compiler = RegionCompiler(outer, allow_correlation=False, config=self.config)
        compiler.set_fetch(*bounds)
        try:
            return compiler.compile(flwor)
        except _NotPushable:
            return None

    # -- hoisting correlated sub-regions -----------------------------------------------

    def _hoist(self, expr: ast.AstNode, bound: frozenset[str], bound_now: set[str],
               sink: list[ast.Clause]) -> ast.AstNode:
        """Rewrite an expression evaluated per middleware tuple: correlated
        pushable sub-FLWORs become PP-k lets appended to ``sink``."""
        # The service-quality control functions evaluate their arguments
        # lazily (fail-over catches source errors, timeout bounds latency,
        # async forks a thread): hoisting a source access out of them would
        # evaluate it eagerly outside their protection.  Arguments are
        # rewritten in place instead.
        if isinstance(expr, ast.FunctionCall) and expr.name in (
            "fn-bea:async", "fn-bea:fail-over", "fn-bea:timeout"
        ):
            expr.args = [self.rewrite(arg, frozenset(bound_now)) for arg in expr.args]
            return expr
        if isinstance(expr, ast.FLWOR):
            if _mentions_table(expr) and free_vars(expr) <= bound_now \
                    and self.config.hoist_correlated:
                pushed = self._try_region(expr, frozenset(bound_now), allow_correlation=True)
                if pushed is not None and pushed.regroup is None:
                    if pushed.correlation is not None:
                        group_var = fresh_var("ppk")
                        sink.append(PPkLetClause(group_var, pushed, self._choose_k(pushed, bound)))
                        return ast.VarRef(group_var)
                    return _apply_residual_fetch(pushed)
            return self._rewrite_flwor(expr, frozenset(bound_now))
        if is_table_call(expr):
            pushed = self._try_scan(expr, [], frozenset(bound_now))
            return pushed if pushed is not None else expr
        if isinstance(expr, ast.Quantified):
            rewritten = self._hoist_quantified(expr, bound, bound_now, sink)
            if rewritten is not None:
                return rewritten
            return self.rewrite(expr, frozenset(bound_now))
        return expr.transform_children(
            lambda child: self._hoist(child, bound, bound_now, sink)
        )

    def _hoist_quantified(self, expr: ast.Quantified, bound: frozenset[str],
                          bound_now: set[str], sink: list[ast.Clause]) -> ast.AstNode | None:
        """``some $v in T() satisfies p`` against a correlated table becomes
        ``fn:exists($g)`` over a PP-k let (``every`` -> ``fn:empty`` of the
        negation)."""
        if len(expr.bindings) != 1:
            return None
        var, source = expr.bindings[0]
        if not is_table_call(source):
            return None
        satisfies = expr.satisfies
        if expr.kind == "every":
            satisfies = ast.FunctionCall("fn:not", [satisfies])
        probe = ast.FLWOR(
            [ast.ForClause(var, source), ast.WhereClause(satisfies.clone())],
            ast.Literal(AtomicValue(1, "xs:integer")),
        )
        if free_vars(probe) - bound_now:
            return None
        pushed = self._try_region(probe, frozenset(bound_now), allow_correlation=True)
        if pushed is None or pushed.regroup is not None:
            return None
        wrapper = "fn:exists" if expr.kind == "some" else "fn:empty"
        if pushed.correlation is not None:
            group_var = fresh_var("ppk")
            sink.append(PPkLetClause(group_var, pushed, self._choose_k(pushed, bound)))
            return ast.FunctionCall(wrapper, [ast.VarRef(group_var)])
        return ast.FunctionCall(wrapper, [pushed])

    def _choose_k(self, pushed: PushedSQL, outer_fixed: frozenset[str]) -> int:
        """PP-k block size: the default k, unless a non-correlation parameter
        varies per tuple (then only k=1 — an index nested-loop join — is
        correct)."""
        for param in pushed.param_exprs:
            if free_vars(param) - outer_fixed:
                return 1
        return self.config.ppk_block_size


def _mentions_table(expr: ast.AstNode) -> bool:
    return any(is_table_call(sub) for sub in expr.walk())


def _apply_residual_fetch(pushed: PushedSQL) -> ast.AstNode:
    """When the dialect could not push pagination, apply subsequence()
    mid-tier over the pushed (ordered) result."""
    residual = pushed.residual_fetch
    if residual is None:
        return pushed
    start, count = residual
    args: list[ast.AstNode] = [pushed, ast.Literal(AtomicValue(start, "xs:integer"))]
    if count is not None:
        args.append(ast.Literal(AtomicValue(count, "xs:integer")))
    return ast.FunctionCall("fn:subsequence", args)


def _scan_column_of(key_expr: ast.AstNode, scan_var: str, pushed: PushedSQL):
    """The select alias of the scanned column this group key reads, if the
    key is exactly ``data($scanvar/COL)``."""
    from ..compiler.algebra import ColumnSlot
    from .pushdown import column_access

    access = column_access(key_expr, {scan_var: None})
    if access is None or access[0] != scan_var:
        return None
    column = access[1]
    template = pushed.template
    if not isinstance(template, ast.ElementCtor):
        return None
    for part in template.content:
        if isinstance(part, ColumnSlot) and part.element_name == column:
            return part.alias
    return None


def _select_expr_for_alias(pushed: PushedSQL, alias: str):
    for item in pushed.select.items:
        if item.alias == alias:
            return item.expr
    raise AssertionError(f"alias {alias} not in pushed select")
