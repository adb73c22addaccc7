"""Cost-based plan choice (P-COST): the cost model, the costing pass and
the admission estimator.

The paper's section 4.3 picks distributed access strategies with fixed
heuristics; section 9 sketches an optimizer driven by observed costs.
The costing pass runs on every compile, after SQL pushdown: for every
correlated source region (a ``PPkLetClause`` + its paired ``for``) it
costs the join repertoire — **PP-k** (ceil(N/k) disjunctive roundtrips,
matched rows shipped, a middleware hash join per tuple), **index join**
(one full scan of the inner, hash-indexed once, probed per outer tuple)
and **ship-all** (a per-tuple rescan: a ``for`` over the scan and a
``where`` on the join key) — and builds the winner.
``EngineConfig.force_strategy`` pins one instead, the ablation (``"ppk"``
is the fixed heuristics' plan).  The strategy is structure, the operator
the plan holds; no estimate stays on the plan.

:func:`estimate` is the same model, read over a compiled plan against
the statistics as they are when it is called: ``explain``, ``profile``
(before it runs) and the mid-query re-plan call it.  Inputs are the
:class:`~repro.compiler.stats.StatisticsCatalog` (cardinalities,
selectivities, source latency) and, for a plan that has run under a
recording request, its operator actuals in
:class:`~repro.runtime.observed.ObservedStatistics` (warm start).  A
costed operator's estimated rows predict what its spans count.  Costing
never peeks at bind values: a plan-cache shape hit serves the strategy
its shape was costed for, and the re-plan threshold answers a bad
estimate.

All three strategies are result-identical on these regions (an inner
equi-join whose per-key matches arrive in table order), which is also
what makes the runtime's re-plan (PP-k -> scan, index -> PP-k) safe at a
pipeline boundary.  A region the catalog cannot see is left as it is.
The pass numbers operators by ``assign_operator_ids``'s rule, so warm
starts join the stats store on the ids the executed plan carries.

:func:`admission_cost` is the same per-operator time model under cold
priors, normalized to keyed-lookup units — what the serving layer's
admission control prices a request at (``server/frontend.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..config import STRATEGIES
from ..sql.ast_nodes import TableRef
from ..xquery import ast_nodes as ast
from ..xquery.scope import use_counts
from .algebra import (
    ColumnSlot,
    GroupSlot,
    IndexJoinForClause,
    NestedSlot,
    PPkLetClause,
    PushedSQL,
    SourceCall,
)
from .explain import OPAQUE_OPERATORS, is_operator
from .stats import DEFAULT_SELECTIVITY, clamp_selectivity

#: middleware hash build/probe CPU per row
PROBE_MS = 0.001

PPK, INDEX_JOIN, SHIP_ALL = STRATEGIES

# -- cold priors for the admission estimator (no statistics available) ------

PRIOR_ROUNDTRIP_MS = 5.0
PRIOR_PER_ROW_MS = 0.05
PRIOR_TABLE_ROWS = 1000
PRIOR_FUNCTIONAL_MS = 15.0
PRIOR_PPK_ROUNDTRIPS = 2

#: one keyed lookup (a roundtrip shipping one row) is the cost unit, so
#: ``admission_cost`` of a point lookup is exactly 1.0
ADMISSION_UNIT_MS = PRIOR_ROUNDTRIP_MS + PRIOR_PER_ROW_MS


@dataclass
class CostingOptions:
    """What the cost model reads besides the plan (a forced strategy is
    ``EngineConfig.force_strategy``)."""

    #: the statistics layer (:class:`~repro.compiler.stats.StatisticsCatalog`)
    catalog: object = None
    #: the observed-statistics store, for warm-start costing (may be None)
    store: object = None
    #: middleware hash-join CPU charge per PP-k tuple
    ppk_join_ms_per_tuple: float = 0.01


class Estimate(NamedTuple):
    """What the cost model expects of one costed operator: a plain scan
    region, or a join region under the strategy the plan holds."""

    #: the rows the operator's spans will count, over all its evaluations
    rows: float
    ms: float
    via: str  # "statistics" | "observed"
    strategy: Optional[str] = None
    #: the outer tuples a join region was costed for
    outer: Optional[float] = None
    runner_up: Optional[str] = None
    runner_up_ms: Optional[float] = None

    def __str__(self) -> str:
        """What ``explain`` appends to the operator's line."""
        bits = [form.format(value) for value, form in (
            (self.strategy, "strategy={}"), (self.rows, "est_rows={:.0f}"),
            (self.ms, "est_ms={:.2f}"), (self.via, "via={}"),
            (self.runner_up, f"runner-up={{}}({self.runner_up_ms or 0.0:.2f}ms)"))
            if value is not None]
        return f" [cost: {', '.join(bits)}]"


def apply_costing(expr: ast.AstNode, plan_key: str, options) -> None:
    """Choose every join region's strategy, in place.  ``plan_key`` is what
    the runtime observes the plan under; ``options`` are the compiler's
    (``options.cost``: a :class:`CostingOptions`, or None to leave the
    plan as it is)."""
    if options.cost is not None:
        _CostingPass(options, plan_key, decide=True).run(expr)


def estimate(expr: ast.AstNode, plan_key: str, options) -> dict[int, Estimate]:
    """The cost model over a compiled plan, under the statistics as they
    are now: each costed operator's :class:`Estimate`, by ``id(node)``.
    Reads the plan and never writes it."""
    if options.cost is None:
        return {}
    return _CostingPass(options, plan_key, decide=False).run(expr)


@dataclass
class _Unit:
    """One join region, under the strategy the plan holds."""

    strategy: str
    #: the correlated region (a ship-all's: its scan, uncorrelated)
    pushed: PushedSQL
    #: PP-k's block size for the region
    k: int
    var: str  # what the join binds per matched inner item
    width: int  # the clauses it spans in its FLWOR
    m_eff: float  # rows surviving the region's own pushed predicates
    sel: float  # selectivity of one equality key on the join column
    rt: float
    pr: float
    #: template element carrying the join key, or None when the
    #: reconstruction does not surface it (then only PP-k is valid:
    #: the other strategies key on the reconstructed item)
    key_element: str | None
    #: a PP-k region's clause: an index join keeps it as its twin
    let: PPkLetClause | None = None


class _CostingPass:
    """One walk of the cost model over a plan: ``decide`` chooses (and
    builds) each PP-k region's strategy, otherwise the walk only reads
    the strategies the plan holds.  Either way ``estimates`` ends up
    holding every costed operator's :class:`Estimate`."""

    def __init__(self, options, plan_key: str, decide: bool):
        from ..observability import plan_fingerprint

        cost, self.config = options.cost, options.config
        self.catalog, self.join_ms = cost.catalog, cost.ppk_join_ms_per_tuple
        self.decide = decide
        #: observed per-operator EWMAs for this plan's fingerprint
        self.ops: dict = {}
        if cost.store is not None:
            self.ops = cost.store.operators(plan_fingerprint(plan_key))
        self.estimates: dict[int, Estimate] = {}
        #: ``assign_operator_ids``'s pre-order counter over the *output*
        #: tree: the next operator gets ``_next_id + 1``
        self._next_id = 0

    def run(self, expr: ast.AstNode) -> dict[int, Estimate]:
        self._visit(expr, 1.0)
        return self.estimates

    # -- traversal (assign_operator_ids's operator rule) --------------------

    def _visit(self, node: ast.AstNode, mult: float) -> None:
        if isinstance(node, ast.FLWOR):
            self._visit_flwor(node, mult)
            return
        if is_operator(node):
            self._next_id += 1
        if isinstance(node, OPAQUE_OPERATORS):
            return
        for child in node.children():
            self._visit(child, mult)

    def _visit_flwor(self, flwor: ast.FLWOR, mult: float) -> None:
        n = max(mult, 1.0)
        clauses = flwor.clauses
        i = 0
        while i < len(clauses):
            unit = self._unit_at(flwor, clauses, i)
            if unit is not None:
                i, n = self._join(clauses, i, unit, n)
                continue
            n = self._visit_plain_clause(clauses[i], n)
            i += 1
        self._visit(flwor.return_expr, n)

    def _visit_plain_clause(self, clause: ast.Clause, n: float) -> float:
        if type(clause) is ast.ForClause and \
                isinstance(clause.expr, PushedSQL) and \
                clause.expr.correlation is None:
            rows = self._scan_estimate(clause.expr, n)
            self._visit(clause, n)
            return n * rows if rows is not None else n
        self._visit(clause, n)
        return n

    # -- plain scan regions --------------------------------------------------

    def _scan_estimate(self, pushed: PushedSQL, n: float) -> float | None:
        """Estimated rows per evaluation of an uncorrelated pushed region,
        ``n`` of them; None when the source is unknown."""
        info = self._source_info(pushed)
        if info is None:
            return None
        stats, rt, pr = info
        rows = float(stats.rows)
        if pushed.param_exprs or pushed.select.where is not None:
            rows = max(rows * DEFAULT_SELECTIVITY, 1.0) if rows > 0 else 0.0
        via = "statistics"
        entry = self.ops.get(self._next_id + 1)
        if entry is not None and entry.observations > 0:
            rows = entry.ewma_rows / max(n, 1.0)
            via = "observed"
        self.estimates[id(pushed)] = Estimate(n * rows, n * (rt + rows * pr), via)
        return rows

    def _source_info(self, pushed: PushedSQL):
        """(table statistics, roundtrip ms, per-row ms) of a single-table
        region; None when the catalog cannot see the table or its source."""
        select = pushed.select
        if len(select.from_items) != 1 or \
                not isinstance(select.from_items[0], TableRef):
            return None
        stats = self.catalog.table_stats(pushed.database,
                                         select.from_items[0].name)
        latency = self.catalog.latency(pushed.database)
        if stats is None or latency is None:
            return None
        return (stats, *latency)

    # -- join regions --------------------------------------------------------

    def _unit_at(self, flwor, clauses, i) -> _Unit | None:
        """The join region starting at ``clauses[i]``, under the strategy
        the plan holds: a PP-k let and its paired ``for``, an index join
        the pass built (it keeps its PP-k twin), or a ship-all pair."""
        clause = clauses[i]
        nxt = clauses[i + 1] if i + 1 < len(clauses) else None
        if isinstance(clause, IndexJoinForClause) and clause.replan_ppk is not None:
            twin = clause.replan_ppk  # (the optimizer's own index joins have none)
            return self._unit(INDEX_JOIN, twin.pushed, twin.k, clause.var, 1,
                              *_correlated(twin.pushed), twin)
        if isinstance(clause, PPkLetClause) and clause.k > 1 \
                and clause.pushed.correlation is not None and not clause.pushed.regroup \
                and type(nxt) is ast.ForClause and nxt.pos_var is None \
                and isinstance(nxt.expr, ast.VarRef) and nxt.expr.name == clause.var \
                and use_counts(flwor)[clause, clause.var] == 1:
            # the group variable feeds *only* its paired for: the pair is an
            # inner equi-join and every strategy is equivalent
            return self._unit(PPK, clause.pushed, clause.k, nxt.var, 2,
                              *_correlated(clause.pushed), clause)
        key = _ship_all_key(clause, nxt)
        if key is not None:
            return self._unit(SHIP_ALL, clause.expr, self.config.ppk_block_size,
                              clause.var, 2, *key)
        return None

    def _unit(self, strategy: str, pushed: PushedSQL, k: int, var: str,
              width: int, column: str | None, element: str | None,
              twin: PPkLetClause | None = None) -> _Unit | None:
        info = self._source_info(pushed)
        if info is None or column is None:
            return None  # unknown source: leave the region as it is
        stats, rt, pr = info
        m_eff = float(stats.rows)
        if pushed.select.where is not None:
            m_eff = max(m_eff * DEFAULT_SELECTIVITY, 1.0) if m_eff > 0 else 0.0
        return _Unit(strategy, pushed, k, var, width, m_eff,
                     clamp_selectivity(stats, column), rt, pr, element, twin)

    def _join(self, clauses, i, unit: _Unit, n: float) -> tuple[int, float]:
        """Cost one join region (choosing its strategy, when deciding) and
        record the estimate of the strategy the plan then holds."""
        n_eff = max(n, 1.0)
        match = n_eff * unit.m_eff * unit.sel
        via = "statistics"
        entry = self.ops.get(self._next_id + 1)
        if entry is not None and entry.observations > 0 and entry.ewma_rows > 0:
            # warm start: the operator's observed EWMA of joined rows
            # (PP-k fetch and index-join spans carry them) replaces the
            # sketch estimate
            match = entry.ewma_rows
            via = "observed"
        # PP-k: per block, one roundtrip shipping its matches, then the
        # middleware join — which overlaps the next block's fetch when
        # pipelined, so only the longer of the two counts
        blocks = math.ceil(n_eff / unit.k)
        fetch = unit.rt + match / blocks * unit.pr
        join = n_eff / blocks * self.join_ms
        overlapped = max(fetch, join) if self.config.ppk_pipelining else fetch + join
        costs = {
            PPK: fetch + (blocks - 1) * overlapped + join,
            INDEX_JOIN: (unit.rt + unit.m_eff * unit.pr
                         + (unit.m_eff + n_eff) * PROBE_MS),
            SHIP_ALL: (n_eff * unit.rt + n_eff * unit.m_eff * unit.pr
                       + n_eff * PROBE_MS),
        }
        convertible = unit.key_element is not None
        ranked = sorted(STRATEGIES, key=costs.__getitem__) if convertible \
            else [PPK]
        force = self.config.force_strategy
        if self.decide and unit.strategy == PPK:
            winner = ranked[0] if force is None else \
                force if force == PPK or convertible else PPK
            self._build(clauses, i, unit, winner)
        strategy = unit.strategy
        costed = clauses[i] if strategy != SHIP_ALL else clauses[i].expr
        runner = next((s for s in ranked if s != strategy), None)
        self.estimates[id(costed)] = Estimate(
            n_eff * unit.m_eff if strategy == SHIP_ALL else match,
            costs[strategy], via, strategy, n_eff, runner,
            costs[runner] if runner is not None else None)
        for clause in clauses[i:i + unit.width]:
            self._visit(clause, n_eff)
        return i + unit.width, match

    def _build(self, clauses, i, unit: _Unit, strategy: str) -> None:
        """Replace a PP-k region's clauses by ``strategy``'s, over the
        region's base select as a plain full scan (the PP-k executor adds
        the correlation predicate per block, so dropping it is the whole
        scan) keyed by ``fn:data($var/KEY_ELEMENT)`` of each item."""
        unit.strategy = strategy
        if strategy == PPK:
            return
        correlation, scan = unit.pushed.correlation, unit.pushed.clone()
        scan.correlation = None
        key = ast.FunctionCall("fn:data", [ast.PathExpr(
            ast.VarRef(unit.var), [ast.Step("child", ast.NameTest(unit.key_element))])])
        if strategy == INDEX_JOIN:
            join = IndexJoinForClause(unit.var, scan, key, correlation.outer_key.clone(),
                                      correlation.general)
            # the runner-up twin for the runtime's index -> PP-k re-plan keeps
            # the clause's operator id, so a re-plan's spans attribute to it
            join.replan_ppk, unit.let.op_id = unit.let, self._next_id + 1
            clauses[i:i + 2], unit.width = [join], 1
        else:
            clauses[i:i + 2] = [ast.ForClause(unit.var, scan), ast.WhereClause(ast.Comparison(
                "eq", correlation.outer_key.clone(), key, general=correlation.general))]


def _correlated(pushed: PushedSQL) -> tuple[str | None, str | None]:
    """(join column, key element) of a correlated region."""
    correlation = pushed.correlation
    return (getattr(correlation.column_expr, "column", None),
            key_element(pushed.template, correlation.column_alias))


def _ship_all_key(clause: ast.Clause, where) -> tuple[str, str] | None:
    """(join column, key element) of ``for $v in <scan> where <outer key>
    eq fn:data($v/KEY)`` — a ship-all as the pass builds it — or None."""
    test = where.condition if isinstance(where, ast.WhereClause) else None
    if type(clause) is not ast.ForClause or clause.pos_var is not None \
            or not isinstance(clause.expr, PushedSQL) or clause.expr.correlation \
            or not isinstance(test, ast.Comparison) or test.op != "eq" \
            or not isinstance(test.right, ast.FunctionCall) or test.right.name != "fn:data":
        return None
    path, scan = test.right.args[0], clause.expr
    if not isinstance(path, ast.PathExpr) or not isinstance(path.base, ast.VarRef) \
            or path.base.name != clause.var or len(path.steps) != 1 \
            or not isinstance(path.steps[0].test, ast.NameTest):
        return None
    element = path.steps[0].test.name
    for item in scan.select.items:
        if item.alias is not None and key_element(scan.template, item.alias) == element:
            return getattr(item.expr, "column", None), element
    return None


def key_element(template: ast.AstNode, alias: str) -> str | None:
    """The element name the reconstruction template gives the correlation
    column, when the template surfaces it directly (not inside a nested or
    grouped slot) — the handle the index-join/ship-all strategies key on."""
    if isinstance(template, (NestedSlot, GroupSlot)):
        return None
    if isinstance(template, ColumnSlot):
        if template.alias == alias and template.element_name:
            return template.element_name
        return None
    for child in template.children():
        found = key_element(child, alias)
        if found:
            return found
    return None


# ---------------------------------------------------------------------------
# Admission-control pricing (the same time model under cold priors)
# ---------------------------------------------------------------------------


def admission_cost(plan_expr: ast.AstNode, catalog=None) -> float:
    """Estimated relative cost of a compiled plan, in keyed-lookup units
    (>= 1.0): the per-operator time model of the costing pass evaluated
    under cold priors (or real statistics when ``catalog`` is given),
    normalized so one keyed roundtrip is 1.0.  Admission control only
    needs the ordering (lookup < join < scan); the estimator provides it
    from the same formulas the optimizer costs plans with.

    With no ``catalog`` the price depends on the plan alone, so it is
    worked out once per plan and memoized on its root (a memo like
    ``_batch_stages``: a plan is never rewritten once it runs)."""
    if catalog is None and plan_expr._admission_cost is not None:
        return plan_expr._admission_cost
    total_ms = 0.0
    inside: set[int] = set()
    for node in plan_expr.walk():
        if id(node) in inside:
            continue
        if isinstance(node, PPkLetClause):
            inside.add(id(node.pushed))
            rt, pr = _source_latency(node.pushed.database, catalog)
            total_ms += PRIOR_PPK_ROUNDTRIPS * rt + node.k * pr
        elif isinstance(node, PushedSQL):
            total_ms += _pushed_time_ms(node, catalog)
        elif isinstance(node, IndexJoinForClause):
            # build + probe CPU; the inner region prices separately
            total_ms += PROBE_MS * PRIOR_TABLE_ROWS
        elif isinstance(node, SourceCall):
            if node.kind == "table" and node.table_meta is not None:
                rt, pr = _source_latency(node.table_meta.database, catalog)
                total_ms += rt + _table_rows(node.table_meta, catalog) * pr
            else:
                total_ms += PRIOR_FUNCTIONAL_MS
    cost = max(total_ms / ADMISSION_UNIT_MS, 1.0)
    if catalog is None:
        plan_expr._admission_cost = cost
    return cost


def _source_latency(source: str | None, catalog) -> tuple[float, float]:
    if catalog is not None and source is not None:
        latency = catalog.latency(source)
        if latency is not None:
            return latency
    return PRIOR_ROUNDTRIP_MS, PRIOR_PER_ROW_MS


def _table_rows(table_meta, catalog) -> float:
    if catalog is not None:
        stats = catalog.table_stats(table_meta.database, table_meta.table)
        if stats is not None:
            return float(stats.rows)
    return float(PRIOR_TABLE_ROWS)


def _pushed_time_ms(node: PushedSQL, catalog) -> float:
    rt, pr = _source_latency(node.database, catalog)
    select = node.select
    keyed = (node.correlation is not None or bool(node.param_exprs)
             or select.where is not None or bool(select.group_by)
             or select.fetch is not None)
    if keyed:
        return rt + pr
    rows = float(PRIOR_TABLE_ROWS)
    if catalog is not None and len(select.from_items) == 1 and \
            isinstance(select.from_items[0], TableRef):
        stats = catalog.table_stats(node.database, select.from_items[0].name)
        if stats is not None:
            rows = float(stats.rows)
    return rt + rows * pr
