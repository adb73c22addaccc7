"""Cost-based plan choice (P-COST): costing pass + admission estimator.

The paper's section 4.3 picks distributed access strategies with fixed
heuristics and section 9 sketches the intended replacement — an optimizer
driven by observed costs.  This pass implements it: after SQL pushdown it
walks the physical plan, and for every correlated source region (a
``PPkLetClause`` + its paired ``for``) it costs the three members of the
join repertoire —

* **PP-k** — ceil(N/k) disjunctive roundtrips, matched rows shipped,
  a middleware hash join per tuple;
* **index join** — one full scan of the inner table, hash-indexed once,
  probed per outer tuple;
* **ship-all** — the naive per-tuple rescan (one roundtrip per outer
  tuple), always dominated but available for forcing/ablation —

and stamps the winner into the plan, transforming the region when a
non-PP-k strategy wins.  Inputs come from the
:class:`~repro.compiler.stats.StatisticsCatalog` (cardinalities,
selectivities, and source latency — observed where the runtime's fit
identified it, declared where it did not) and — for recurring plan
fingerprints — from the operator actuals of
:class:`~repro.runtime.observed.ObservedStatistics` (warm-start costing:
the second compilation of a repeated query estimates from *observed*
rows).  Runs of adjacent independent single-match units
are additionally reordered greedily by the classic predicate-ordering
rank (cheapest-and-most-selective first).

All three strategies are result-identical on these regions: the pair is
an inner equi-join whose per-key matches arrive in table order under
every strategy, which is also what makes the runtime's mid-query re-plan
(PP-k -> scan, index -> PP-k; see ``runtime/operators/ppk.py`` and
``runtime/evaluate.py``) safe at a pipeline boundary.

A region is skipped entirely — no stamp, no transform, byte-identical
plan — when the catalog cannot see its source (unknown database/table),
so cold-start behaviour off the demo federation is exactly the heuristic
plan.  The pass mirrors ``assign_operator_ids``'s pre-order numbering
over the transformed tree, so warm-start lookups join the stats store on
the ids the executed plan actually carried.

:func:`admission_cost` is the same per-operator time model under cold
priors, normalized to keyed-lookup units — what the serving layer's
admission control prices a request at (``server/frontend.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import STRATEGIES
from ..sql.ast_nodes import TableRef
from ..xquery import ast_nodes as ast
from .algebra import (
    ColumnSlot,
    GroupSlot,
    IndexJoinForClause,
    NestedSlot,
    PPkLetClause,
    PushedSQL,
    PushedTupleForClause,
    SourceCall,
)
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
    """What the costing pass reads besides the plan (whether it runs, and
    any forced strategy, are ``EngineConfig.cost_based`` and
    ``force_strategy``)."""

    #: the statistics layer (:class:`~repro.compiler.stats.StatisticsCatalog`)
    catalog: object = None
    #: the observed-statistics store, for warm-start costing (may be None)
    store: object = None
    #: middleware hash-join CPU charge per PP-k tuple
    ppk_join_ms_per_tuple: float = 0.01


def apply_costing(expr: ast.AstNode, plan_key: str, options: CostingOptions,
                  force: str | None = None) -> ast.AstNode:
    """Run the costing pass over a pushed plan (in place) and return it.
    ``plan_key`` is what the runtime will observe the plan under;
    ``force`` pins every convertible region to one strategy."""
    if options.catalog is None:
        return expr
    from ..observability import plan_fingerprint

    _CostingPass(options, plan_fingerprint(plan_key), force).run(expr)
    return expr


@dataclass
class _Unit:
    """One candidate region: a ``PPkLetClause`` + its paired ``for``."""

    let: PPkLetClause
    for_clause: ast.ForClause
    rows: float  # inner table cardinality
    m_eff: float  # rows surviving the region's own pushed predicates
    sel: float  # selectivity of one equality key on the join column
    rt: float
    pr: float
    key_column: str
    #: template element carrying the join key, or None when the
    #: reconstruction does not surface it (then only PP-k is valid:
    #: the other strategies key on the reconstructed item)
    key_element: str | None
    #: the join column is the inner table's single-column primary key
    #: (at most one match per outer tuple — safe to reorder)
    single_match: bool = False
    pushed: PushedSQL = field(init=False)

    def __post_init__(self):
        self.pushed = self.let.pushed


class _CostingPass:
    def __init__(self, options: CostingOptions, fingerprint: str,
                 force: str | None):
        from ..xquery.functions import all_builtins

        self.catalog = options.catalog
        self.force = force
        self.join_ms = options.ppk_join_ms_per_tuple
        self._builtins = all_builtins()
        #: observed per-operator EWMAs for this plan's fingerprint
        self.ops: dict = {}
        if options.store is not None:
            self.ops = options.store.operators(fingerprint)
        #: mirror of ``assign_operator_ids``'s pre-order counter over the
        #: *output* tree: the next countable node gets ``_next_id + 1``
        self._next_id = 0

    def run(self, expr: ast.AstNode) -> None:
        self._visit(expr, 1.0)

    # -- traversal (mirrors assign_operator_ids exactly) --------------------

    def _countable(self, node: ast.AstNode) -> bool:
        return isinstance(node, (PushedSQL, PPkLetClause, PushedTupleForClause,
                                 IndexJoinForClause, ast.GroupByClause,
                                 ast.OrderByClause)) or \
            (isinstance(node, ast.FunctionCall) and
             (isinstance(node, SourceCall) or node.name not in self._builtins))

    def _visit(self, node: ast.AstNode, mult: float) -> None:
        if isinstance(node, ast.FLWOR):
            self._visit_flwor(node, mult)
            return
        if self._countable(node):
            self._next_id += 1
        if isinstance(node, (PPkLetClause, PushedTupleForClause)):
            return
        for child in node.children():
            self._visit(child, mult)

    def _visit_flwor(self, flwor: ast.FLWOR, mult: float) -> None:
        n = max(mult, 1.0)
        clauses = flwor.clauses
        i = 0
        while i < len(clauses):
            units = self._candidate_run(flwor, clauses, i)
            if units:
                i, n = self._decide_run(clauses, i, units, n)
                continue
            n = self._visit_plain_clause(clauses[i], n)
            i += 1
        self._visit(flwor.return_expr, n)

    def _visit_plain_clause(self, clause: ast.Clause, n: float) -> float:
        if isinstance(clause, ast.ForClause) and \
                isinstance(clause.expr, PushedSQL) and \
                clause.expr.correlation is None:
            rows = self._scan_estimate(clause.expr, n)
            self._visit(clause, n)
            return n * rows if rows is not None else n
        self._visit(clause, n)
        return n

    # -- plain scan regions --------------------------------------------------

    def _scan_estimate(self, pushed: PushedSQL, n: float) -> float | None:
        """Estimated rows per evaluation of an uncorrelated pushed region;
        stamps ``est_*`` on the node.  None when the source is unknown."""
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
        pushed.est_rows = rows
        pushed.est_ms = rt + rows * pr
        pushed.est_via = via
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

    # -- candidate regions ---------------------------------------------------

    def _candidate_run(self, flwor, clauses, i) -> list[_Unit]:
        units: list[_Unit] = []
        j = i
        while True:
            unit = self._candidate_unit(flwor, clauses, j)
            if unit is None:
                break
            units.append(unit)
            j += 2
        return units

    def _candidate_unit(self, flwor, clauses, j) -> _Unit | None:
        if j + 1 >= len(clauses):
            return None
        clause = clauses[j]
        if not isinstance(clause, PPkLetClause) or clause.k <= 1:
            return None
        pushed = clause.pushed
        if pushed.correlation is None or pushed.regroup:
            return None
        nxt = clauses[j + 1]
        if not (isinstance(nxt, ast.ForClause) and nxt.pos_var is None
                and isinstance(nxt.expr, ast.VarRef)
                and nxt.expr.name == clause.var):
            return None
        # the group variable must feed *only* its paired for — then the
        # pair is an inner equi-join and every strategy is equivalent
        if _var_uses(flwor, clause.var) != 1:
            return None
        info = self._source_info(pushed)
        if info is None:
            return None  # unknown source: keep the heuristic plan untouched
        stats, rt, pr = info
        column = getattr(pushed.correlation.column_expr, "column", None)
        if column is None:
            return None
        rows = float(stats.rows)
        m_eff = rows
        if pushed.select.where is not None:
            m_eff = max(rows * DEFAULT_SELECTIVITY, 1.0) if rows > 0 else 0.0
        return _Unit(
            let=clause, for_clause=nxt, rows=rows, m_eff=m_eff,
            sel=clamp_selectivity(stats, column), rt=rt, pr=pr,
            key_column=column,
            key_element=_key_element(pushed.template,
                                     pushed.correlation.column_alias),
            single_match=stats.unique_columns == (column,),
        )

    # -- decision ------------------------------------------------------------

    def _decide_run(self, clauses, i, units, n) -> tuple[int, float]:
        if len(units) > 1:
            units = self._reorder(units, n)
            pairs: list[ast.Clause] = []
            for unit in units:
                pairs.extend((unit.let, unit.for_clause))
            clauses[i:i + len(pairs)] = pairs
        pos = i
        for unit in units:
            inserted, n = self._decide_unit(clauses, pos, unit, n)
            pos += inserted
        return pos, n

    def _reorder(self, units: list[_Unit], n: float) -> list[_Unit]:
        """Greedy cost-ordered join ordering over a run of adjacent units.

        Only provably order-safe runs are permuted: every unit joins on
        its inner table's single-column primary key (at most one match —
        the unit is a pure filter+annotate, so filters commute and outer
        order is preserved) and no unit's pushed region references a
        variable bound by another unit in the run."""
        from ..sql.pushdown import free_vars

        bound: set[str] = set()
        for unit in units:
            bound.add(unit.let.var)
            bound.add(unit.for_clause.var)
        for unit in units:
            if not unit.single_match:
                return units
            if free_vars(unit.pushed) & bound:
                return units
        order = sorted(range(len(units)),
                       key=lambda idx: self._rank(units[idx]))
        return [units[idx] for idx in order]

    def _rank(self, unit: _Unit) -> float:
        """Classic predicate-ordering rank: per-tuple cost over the
        fraction of tuples dropped — cheap, selective joins run first."""
        per_tuple = (unit.rt / unit.let.k + unit.m_eff * unit.sel * unit.pr
                     + self.join_ms)
        pass_fraction = min(1.0, unit.m_eff * unit.sel)
        if pass_fraction >= 1.0:
            return math.inf
        return per_tuple / (1.0 - pass_fraction)

    def _decide_unit(self, clauses, pos, unit: _Unit,
                     n: float) -> tuple[int, float]:
        n_eff = max(n, 1.0)
        match = n_eff * unit.m_eff * unit.sel
        via = "statistics"
        entry = self.ops.get(self._next_id + 1)
        if entry is not None and entry.observations > 0 and entry.ewma_rows > 0:
            # warm start: the operator's observed EWMA of matched rows
            # (PP-k fetch spans carry them) replaces the sketch estimate
            match = entry.ewma_rows
            via = "observed"
        k = unit.let.k
        costs = {
            PPK: (math.ceil(n_eff / k) * unit.rt + match * unit.pr
                  + n_eff * self.join_ms),
            INDEX_JOIN: (unit.rt + unit.m_eff * unit.pr
                         + (unit.m_eff + n_eff) * PROBE_MS),
            SHIP_ALL: (n_eff * unit.rt + n_eff * unit.m_eff * unit.pr
                       + n_eff * PROBE_MS),
        }
        convertible = unit.key_element is not None
        ranked = sorted(STRATEGIES, key=lambda s: costs[s]) if convertible \
            else [PPK]
        winner = ranked[0]
        force = self.force
        if force is not None:
            winner = force if (force == PPK or convertible) else PPK
        runner = next((s for s in ranked if s != winner), None)
        stamp = {
            "est_strategy": winner, "est_rows": match,
            "est_ms": costs[winner], "est_outer": n_eff, "est_via": via,
        }
        if runner is not None:
            stamp["est_runner_up"] = runner
            stamp["est_runner_up_ms"] = costs[runner]
        if winner == PPK:
            _stamp(unit.let, stamp)
            # the scan fallback is valid iff the region is convertible
            unit.let.est_replan_scan = convertible
            self._next_id += 1  # the PP-k clause; no descend
            inserted = 2
        elif winner == INDEX_JOIN:
            join = self._make_index_join(unit)
            _stamp(join, stamp)
            clauses[pos:pos + 2] = [join]
            self._next_id += 1  # the index-join clause itself
            # the abandoned PP-k twin keeps the clause's operator id so a
            # mid-query re-plan's spans attribute to the same operator
            unit.let.op_id = self._next_id
            for child in join.children():
                self._visit(child, n_eff)
            inserted = 1
        else:  # SHIP_ALL
            for_clause, where = self._make_ship_all(unit)
            _stamp(for_clause.expr, stamp)
            clauses[pos:pos + 2] = [for_clause, where]
            self._visit(for_clause, n_eff)
            self._visit(where, n_eff)
            inserted = 2
        return inserted, match

    # -- transformations -----------------------------------------------------

    def _scan_of(self, unit: _Unit) -> PushedSQL:
        """The region's base select as a plain full scan: the correlation
        predicate is *not* baked into the select (the PP-k executor adds
        it per block), so dropping the correlation is the whole scan."""
        scan = unit.pushed.clone()
        scan.correlation = None
        return scan

    def _item_key(self, unit: _Unit, var: str) -> ast.AstNode:
        """``fn:data($var/KEY_ELEMENT)`` over a reconstructed inner item."""
        step = ast.Step("child", ast.NameTest(unit.key_element))
        return ast.FunctionCall(
            "fn:data", [ast.PathExpr(ast.VarRef(var), [step])])

    def _make_index_join(self, unit: _Unit) -> IndexJoinForClause:
        var = unit.for_clause.var
        correlation = unit.pushed.correlation
        join = IndexJoinForClause(
            var, self._scan_of(unit), self._item_key(unit, var),
            correlation.outer_key.clone(), correlation.general)
        # runner-up twin for the runtime's index -> PP-k re-plan
        join.replan_ppk = unit.let
        return join

    def _make_ship_all(self, unit: _Unit) -> tuple[ast.ForClause,
                                                   ast.WhereClause]:
        var = unit.for_clause.var
        correlation = unit.pushed.correlation
        condition = ast.Comparison(
            "eq", correlation.outer_key.clone(),
            self._item_key(unit, var), general=correlation.general)
        return ast.ForClause(var, self._scan_of(unit)), \
            ast.WhereClause(condition)


def _stamp(node: ast.AstNode, attrs: dict) -> None:
    for key, value in attrs.items():
        setattr(node, key, value)


def _var_uses(node: ast.AstNode, name: str) -> int:
    """Occurrences of ``$name`` in the (sub)tree, including correlation
    outer keys (which generic child traversal does not reach)."""
    count = 0
    for sub in node.walk():
        if isinstance(sub, ast.VarRef) and sub.name == name:
            count += 1
        elif isinstance(sub, PushedSQL) and sub.correlation is not None:
            for inner in sub.correlation.outer_key.walk():
                if isinstance(inner, ast.VarRef) and inner.name == name:
                    count += 1
    return count


def _key_element(template: ast.AstNode, alias: str) -> str | None:
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
        found = _key_element(child, alias)
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
    from the same formulas the optimizer costs plans with."""
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
    return max(total_ms / ADMISSION_UNIT_MS, 1.0)


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
