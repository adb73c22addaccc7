"""SQL generation: compiling pushable XQuery regions to SQL (sections
4.3–4.4).

Two cooperating pieces:

* :class:`RegionCompiler` compiles one FLWOR whose data all comes from a
  single relational database into a :class:`~repro.compiler.algebra.PushedSQL`
  node — a SQL select plus a *reconstruction template* that rebuilds the
  XML mid-tier (node constructors are never pushed).  It covers every
  pattern of Tables 1 and 2: select-project, inner joins (join introduction
  per ``for`` clause with where-conditions pushed into the joins), nested
  FLWORs as LEFT OUTER JOINs with mid-tier regrouping, CASE, group-by with
  aggregation, DISTINCT, outer-join aggregation, EXISTS semi-joins, and
  order-by + subsequence pagination (vendor-dependent).

* :class:`PushdownRewriter` walks an optimized tree, carving out maximal
  pushable regions.  Where a whole FLWOR cannot push (multiple databases,
  functional sources in the middle), it falls back per clause: runs of
  same-database table ``for`` clauses become
  :class:`~repro.compiler.algebra.PushedTupleForClause` (clause-level join
  pushdown) and correlated sub-FLWORs are hoisted into
  :class:`~repro.compiler.algebra.PPkLetClause` — the PP-k distributed join
  of section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.algebra import (
    Correlation,
    ColumnSlot,
    GroupSlot,
    NestedSlot,
    PushedSQL,
    SourceCall,
    TableMeta,
)
from ..config import EngineConfig
from ..errors import SQLError
from ..xquery import ast_nodes as ast
from .ast_nodes import (
    AggCall,
    BinOp,
    CaseExpr,
    ColumnRef,
    ExistsExpr,
    FuncCall,
    Join,
    NotExpr,
    OrderItem,
    Param,
    Select,
    SelectItem,
    SqlExpr,
    SqlLiteral,
    TableRef,
    sql_nodes,
)
from .dialects import SqlRenderer, capabilities_for
from .pushdown import (
    AGGREGATE_TO_SQL,
    COMPARISON_TO_SQL,
    column_access,
    free_vars,
    is_cast_constructor,
    is_table_call,
    split_conjuncts,
    sql_function_for,
    unwrap_data,
)


class _NotPushable(Exception):
    """Internal control flow: the current region cannot be pushed."""


# ---------------------------------------------------------------------------
# Region compilation
# ---------------------------------------------------------------------------


@dataclass
class _TableBinding:
    alias: str
    meta: TableMeta
    #: nested (left outer) join: the clause conjuncts forming the ON
    nested_on: list[SqlExpr] | None = None


class RegionCompiler:
    """Compiles one FLWOR into a pushed SQL region, or raises
    :class:`_NotPushable`."""

    def __init__(self, outer_vars: frozenset[str], allow_correlation: bool,
                 config: EngineConfig):
        self.outer_vars = outer_vars
        self.allow_correlation = allow_correlation
        self.config = config
        self.database: str | None = None
        self.vendor: str | None = None
        self.tables: dict[str, _TableBinding] = {}  # row var -> binding
        self.table_order: list[str] = []
        self.where: list[SqlExpr] = []
        self.select_items: list[SelectItem] = []
        self.order_by: list[OrderItem] = []
        self.group_by_keys: list[tuple[SqlExpr, str]] = []  # (expr, xs type)
        self.distinct = False
        self.params: list[ast.AstNode] = []
        self.correlation: Correlation | None = None
        self.let_exprs: dict[str, tuple[SqlExpr, str]] = {}
        self.key_vars: dict[str, tuple[SqlExpr, str]] = {}
        self.grouped_vars: dict[str, str] = {}  # target -> source var/let
        self.after_group = False
        self.cluster_mode = False
        self.implicit_agg = False
        self.nested_used = False
        self.hidden_aliases: list[str] = []
        self.regroup: list[str] | None = None
        self._alias_count = 0
        self._col_count = 0
        self._fetch: tuple[int, int | None] | None = None

    # -- small helpers ----------------------------------------------------------

    def _fail(self, reason: str) -> "_NotPushable":
        return _NotPushable(reason)

    def _alias(self) -> str:
        self._alias_count += 1
        return f"t{self._alias_count}"

    def _col_alias(self) -> str:
        self._col_count += 1
        return f"c{self._col_count}"

    def _add_select(self, expr: SqlExpr, hidden: bool = False) -> str:
        # Reuse an existing identical select item when possible.
        for item in self.select_items:
            if item.expr == expr and item.alias:
                return item.alias
        alias = self._col_alias()
        self.select_items.append(SelectItem(expr, alias))
        if hidden:
            self.hidden_aliases.append(alias)
        return alias

    def _bind_table(self, var: str, meta: TableMeta,
                    nested_on: list[SqlExpr] | None = None) -> _TableBinding:
        if self.database is None:
            self.database = meta.database
            self.vendor = meta.vendor
        elif meta.database != self.database:
            raise self._fail(
                f"tables from different databases: {meta.database} vs {self.database}"
            )
        elif not self.config.clause_join_pushdown:
            raise self._fail("multi-table SQL joins disabled (ablation)")
        binding = _TableBinding(self._alias(), meta, nested_on)
        self.tables[var] = binding
        self.table_order.append(var)
        return binding

    # -- entry point ---------------------------------------------------------------

    def compile(self, flwor: ast.FLWOR) -> PushedSQL:
        flwor = self._strip_pagination(flwor)
        pending_order: ast.OrderByClause | None = None
        for clause in flwor.clauses:
            if isinstance(clause, ast.ForClause):
                self._compile_for(clause)
            elif isinstance(clause, ast.LetClause):
                self._compile_let(clause)
            elif isinstance(clause, ast.WhereClause):
                self._compile_where(clause)
            elif isinstance(clause, ast.GroupByClause):
                self._compile_group(clause)
            elif isinstance(clause, ast.OrderByClause):
                pending_order = clause
            else:
                raise self._fail(f"clause {type(clause).__name__} is not pushable")
        if not self.tables:
            raise self._fail("no relational table in region")
        template = self._template(flwor.return_expr)
        if pending_order is not None:
            for spec in pending_order.specs:
                if spec.empty_greatest:
                    # SQL NULL ordering matches XQuery's default (empty
                    # least); 'empty greatest' has no portable rendering.
                    raise self._fail("order by ... empty greatest is not pushable")
                expr, _t = self._scalar(spec.key, allow_agg=True)
                self.order_by.append(OrderItem(expr, spec.descending))
        return self._finalize(template)

    # -- clause compilation ------------------------------------------------------------

    def _compile_for(self, clause: ast.ForClause) -> None:
        if clause.pos_var:
            raise self._fail("positional variables are not pushable")
        if self.after_group:
            raise self._fail("for after group-by is not pushable")
        expr = clause.expr
        if is_table_call(expr):
            assert isinstance(expr, SourceCall) and expr.table_meta is not None
            if expr.args:
                raise self._fail("parameterized table functions are not pushable")
            self._bind_table(clause.var, expr.table_meta)
            return
        raise self._fail(f"for over {type(expr).__name__} is not pushable")

    def _compile_let(self, clause: ast.LetClause) -> None:
        expr, xs_type = self._scalar(clause.expr, allow_agg=True)
        self.let_exprs[clause.var] = (expr, xs_type)

    def _compile_where(self, clause: ast.WhereClause) -> None:
        if self.after_group:
            raise self._fail("where after group-by is not pushable")
        for conjunct in split_conjuncts(clause.condition):
            translated = self._predicate(conjunct)
            if translated is not None:
                self.where.append(translated)

    def _predicate(self, conjunct: ast.AstNode) -> SqlExpr | None:
        """Translate one where conjunct; returns None if the conjunct was
        consumed as the PP-k correlation."""
        conjunct_ = _unwrap_typematch(conjunct)
        if (
            self.allow_correlation
            and self.correlation is None
            and isinstance(conjunct_, ast.Comparison)
            and conjunct_.op == "eq"
        ):
            for col_side, other_side in (
                (conjunct_.left, conjunct_.right),
                (conjunct_.right, conjunct_.left),
            ):
                access = column_access(col_side, self.tables)
                if access is None:
                    continue
                other_free = free_vars(other_side)
                if other_free and other_free <= self.outer_vars:
                    var, column = access
                    binding = self.tables[var]
                    xs_type = binding.meta.column_type(column) or "xs:string"
                    column_expr = ColumnRef(binding.alias, column)
                    alias = self._add_select(column_expr, hidden=True)
                    self.correlation = Correlation(column_expr, alias, other_side,
                                                   conjunct_.general)
                    return None
        expr, _t = self._scalar(conjunct, allow_agg=False)
        return expr

    def _compile_group(self, clause: ast.GroupByClause) -> None:
        if self.after_group:
            raise self._fail("multiple group-by clauses are not pushable")
        for key_expr, key_var in clause.keys:
            expr, xs_type = self._scalar(key_expr, allow_agg=False)
            self.group_by_keys.append((expr, xs_type))
            self.key_vars[key_var] = (expr, xs_type)
        for source, target in clause.grouped:
            if source not in self.tables and source not in self.let_exprs:
                raise self._fail(f"grouped variable ${source} is not a pushed binding")
            self.grouped_vars[target] = source
        self.after_group = True

    # -- pagination -----------------------------------------------------------------------

    def set_fetch(self, start: int, count: int | None) -> None:
        """Record a subsequence window to push as pagination."""
        self._fetch = (start, count)

    def _strip_pagination(self, flwor: ast.FLWOR) -> ast.FLWOR:
        """Recognize ``let $cs := <flwor> return subsequence($cs, s, l)``
        (Table 2(i)) and record the fetch window."""
        if len(flwor.clauses) != 1 or not isinstance(flwor.clauses[0], ast.LetClause):
            return flwor
        let = flwor.clauses[0]
        call = flwor.return_expr
        if not (
            isinstance(call, ast.FunctionCall)
            and call.name == "fn:subsequence"
            and isinstance(call.args[0], ast.VarRef)
            and call.args[0].name == let.var
            and isinstance(let.expr, ast.FLWOR)
        ):
            return flwor
        bounds = subsequence_bounds(call)
        if bounds is None:
            return flwor
        self._fetch = bounds
        return let.expr


    # -- templates -------------------------------------------------------------------------

    def _template(self, expr: ast.AstNode) -> ast.AstNode:
        expr = _unwrap_typematch(expr)
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.ElementCtor):
            attributes = []
            for attr in expr.attributes:
                value = self._template_scalar(attr.value)
                attributes.append(ast.AttributeCtor(attr.name, value, attr.optional))
            content = [self._template(part) for part in expr.content]
            return ast.ElementCtor(expr.name, attributes, content)
        if isinstance(expr, ast.SequenceExpr):
            return ast.SequenceExpr([self._template(part) for part in expr.items])
        if isinstance(expr, ast.EmptySequence):
            return expr
        # Whole row variable: rebuild the row element.
        if isinstance(expr, ast.VarRef) and expr.name in self.tables and not self.after_group:
            return self._row_template(expr.name)
        # Grouped variable used raw -> clustered scan + GroupSlot.
        if isinstance(expr, ast.VarRef) and expr.name in self.grouped_vars:
            return self._group_slot(expr.name)
        # Element-valued column path: $c/COL (content position).
        access = column_access(expr, self.tables) if not self.after_group else None
        if access is not None and isinstance(expr, ast.PathExpr):
            var, column = access
            binding = self.tables[var]
            xs_type = binding.meta.column_type(column)
            if xs_type is None:
                raise self._fail(f"unknown column {column} of {binding.meta.table}")
            alias = self._add_select(ColumnRef(binding.alias, column))
            return ColumnSlot(alias, xs_type, element_name=column)
        # Nested FLWOR in content position: LEFT OUTER JOIN + regroup.
        if isinstance(expr, ast.FLWOR):
            return self._nested_template(expr)
        if isinstance(expr, ast.IfExpr) or _is_scalar_candidate(expr):
            return self._template_scalar(expr)
        raise self._fail(f"{type(expr).__name__} is not pushable in a template")

    def _template_scalar(self, expr: ast.AstNode) -> ColumnSlot:
        sql_expr, xs_type = self._scalar(expr, allow_agg=True)
        alias = self._add_select(sql_expr)
        return ColumnSlot(alias, xs_type)

    def _row_template(self, var: str) -> ast.ElementCtor:
        binding = self.tables[var]
        content: list[ast.AstNode] = []
        for column, xs_type in binding.meta.columns:
            alias = self._add_select(ColumnRef(binding.alias, column))
            content.append(ColumnSlot(alias, xs_type, element_name=column))
        return ast.ElementCtor(binding.meta.element_name, [], content)

    def _group_slot(self, target: str) -> GroupSlot:
        self.cluster_mode = True
        source = self.grouped_vars[target]
        if source in self.let_exprs:
            expr, xs_type = self.let_exprs[source]
            alias = self._add_select(expr)
            return GroupSlot(ColumnSlot(alias, xs_type))
        return GroupSlot(self._row_template(source))

    def _nested_template(self, flwor: ast.FLWOR) -> NestedSlot:
        """A correlated nested FLWOR becomes a LEFT OUTER JOIN whose rows
        are regrouped per outer tuple (Table 1(c))."""
        if self.nested_used or self.implicit_agg:
            # A second 1:N join would multiply rows of the first.
            raise self._fail("only one nested one-to-many join per region")
        if self.after_group:
            raise self._fail("nested FLWOR after group-by is not pushable")
        inner_var, meta, on_conjuncts = self._nested_join_parts(flwor)
        binding = self._bind_table(inner_var, meta, nested_on=[])
        translated = []
        for conjunct in on_conjuncts:
            expr, _t = self._scalar(conjunct, allow_agg=False)
            translated.append(expr)
        binding.nested_on = translated
        probe_column = meta.primary_key[0] if meta.primary_key else meta.columns[0][0]
        probe_alias = self._add_select(ColumnRef(binding.alias, probe_column), hidden=True)
        template = self._template(flwor.return_expr)
        self.nested_used = True
        del self.tables[inner_var]  # inner row var is out of scope afterwards
        self.tables[f"#nested:{inner_var}"] = binding
        return NestedSlot(template, probe_alias)

    def _nested_join_parts(
        self, flwor: ast.FLWOR
    ) -> tuple[str, TableMeta, list[ast.AstNode]]:
        if len(flwor.clauses) not in (1, 2):
            raise self._fail("nested FLWOR shape is not pushable")
        for_clause = flwor.clauses[0]
        if not isinstance(for_clause, ast.ForClause) or not is_table_call(for_clause.expr):
            raise self._fail("nested FLWOR must scan a table")
        assert isinstance(for_clause.expr, SourceCall)
        meta = for_clause.expr.table_meta
        assert meta is not None
        conjuncts: list[ast.AstNode] = []
        if len(flwor.clauses) == 2:
            where = flwor.clauses[1]
            if not isinstance(where, ast.WhereClause):
                raise self._fail("nested FLWOR clause is not pushable")
            conjuncts = split_conjuncts(where.condition)
        return for_clause.var, meta, conjuncts

    # -- scalar translation ------------------------------------------------------------------

    def _scalar(self, expr: ast.AstNode, allow_agg: bool) -> tuple[SqlExpr, str]:
        """Translate a scalar XQuery expression to SQL; returns the SQL
        expression and its xs: result type."""
        expr = _unwrap_typematch(expr)
        expr = unwrap_data(expr)
        if isinstance(expr, ast.Literal):
            return SqlLiteral(expr.value.value), expr.value.type_name
        if isinstance(expr, ast.VarRef):
            if expr.name in self.let_exprs:
                return self.let_exprs[expr.name]
            if expr.name in self.key_vars:
                return self.key_vars[expr.name]
            if expr.name in self.outer_vars:
                return self._param(expr), "xs:string"
            raise self._fail(f"variable ${expr.name} is not a pushable scalar")
        access = column_access(expr, self.tables)
        if access is not None:
            if self.after_group:
                raise self._fail("row columns are not addressable after group-by")
            var, column = access
            binding = self.tables[var]
            xs_type = binding.meta.column_type(column)
            if xs_type is None:
                raise self._fail(f"unknown column {column} of table {binding.meta.table}")
            return ColumnRef(binding.alias, column), xs_type
        # Grouped-variable paths/aggregates.
        if isinstance(expr, ast.PathExpr) and isinstance(expr.base, ast.VarRef):
            base = expr.base.name
            if base in self.grouped_vars:
                raise self._fail("grouped sequence used as a scalar")
        if isinstance(expr, ast.Arithmetic):
            left, lt = self._scalar(expr.left, allow_agg)
            right, rt = self._scalar(expr.right, allow_agg)
            op = {"+": "+", "-": "-", "*": "*", "div": "/", "idiv": "/", "mod": "%"}.get(expr.op)
            if op is None:
                raise self._fail(f"operator {expr.op} is not pushable")
            return BinOp(op, left, right), (lt if lt == rt else "xs:double")
        if isinstance(expr, ast.UnaryMinus):
            inner, xs_type = self._scalar(expr.operand, allow_agg)
            return BinOp("-", SqlLiteral(0), inner), xs_type
        if isinstance(expr, ast.Comparison):
            left, _lt = self._scalar(expr.left, allow_agg)
            right, _rt = self._scalar(expr.right, allow_agg)
            return BinOp(COMPARISON_TO_SQL[expr.op], left, right), "xs:boolean"
        if isinstance(expr, ast.AndExpr):
            left, _ = self._scalar(expr.left, allow_agg)
            right, _ = self._scalar(expr.right, allow_agg)
            return BinOp("AND", left, right), "xs:boolean"
        if isinstance(expr, ast.OrExpr):
            left, _ = self._scalar(expr.left, allow_agg)
            right, _ = self._scalar(expr.right, allow_agg)
            return BinOp("OR", left, right), "xs:boolean"
        if isinstance(expr, ast.IfExpr):
            condition, _ = self._scalar(expr.condition, allow_agg)
            then_value, tt = self._scalar(expr.then_branch, allow_agg)
            else_value, et = self._scalar(expr.else_branch, allow_agg)
            return CaseExpr([(condition, then_value)], else_value), (tt if tt == et else tt)
        if isinstance(expr, ast.Quantified):
            return self._quantified(expr), "xs:boolean"
        if isinstance(expr, ast.FunctionCall):
            return self._scalar_function(expr, allow_agg)
        # Anything whose free variables are all middleware values can be
        # evaluated mid-tier and shipped as a parameter (section 4.4).
        fv = free_vars(expr)
        if fv <= self.outer_vars and not _mentions_region(expr, self.tables):
            return self._param(expr), "xs:string"
        raise self._fail(f"{type(expr).__name__} is not a pushable scalar")

    def _param(self, expr: ast.AstNode) -> Param:
        self.params.append(expr)
        return Param(len(self.params) - 1)

    def _scalar_function(self, call: ast.FunctionCall, allow_agg: bool) -> tuple[SqlExpr, str]:
        name = call.name
        if name in AGGREGATE_TO_SQL:
            if not allow_agg:
                raise self._fail(f"aggregate {name} is not pushable here")
            return self._aggregate(call)
        if name == "fn:not":
            inner, _ = self._scalar(call.args[0], allow_agg)
            return NotExpr(inner), "xs:boolean"
        if name in ("fn:exists", "fn:empty"):
            inner = call.args[0]
            if isinstance(inner, ast.FLWOR):
                exists = self._exists_subquery_from_flwor(inner)
                if name == "fn:empty":
                    exists.negated = True
                return exists, "xs:boolean"
            raise self._fail(f"{name} over this operand is not pushable")
        if name in ("fn:true", "fn:false"):
            return SqlLiteral(name == "fn:true"), "xs:boolean"
        if name == "fn:concat":
            parts = [self._scalar(a, allow_agg)[0] for a in call.args]
            combined = parts[0]
            for part in parts[1:]:
                combined = BinOp("||", combined, part)
            return combined, "xs:string"
        if name in ("fn:contains", "fn:starts-with", "fn:ends-with"):
            return self._like(call, allow_agg), "xs:boolean"
        if is_cast_constructor(name) and len(call.args) == 1:
            inner, _ = self._scalar(call.args[0], allow_agg)
            return inner, name
        info = sql_function_for(name)
        if info is not None and info[0] == "func":
            args = [self._scalar(a, allow_agg)[0] for a in call.args]
            result_type = "xs:integer" if info[1] in ("LENGTH",) else "xs:string"
            if info[1] in ("ABS", "FLOOR", "CEIL", "ROUND"):
                result_type = "xs:double"
            return FuncCall(info[1], args), result_type
        raise self._fail(f"function {name} is not pushable")

    def _like(self, call: ast.FunctionCall, allow_agg: bool) -> SqlExpr:
        haystack, _ = self._scalar(call.args[0], allow_agg)
        needle = _unwrap_typematch(unwrap_data(call.args[1]))
        if not isinstance(needle, ast.Literal):
            raise self._fail(f"{call.name} with a non-literal pattern is not pushable")
        text = str(needle.value.value)
        if any(ch in text for ch in "%_"):
            raise self._fail(f"{call.name} pattern contains LIKE wildcards")
        pattern = {
            "fn:contains": f"%{text}%",
            "fn:starts-with": f"{text}%",
            "fn:ends-with": f"%{text}",
        }[call.name]
        return BinOp("LIKE", haystack, SqlLiteral(pattern))

    def _aggregate(self, call: ast.FunctionCall) -> tuple[SqlExpr, str]:
        sql_name = AGGREGATE_TO_SQL[call.name]
        arg = _unwrap_typematch(unwrap_data(call.args[0]))
        # count($p) over an explicit group.
        if isinstance(arg, ast.VarRef) and arg.name in self.grouped_vars:
            if sql_name != "COUNT":
                raise self._fail(f"{call.name} over a whole grouped variable")
            return AggCall("COUNT", None), "xs:integer"
        # sum($p/COL) over an explicit group.
        if isinstance(arg, ast.PathExpr) and isinstance(arg.base, ast.VarRef):
            target = arg.base.name
            if target in self.grouped_vars:
                source = self.grouped_vars[target]
                if source not in self.tables:
                    raise self._fail("aggregate over a non-row grouped variable")
                rewritten = ast.PathExpr(ast.VarRef(source), arg.steps)
                saved = self.after_group
                self.after_group = False
                try:
                    inner, xs_type = self._scalar(rewritten, allow_agg=False)
                finally:
                    self.after_group = saved
                result_type = "xs:integer" if sql_name == "COUNT" else xs_type
                return AggCall(sql_name, inner), result_type
        # count(for $o in T() where corr return ...) — implicit aggregation
        # via LEFT OUTER JOIN + GROUP BY (Table 2(g)).
        if isinstance(arg, ast.FLWOR):
            return self._implicit_aggregate(sql_name, arg)
        raise self._fail(f"aggregate {call.name} over this operand is not pushable")

    def _implicit_aggregate(self, sql_name: str, flwor: ast.FLWOR) -> tuple[SqlExpr, str]:
        if self.nested_used or self.implicit_agg:
            raise self._fail("only one one-to-many join per region")
        if self.after_group:
            raise self._fail("implicit aggregation after group-by")
        inner_var, meta, conjuncts = self._nested_join_parts(flwor)
        binding = self._bind_table(inner_var, meta, nested_on=[])
        translated = []
        for conjunct in conjuncts:
            expr, _t = self._scalar(conjunct, allow_agg=False)
            translated.append(expr)
        binding.nested_on = translated
        return_expr = _unwrap_typematch(unwrap_data(flwor.return_expr))
        if isinstance(return_expr, ast.VarRef) and return_expr.name == inner_var:
            count_column = meta.primary_key[0] if meta.primary_key else meta.columns[0][0]
            agg: SqlExpr = AggCall(sql_name, ColumnRef(binding.alias, count_column))
            xs_type = "xs:integer"
        else:
            inner_expr, inner_type = self._scalar(return_expr, allow_agg=False)
            agg = AggCall(sql_name, inner_expr)
            xs_type = "xs:integer" if sql_name == "COUNT" else inner_type
        del self.tables[inner_var]
        self.tables[f"#agg:{inner_var}"] = binding
        self.implicit_agg = True
        return agg, xs_type

    def _quantified(self, expr: ast.Quantified) -> SqlExpr:
        """``some $v in T() satisfies p`` -> EXISTS subquery (Table 2(h));
        ``every`` -> NOT EXISTS of the negation."""
        if len(expr.bindings) != 1:
            raise self._fail("multi-binding quantified expressions are not pushable")
        var, source = expr.bindings[0]
        if not is_table_call(source):
            raise self._fail("quantified expression over a non-table source")
        assert isinstance(source, SourceCall) and source.table_meta is not None
        flwor = ast.FLWOR(
            [ast.ForClause(var, source), ast.WhereClause(expr.satisfies.clone())],
            ast.Literal(__import__("repro.xml.items", fromlist=["AtomicValue"]).AtomicValue(1, "xs:integer")),
        )
        exists = self._exists_subquery_from_flwor(flwor)
        if expr.kind == "every":
            inner_where = exists.subquery.where
            assert inner_where is not None
            exists.subquery.where = NotExpr(inner_where)
            exists.negated = True
        return exists

    def _exists_subquery_from_flwor(self, flwor: ast.FLWOR) -> ExistsExpr:
        inner_var, meta, conjuncts = self._nested_join_parts(flwor)
        if self.database is not None and meta.database != self.database:
            raise self._fail("EXISTS subquery against a different database")
        binding = _TableBinding(self._alias(), meta)
        self.tables[inner_var] = binding
        try:
            translated = [self._scalar(c, allow_agg=False)[0] for c in conjuncts]
        finally:
            del self.tables[inner_var]
        subquery = Select(
            items=[SelectItem(SqlLiteral(1))],
            from_items=[TableRef(meta.table, binding.alias)],
            where=_and_all(translated),
        )
        return ExistsExpr(subquery)

    # -- finalize -----------------------------------------------------------------------------

    def _finalize(self, template: ast.AstNode) -> PushedSQL:
        assert self.database is not None and self.vendor is not None
        from_item = self._build_from()
        select = Select(
            items=list(self.select_items),
            from_items=[from_item],
            where=_and_all(self.where),
            order_by=list(self.order_by),
        )

        has_aggregates = any(_contains_agg(item.expr) for item in self.select_items)
        if self.after_group and not self.cluster_mode:
            if has_aggregates:
                select.group_by = [expr for expr, _t in self.group_by_keys]
            else:
                # Pattern (f): group-by used only for its keys == DISTINCT.
                select.distinct = True
        elif self.after_group and self.cluster_mode:
            # Clustered scan: ORDER BY the keys; regroup mid-tier.
            regroup_aliases = []
            for expr, _t in self.group_by_keys:
                alias = self._add_select(expr, hidden=True)
                regroup_aliases.append(alias)
                select.order_by.append(OrderItem(expr))
            select.items = list(self.select_items)
            self.regroup = regroup_aliases
        elif self.implicit_agg:
            # Implicit aggregation (pattern g): one aggregate row per outer
            # tuple.  Group on the outer tables' primary keys (selected as
            # hidden columns when not already projected) plus every other
            # non-aggregate select item — grouping on projected values alone
            # would merge distinct outer rows that happen to share a value,
            # and a plain ungrouped aggregate would fabricate a row even
            # over an empty outer table.
            group_exprs = [
                item.expr for item in select.items if not _contains_agg(item.expr)
            ]
            for binding in self.tables.values():
                if binding.nested_on is not None:
                    continue
                key_columns = binding.meta.primary_key or tuple(
                    name for name, _t in binding.meta.columns
                )
                for column in key_columns:
                    expr = ColumnRef(binding.alias, column)
                    if expr not in group_exprs:
                        self._add_select(expr, hidden=True)
                        group_exprs.append(expr)
            select.items = list(self.select_items)
            select.group_by = group_exprs
        elif self.nested_used:
            # Nested content join (pattern c): regroup on the outer tables'
            # primary keys (clustering is preserved by the engine's
            # left-order-preserving join).
            regroup_aliases = []
            for var in self.table_order:
                binding = self.tables.get(var)
                if binding is None or binding.nested_on is not None:
                    continue
                key_columns = binding.meta.primary_key or tuple(
                    name for name, _t in binding.meta.columns
                )
                for column in key_columns:
                    alias = self._add_select(ColumnRef(binding.alias, column), hidden=True)
                    regroup_aliases.append(alias)
            select.items = list(self.select_items)
            self.regroup = regroup_aliases

        if not select.items:
            # the return reads no column: project a hidden constant (under
            # DISTINCT, the keys it stands for), so the region still ships
            # one row per template instance
            for expr in ([key for key, _t in self.group_by_keys]
                         if select.distinct else [SqlLiteral(1)]):
                self._add_select(expr, hidden=True)
            select.items = list(self.select_items)

        if self._fetch is not None:
            caps = capabilities_for(self.vendor)
            if caps.pagination is not None and self.regroup is None:
                select.fetch = self._fetch
                self._fetch = None
            # else: subsequence stays mid-tier (handled by the rewriter).

        # Validate that the dialect can actually render this statement.
        try:
            SqlRenderer(capabilities_for(self.vendor)).render(select)
        except SQLError as exc:
            raise self._fail(f"dialect {self.vendor} cannot render: {exc}")

        return PushedSQL(
            database=self.database,
            vendor=self.vendor,
            select=select,
            param_exprs=list(self.params),
            template=template,
            regroup=self.regroup,
            correlation=self.correlation,
            residual_fetch=self._fetch,  # mid-tier subsequence, if any
        )

    def _build_from(self):
        # Bindings in registration (alias) order; nested/agg bindings were
        # re-keyed out of the row-variable namespace after template building.
        bindings = sorted(self.tables.values(), key=lambda b: int(b.alias[1:]))
        plain = [b for b in bindings if b.nested_on is None]
        nested = [b for b in bindings if b.nested_on is not None]
        if not plain:
            raise self._fail("no scan table in region")
        remaining = list(self.where)
        from_item = TableRef(plain[0].meta.table, plain[0].alias)
        seen_aliases = {plain[0].alias}
        for binding in plain[1:]:
            seen_aliases.add(binding.alias)
            on_conjuncts = []
            rest = []
            for conjunct in remaining:
                aliases = _aliases_in(conjunct)
                if binding.alias in aliases and aliases <= seen_aliases:
                    on_conjuncts.append(conjunct)
                else:
                    rest.append(conjunct)
            remaining = rest
            from_item = Join("inner", from_item, TableRef(binding.meta.table, binding.alias),
                             _and_all(on_conjuncts) or SqlLiteral(True))
        for binding in nested:
            from_item = Join("left", from_item, TableRef(binding.meta.table, binding.alias),
                             _and_all(binding.nested_on or []) or SqlLiteral(True))
        self.where = remaining
        return from_item


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _unwrap_typematch(node: ast.AstNode) -> ast.AstNode:
    while isinstance(node, ast.TypeMatch):
        node = node.operand
    return node


def _and_all(conjuncts: list[SqlExpr]) -> SqlExpr | None:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for extra in conjuncts[1:]:
        combined = BinOp("AND", combined, extra)
    return combined


def _aliases_in(expr: SqlExpr) -> set[str]:
    return {node.table for node in sql_nodes(expr)
            if isinstance(node, ColumnRef) and node.table}


def _contains_agg(expr: SqlExpr) -> bool:
    return any(isinstance(node, AggCall) for node in sql_nodes(expr))


def _is_scalar_candidate(expr: ast.AstNode) -> bool:
    return isinstance(
        expr,
        (ast.FunctionCall, ast.Arithmetic, ast.Comparison, ast.AndExpr,
         ast.OrExpr, ast.UnaryMinus, ast.VarRef, ast.Quantified),
    )


def _mentions_region(expr: ast.AstNode, tables: dict) -> bool:
    for sub in expr.walk():
        if isinstance(sub, ast.VarRef) and sub.name in tables:
            return True
    return False
def subsequence_bounds(call: ast.FunctionCall) -> tuple[int, int | None] | None:
    """Literal (start, count) window of an fn:subsequence call, if any."""
    bounds: list[int] = []
    for arg in call.args[1:]:
        if not (isinstance(arg, ast.Literal) and isinstance(arg.value.value, int)):
            return None
        bounds.append(arg.value.value)
    if not bounds:
        return None
    return bounds[0], (bounds[1] if len(bounds) > 1 else None)
