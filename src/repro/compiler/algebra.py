"""Compiler-internal algebra nodes.

These extend the XQuery AST with the operators the optimizer introduces
(sections 4.2–4.4): resolved data-source calls, pushed SQL regions with
reconstruction templates, PP-k and index-join for-clauses for cross-source
joins, and runtime typematch/error operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import DEFAULT_PPK_BLOCK_SIZE
from ..sql.ast_nodes import Select
from ..xquery import ast_nodes as ast


@dataclass
class TableMeta:
    """Metadata captured by introspection for one relational table function
    (section 3.2): pragma contents made first-class."""

    database: str  # logical database/connection name
    table: str
    element_name: str  # name of the row element, usually the table name
    columns: list[tuple[str, str]]  # (column name, xs: type)
    primary_key: tuple[str, ...] = ()
    vendor: str = "oracle"

    def column_type(self, name: str) -> str | None:
        for column, xs_type in self.columns:
            if column == name:
                return xs_type
        return None

    def column_names(self) -> list[str]:
        return [name for name, _t in self.columns]

    def __deepcopy__(self, memo) -> "TableMeta":
        # introspection output, read by every plan over the table and
        # written by none: a copied tree shares it
        return self


class SourceCall(ast.FunctionCall):
    """A call to an external source function, resolved against metadata.

    For relational tables, ``table_meta`` is set and the call is a candidate
    for SQL pushdown; for functional sources (Web services, Java functions,
    files) the call is executed through its adaptor.  It *is* a function
    call (rewrite rules such as inverse-function transforms match it), just
    one whose implementation lives outside the XQuery world.
    """

    _fields = ("args",)
    _attrs = ("name", "kind")

    table_meta: Optional[TableMeta]

    def __init__(self, name: str, args: list[ast.AstNode], kind: str,
                 table_meta: Optional[TableMeta] = None):
        super().__init__(name, args)
        self.kind = kind  # "table" | "webservice" | "javafunc" | "file" | "storedproc"
        self.table_meta = table_meta


# ---------------------------------------------------------------------------
# Pushed SQL regions
# ---------------------------------------------------------------------------


class ColumnSlot(ast.AstNode):
    """In a reconstruction template: the value of one SQL output column.

    Evaluates to a typed atomic value (or the empty sequence for NULL —
    "NULLs are modeled as missing column elements", section 4.4).
    """

    _attrs = ("alias", "xs_type", "element_name")

    _leaf: Optional[object] = None  # ``pushedsql._leaf``

    def __init__(self, alias: str, xs_type: str, element_name: str | None = None):
        super().__init__()
        self.alias = alias
        self.xs_type = xs_type
        #: when set, the slot produces ``<element_name>value</element_name>``
        #: (typed), or the empty sequence for NULL — "NULLs are modeled as
        #: missing column elements" (section 4.4).
        self.element_name = element_name


class NestedSlot(ast.AstNode):
    """In a reconstruction template: content produced by an inner FLWOR that
    was pushed as a LEFT OUTER JOIN.

    Within one outer group, every joined row whose ``probe_alias`` column is
    non-NULL contributes one evaluation of ``template``.
    """

    _fields = ("template",)
    _attrs = ("probe_alias",)

    def __init__(self, template: ast.AstNode, probe_alias: str):
        super().__init__()
        self.template = template
        self.probe_alias = probe_alias


class GroupSlot(ast.AstNode):
    """In a grouped template: the sequence of values of a column across the
    rows of the current group (used when a grouped variable is emitted)."""

    _fields = ("template",)

    def __init__(self, template: ast.AstNode):
        super().__init__()
        self.template = template


@dataclass
class Correlation:
    """PP-k correlation info: the pushed query selects rows of B matching a
    key computed from each outer tuple of A (section 4.2).

    The correlation predicate is *not* baked into the base select; the PP-k
    executor adds a disjunctive ``(col = ?) OR (col = ?) ...`` clause per
    block (k parameters, as the paper describes).
    """

    #: SQL expression for B's join-key column (used in the disjunction)
    column_expr: object  # sql ColumnRef
    #: alias under which the join key appears in the select output (hashing)
    column_alias: str
    #: middleware expression computing A's join key per outer tuple
    outer_key: ast.AstNode
    #: the predicate was a general comparison (``=``): an outer key of
    #: several atoms joins on any of them; under ``eq`` it is an error
    general: bool = False


class PushedSQL(ast.AstNode):
    """A maximal single-database region compiled to SQL (section 4.3/4.4).

    Evaluation: compute ``param_exprs`` in the middleware, bind them
    positionally, ship the rendered SQL to ``database``, then rebuild XML
    via ``template``:

    * ``regroup`` is None — one template evaluation per row;
    * ``regroup`` is a list of aliases — rows are clustered on those
      columns (the engine's left-order-preserving join guarantees it) and
      one template evaluation is produced per group, with
      :class:`NestedSlot` content drawn from the group's rows.
    """

    _fields = ("param_exprs", "template")
    _attrs = ("database",)

    vendor: str
    select: Select
    regroup: Optional[list[str]]
    correlation: Optional[Correlation]
    #: (start, count) of a subsequence the dialect could not push
    residual_fetch: Optional[tuple[int, Optional[int]]]

    _sql_text: Optional[str] = None  # ``pushedsql.render_pushed``
    _ppk_sql_cache: Optional[dict] = None  # ``ppk._bucketed_sql``

    def __init__(
        self,
        database: str,
        vendor: str,
        select: Select,
        param_exprs: list[ast.AstNode],
        template: ast.AstNode,
        regroup: Optional[list[str]] = None,
        correlation: Optional[Correlation] = None,
        residual_fetch: Optional[tuple[int, Optional[int]]] = None,
    ):
        super().__init__()
        self.database = database
        self.vendor = vendor
        self.select = select
        self.param_exprs = param_exprs
        self.template = template
        self.regroup = regroup
        self.correlation = correlation
        self.residual_fetch = residual_fetch

    def scoping(self) -> ast.Scope:
        # the middleware expressions see the enclosing scope; the template
        # is closed: its leaves are column slots, never variables
        correlated = () if self.correlation is None else ((self.correlation.outer_key, ()),)
        return ast.Scope((*((param, ()) for param in self.param_exprs), *correlated,
                          (self.template, None)))


# ---------------------------------------------------------------------------
# Cross-source join clauses (section 5.2's join repertoire)
# ---------------------------------------------------------------------------


class PushedTupleForClause(ast.Clause):
    """A run of same-database ``for`` clauses (plus their join/selection
    predicates) pushed as one SQL query.

    Each result row binds *several* FLWOR variables at once —
    ``var_templates`` maps each variable to the template that rebuilds its
    value from the row (section 4.3's join introduction at clause level).
    """

    _fields = ("pushed",)
    _attrs = ("vars",)
    _vars = ("var_templates",)

    var_templates: list[tuple[str, ast.AstNode]]

    def __init__(self, var_templates: list[tuple[str, ast.AstNode]], pushed: PushedSQL):
        super().__init__()
        self.var_templates = var_templates
        self.pushed = pushed

    @property
    def vars(self) -> list[str]:
        return [var for var, _t in self.var_templates]

    def scoping(self) -> ast.Scope:
        return ast.Scope(((self.pushed, ()),
                          *((template, None) for _var, template in self.var_templates)),
                         binds=tuple(self.vars))


class PPkLetClause(ast.Clause):
    """``let $var := <correlated pushed region>`` executed PP-k style
    (section 4.2).

    For each block of ``k`` incoming tuples, one disjunctive parameterized
    query fetches every source row joining with any of the block's tuples;
    a middleware hash join then binds ``$var`` per tuple to its (possibly
    empty) sequence — the left-outer-join semantics of a nested FLWOR.
    ``k == 1`` degenerates to an index nested-loop join through the source.
    """

    _fields = ("pushed",)
    _attrs = ("var", "k")
    _vars = ("var",)

    def __init__(self, var: str, pushed: PushedSQL, k: int = DEFAULT_PPK_BLOCK_SIZE):
        super().__init__()
        self.var = var
        self.pushed = pushed
        self.k = k

    def scoping(self) -> ast.Scope:
        return ast.Scope(((self.pushed, ()),), binds=(self.var,))


class IndexJoinForClause(ast.Clause):
    """``for $var in expr`` equi-joined to the outer stream via a hash
    index — the *index nested loop* of the paper's join repertoire
    (section 5.2).

    ``expr`` must be loop-invariant (independent of the outer tuple
    variables): it is evaluated once and indexed by ``inner_key``
    (evaluated with ``$var`` bound per inner item); each outer tuple then
    probes with ``outer_key``.  Outer order is preserved, so downstream
    grouping on the outer key needs no sort.  ``general`` is the replaced
    comparison's flag: keys of several atoms join on any pair under ``=``
    and are the nested loop's error under ``eq``.
    """

    _fields = ("expr", "inner_key", "outer_key")
    _attrs = ("var",)
    _vars = ("var",)

    general: bool
    #: the PP-k clause this join replaced, for an index -> PP-k re-plan
    replan_ppk: Optional[PPkLetClause] = None

    def __init__(self, var: str, expr: ast.AstNode, inner_key: ast.AstNode,
                 outer_key: ast.AstNode, general: bool = False):
        super().__init__()
        self.var = var
        self.expr = expr
        self.inner_key = inner_key
        self.outer_key = outer_key
        self.general = general

    def scoping(self) -> ast.Scope:
        # the inner key is evaluated per inner item, bound to ``$var``; the
        # PP-k twin runs in the clause's place, so it sees what the clause does
        twin = () if self.replan_ppk is None else ((self.replan_ppk, ()),)
        return ast.Scope(((self.expr, ()), (self.outer_key, ()), *twin,
                          (self.inner_key, ((self.var, self),))), binds=(self.var,))
