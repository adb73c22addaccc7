"""SQL abstract syntax tree.

Shared vocabulary between three components:

* :mod:`repro.sql.generate` — builds these trees from pushable XQuery
  regions (section 4.4);
* :mod:`repro.sql.dialects` — renders them as vendor-specific SQL text
  (Oracle / DB2 / SQL Server / Sybase / base SQL92, section 4.4);
* :mod:`repro.relational.sqlparser` / ``executor`` — the simulated RDBMS
  parses the rendered text back into this AST and executes it, validating
  the full round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class SqlExpr:
    """Base class of scalar SQL expressions."""


@dataclass
class ColumnRef(SqlExpr):
    table: Optional[str]  # table alias, e.g. "t1"
    column: str

    def __repr__(self) -> str:
        return f"{self.table + '.' if self.table else ''}{self.column}"


@dataclass
class SqlLiteral(SqlExpr):
    value: object  # str | int | float | bool | None

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass
class Param(SqlExpr):
    """A positional ``?`` parameter."""

    index: int  # 0-based position in the parameter list

    def __repr__(self) -> str:
        return f"?{self.index}"


@dataclass
class BinOp(SqlExpr):
    op: str  # = <> < <= > >= + - * / || AND OR LIKE
    left: SqlExpr
    right: SqlExpr


@dataclass
class NotExpr(SqlExpr):
    operand: SqlExpr


@dataclass
class IsNull(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass
class InList(SqlExpr):
    operand: SqlExpr
    values: list[SqlExpr] = field(default_factory=list)
    negated: bool = False


@dataclass
class FuncCall(SqlExpr):
    name: str  # UPPER, LOWER, SUBSTR, LENGTH, ABS, ...
    args: list[SqlExpr] = field(default_factory=list)


@dataclass
class AggCall(SqlExpr):
    name: str  # COUNT, SUM, AVG, MIN, MAX
    arg: Optional[SqlExpr] = None  # None means COUNT(*)
    distinct: bool = False


@dataclass
class CaseExpr(SqlExpr):
    whens: list[tuple[SqlExpr, SqlExpr]] = field(default_factory=list)
    else_value: Optional[SqlExpr] = None


@dataclass
class ExistsExpr(SqlExpr):
    subquery: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(SqlExpr):
    subquery: "Select"


@dataclass
class RowNumExpr(SqlExpr):
    """Oracle's ROWNUM pseudo-column."""


@dataclass
class RowNumberOver(SqlExpr):
    """``ROW_NUMBER() OVER (ORDER BY ...)`` (DB2 / SQL Server pagination)."""

    order_by: list["OrderItem"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------


class FromItem:
    pass


@dataclass
class TableRef(FromItem):
    name: str
    alias: str


@dataclass
class SubqueryRef(FromItem):
    subquery: "Select"
    alias: str


@dataclass
class Join(FromItem):
    kind: str  # "inner" | "left"
    left: FromItem
    right: FromItem
    condition: Optional[SqlExpr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: SqlExpr
    descending: bool = False


@dataclass
class Select:
    items: list[SelectItem] = field(default_factory=list)
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[SqlExpr] = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: Optional[SqlExpr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    #: abstract pagination: (offset rows skipped, max rows or None).
    #: Dialects render this their own way (ROWNUM wrapper, TOP,
    #: ROW_NUMBER() OVER, FETCH FIRST); the base SQL92 dialect cannot and
    #: refuses, causing a mid-tier fallback.
    fetch: Optional[tuple[int, Optional[int]]] = None


@dataclass
class Insert:
    table: str
    columns: list[str]
    values: list[SqlExpr]


@dataclass
class Update:
    table: str
    assignments: list[tuple[str, SqlExpr]]
    where: Optional[SqlExpr] = None


@dataclass
class Delete:
    table: str
    where: Optional[SqlExpr] = None


Statement = Union[Select, Insert, Update, Delete]


def param_order(stmt) -> list[int]:
    """Parameter indices in *rendered text order*.

    The simulated engine's SQL parser numbers ``?`` placeholders by their
    position in the text, while the generator numbers them by creation
    order; callers reorder bound values with this permutation before
    shipping a statement.  The traversal below mirrors the renderer's
    output order exactly (select list, FROM — recursing into joins and
    subqueries — WHERE, GROUP BY, HAVING, ORDER BY; DML fields in clause
    order).
    """
    order: list[int] = []

    def expr(node) -> None:
        if isinstance(node, Param):
            order.append(node.index)
            return
        if isinstance(node, (ScalarSubquery,)):
            select(node.subquery)
            return
        if isinstance(node, ExistsExpr):
            select(node.subquery)
            return
        if isinstance(node, (list, tuple)):
            for entry in node:
                expr(entry)
            return
        if hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                expr(getattr(node, name))

    def from_item(item) -> None:
        if isinstance(item, TableRef):
            return
        if isinstance(item, SubqueryRef):
            select(item.subquery)
            return
        if isinstance(item, Join):
            from_item(item.left)
            from_item(item.right)
            if item.condition is not None:
                expr(item.condition)

    def select(stmt: Select) -> None:
        for item in stmt.items:
            expr(item.expr)
        for item in stmt.from_items:
            from_item(item)
        if stmt.where is not None:
            expr(stmt.where)
        expr(stmt.group_by)
        if stmt.having is not None:
            expr(stmt.having)
        for order_item in stmt.order_by:
            expr(order_item.expr)

    if isinstance(stmt, Select):
        select(stmt)
    elif isinstance(stmt, Insert):
        expr(stmt.values)
    elif isinstance(stmt, Update):
        for _col, value in stmt.assignments:
            expr(value)
        if stmt.where is not None:
            expr(stmt.where)
    elif isinstance(stmt, Delete):
        if stmt.where is not None:
            expr(stmt.where)
    return order


def sql_nodes(obj) -> list[object]:
    """Every dataclass node in a SQL AST, ``obj`` first, pre-order through
    lists and nested subqueries — the walk its dataclass fields declare."""
    found: list[object] = []

    def visit(current) -> None:
        if isinstance(current, (list, tuple)):
            for entry in current:
                visit(entry)
        elif hasattr(current, "__dataclass_fields__"):
            found.append(current)
            for name in current.__dataclass_fields__:
                visit(getattr(current, name))

    visit(obj)
    return found
