"""SQL generation: AST, dialects, pushdown analysis, region compiler,
rewriter (sections 4.3–4.4)."""

from .ast_nodes import (
    AggCall,
    BinOp,
    CaseExpr,
    ColumnRef,
    Delete,
    ExistsExpr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Join,
    NotExpr,
    OrderItem,
    Param,
    RowNumberOver,
    RowNumExpr,
    ScalarSubquery,
    Select,
    SelectItem,
    SqlExpr,
    SqlLiteral,
    SubqueryRef,
    TableRef,
    Update,
    param_order,
)
from .dialects import DIALECTS, Capabilities, SqlRenderer, capabilities_for, render_sql
from .generate import RegionCompiler
from .rewriter import PushdownRewriter, push_sql

__all__ = [
    "AggCall", "BinOp", "CaseExpr", "ColumnRef", "Delete", "ExistsExpr",
    "FuncCall", "InList", "Insert", "IsNull", "Join", "NotExpr", "OrderItem",
    "Param", "RowNumberOver", "RowNumExpr", "ScalarSubquery", "Select",
    "SelectItem", "SqlExpr", "SqlLiteral", "SubqueryRef", "TableRef",
    "Update", "param_order",
    "DIALECTS", "Capabilities", "SqlRenderer", "capabilities_for", "render_sql",
    "RegionCompiler", "PushdownRewriter", "push_sql",
]
