"""SQL execution over the simulated database.

Implements enough of SQL semantics to run every statement the pushdown
framework generates (Tables 1 and 2 of the paper) plus the DML the update
decomposer emits: joins and left outer joins (preserving left-branch order,
which is what keeps pushed outer joins *clustered* on the outer key — the
property ALDSP's streaming group-by relies on, section 4.2), grouping and
aggregates, DISTINCT, CASE, EXISTS, IN, LIKE, ROWNUM / ROW_NUMBER() OVER
pagination, positional parameters, and three-valued NULL logic.

A statement is compiled once, by :func:`compile_statement`, into closures
over an *environment*: the list ``[params, group, rownum, row, row, ...]``
with one row per FROM entry in scope, a subquery's own entries following
its enclosing query's.  Every ``ColumnRef`` is resolved at compile time to
the slot of the entry it names, so running a statement walks no tree and
searches no scope chain.  The compiled plan also picks each table's access
path (:class:`_Scan`) and hashes equi-joins (DESIGN.md, P-BACKEND).
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from typing import Callable, Optional, Sequence

from ..errors import SQLError
from ..sql.ast_nodes import (
    AggCall,
    BinOp,
    CaseExpr,
    ColumnRef,
    Delete,
    ExistsExpr,
    FromItem,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Join,
    NotExpr,
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
)
from .database import Database
from .table import SQL_TO_XS, Table

#: the fixed slots of an environment; FROM rows start at ``_ROWS``
_PARAMS, _GROUP, _ROWNUM, _ROWS = 0, 1, 2, 3

#: a compiled expression: environment -> SQL value (None is NULL / unknown)
Compiled = Callable[[list], object]


class Executor:
    """Runs one statement against a database with one parameter list.

    ``plan`` is the statement's compiled form when the caller prepared it
    (see :mod:`repro.relational.prepared`); without one, ``execute``
    compiles the AST it is given on the spot."""

    def __init__(self, database: Database, params: Sequence | None = None,
                 plan: Callable | None = None):
        self.db = database
        self.params = list(params or [])
        self._plan = plan

    def execute(self, stmt) -> list[dict] | int:
        """Execute a statement.  SELECT returns rows (alias -> value);
        DML returns the affected-row count."""
        plan = self._plan or compile_statement(stmt, self.db.table)
        return plan(self.params)


def compile_statement(stmt, lookup: Callable[[str], Table]) -> Callable:
    """Compile a statement into ``plan(params) -> rows | count``.

    ``lookup`` resolves a table name; the plan holds the tables it found,
    so it is valid until DDL replaces one of them."""
    if isinstance(stmt, Select):
        run = _select(stmt, None, lookup)
    elif isinstance(stmt, Insert):
        run = _insert(stmt, lookup)
    elif isinstance(stmt, (Update, Delete)):
        run = _update_or_delete(stmt, lookup)
    else:
        raise SQLError(f"cannot execute {type(stmt).__name__}")
    return lambda params: run([params, None, None])


# ---------------------------------------------------------------------------
# Name resolution and access paths
# ---------------------------------------------------------------------------


class _Scope:
    """Compile-time view of an environment: which slot holds which FROM
    entry, with a link to the enclosing query's scope for correlated
    subqueries."""

    def __init__(self, outer: "Optional[_Scope]", lookup: Callable | None = None):
        self.outer = outer
        self.lookup = lookup or outer.lookup
        self.base = outer.width if outer is not None else _ROWS
        self.entries: list[tuple[str, list[str]]] = []

    @property
    def width(self) -> int:
        return self.base + len(self.entries)

    def add(self, alias: str, columns: list[str]) -> int:
        self.entries.append((alias, columns))
        return self.width - 1

    def slot(self, ref: ColumnRef) -> int:
        scope: Optional[_Scope] = self
        while scope is not None:
            for offset, (alias, columns) in enumerate(scope.entries):
                if ref.table in (None, alias) and ref.column in columns:
                    return scope.base + offset
            scope = scope.outer
        raise SQLError(f"unknown column {ref!r}")

    def null_rows(self, start: int) -> list[dict]:
        """All-NULL rows for the entries from slot ``start`` on."""
        return [dict.fromkeys(columns) for _alias, columns in self.entries[start - self.base:]]


class _Scan:
    """How one table of a FROM clause (or a DML target) is read.  When a
    top-level conjunct of the WHERE pins one of its columns to values that
    are fixed while the clause is evaluated, through the table's hash
    index; failing that, when conjuncts bound one of its columns by such
    values, through the column's ordered index; otherwise row by row.  A
    probe only narrows the candidates — the whole WHERE still runs on
    them."""

    __slots__ = ("table", "slot", "column", "keys", "ops")

    def __init__(self, table: Table, slot: int):
        self.table = table
        self.slot = slot
        self.column: str | None = None
        self.keys: list[Compiled] = []
        #: the bound operators beside ``keys`` on a range; None on a pin
        self.ops: list[str] | None = None

    def choose(self, where: SqlExpr | None, scope: _Scope) -> None:
        """Called once every entry of the FROM clause is in ``scope``."""
        conjuncts = _conjuncts(where)
        for conjunct in conjuncts:
            found = self._pinned(conjunct, scope)
            if found is not None:
                self.column, keys = found
                self.keys = [_expr(key, scope) for key in keys]
                return
        bounds = [found for conjunct in conjuncts
                  if (found := self._bounded(conjunct, scope)) is not None]
        if bounds:
            self.column = bounds[0][0]
            bounds = [bound for bound in bounds if bound[0] == self.column]
            self.ops = [op for _column, op, _key in bounds]
            self.keys = [_expr(key, scope) for _column, _op, key in bounds]

    def _mine(self, ref: SqlExpr, scope: _Scope) -> bool:
        return isinstance(ref, ColumnRef) and scope.slot(ref) == self.slot

    @staticmethod
    def _fixed(key: SqlExpr, scope: _Scope) -> bool:
        return isinstance(key, (Param, SqlLiteral)) or (
            isinstance(key, ColumnRef) and scope.slot(key) < scope.base)

    def _pinned(self, expr: SqlExpr, scope: _Scope) -> tuple[str, list[SqlExpr]] | None:
        """``(column, keys)`` when ``expr`` is ``column = key``, an OR of
        those on one column, or ``column IN (keys)``."""
        if isinstance(expr, BinOp) and expr.op == "OR":
            left, right = self._pinned(expr.left, scope), self._pinned(expr.right, scope)
            if left and right and left[0] == right[0]:
                return left[0], left[1] + right[1]
        elif isinstance(expr, BinOp) and expr.op == "=":
            for ref, key in ((expr.left, expr.right), (expr.right, expr.left)):
                if self._mine(ref, scope) and self._fixed(key, scope):
                    return ref.column, [key]
        elif isinstance(expr, InList) and not expr.negated and self._mine(expr.operand, scope) \
                and all(self._fixed(value, scope) for value in expr.values):
            return expr.operand.column, list(expr.values)
        return None

    def _bounded(self, expr: SqlExpr, scope: _Scope) -> tuple[str, str, SqlExpr] | None:
        """``(column, op, key)`` when ``expr`` is ``column op key`` or ``key
        po column`` for an ordering ``op`` (``po`` its mirror image) on a
        column whose declared type keeps its values mutually comparable."""
        if isinstance(expr, BinOp) and expr.op in _MIRRORED:
            for ref, key, op in ((expr.left, expr.right, expr.op),
                                 (expr.right, expr.left, _MIRRORED[expr.op])):
                if self._mine(ref, scope) and self._fixed(key, scope) \
                        and self.table.column(ref.column).sql_type.upper() in SQL_TO_XS:
                    return ref.column, op, key
        return None

    def pairs(self, env: list) -> list[tuple[int, dict]]:
        """The candidate rows, with their positions, in table order."""
        if self.column is None:
            return list(enumerate(self.table.rows))
        keys = [key(env) for key in self.keys]
        if self.ops is None:
            return self.table.probe(self.column, keys)
        return self.table.probe_range(self.column, list(zip(self.ops, keys)))

    def rows(self, env: list) -> list[dict]:
        if self.column is None:
            return self.table.rows
        return [row for _position, row in self.pairs(env)]


#: an ordering operator -> the one that holds with the operands swapped
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _conjuncts(expr: SqlExpr | None) -> list[SqlExpr]:
    if isinstance(expr, BinOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [] if expr is None else [expr]


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


def _select(stmt: Select, outer: _Scope | None, lookup: Callable | None = None) -> Callable:
    """Compile a (sub)query into ``run(env) -> rows``; ``env`` is the
    enclosing query's environment, or the bare fixed slots."""
    scope = _Scope(outer, lookup)
    scans: list[_Scan] = []
    sources = [_from_item(item, scope, scans) for item in stmt.from_items]
    for scan in scans:
        scan.choose(stmt.where, scope)
    where = _expr(stmt.where, scope) if stmt.where is not None else None

    aliases = _output_aliases(stmt.items)
    items = [(alias, _expr(item.expr, scope)) for alias, item in zip(aliases, stmt.items)]
    grouped = bool(stmt.group_by) or any(_contains_aggregate(item.expr) for item in stmt.items)
    group_by = [_expr(expr, scope) for expr in stmt.group_by]
    having = _expr(stmt.having, scope) if stmt.having is not None else None
    # an aggregate over no rows still yields one group, of all-NULL rows
    no_rows = scope.null_rows(scope.base) if grouped and not group_by else None

    window = next((item.expr for item in stmt.items if isinstance(item.expr, RowNumberOver)), None)
    window_key = None
    if window is not None:
        terms = [(_expr(term.expr, scope), term.descending) for term in window.order_by]
        window_key = lambda env: [_NullKey(fn(env), descending) for fn, descending in terms]
    window_alias = next((alias for alias, item in zip(aliases, stmt.items)
                         if item.expr is window), None)

    # ORDER BY may name an output alias or a source expression.
    own = {alias for alias, _columns in scope.entries}
    order: list[tuple[Compiled | None, str, bool]] = []
    for term in stmt.order_by:
        expr = term.expr
        by_alias = isinstance(expr, ColumnRef) and expr.column in aliases and (
            expr.table is None or expr.table not in own)
        order.append((None if by_alias else _expr(expr, scope),
                      expr.column if by_alias else "", term.descending))

    def order_key(entry):
        row, env = entry
        # NULLs sort first ascending / last descending (stable rule).
        return [_NullKey(row[name] if fn is None else fn(env), descending)
                for fn, name, descending in order]

    def project(envs):
        if window_key is not None:
            envs = sorted(envs, key=window_key)
        rows = []
        for position, env in enumerate(envs, start=1):
            env[_ROWNUM] = position
            rows.append(({alias: fn(env) for alias, fn in items}, env))
        return rows

    def aggregate(envs, outer_env):
        if group_by:
            groups: dict[tuple, list] = {}
            for env in envs:
                groups.setdefault(tuple(key(env) for key in group_by), []).append(env)
            partitions = list(groups.values())
        else:
            partitions = [envs]
        rows = []
        for group in partitions:
            representative = list(group[0]) if group else outer_env + no_rows
            representative[_GROUP] = group
            if having is not None and not _truth(having(representative)):
                continue
            rows.append(({alias: fn(representative) for alias, fn in items}, representative))
        if window_key is not None:
            rows.sort(key=lambda entry: window_key(entry[1]))
            for position, (row, _env) in enumerate(rows, start=1):
                row[window_alias] = position
        return rows

    def run(outer_env: list) -> list[dict]:
        envs = [list(outer_env)]  # project() numbers environments in place
        for extend in sources:
            envs = extend(envs)
        if where is not None:
            envs = [env for env in envs if _truth(where(env))]
        rows = aggregate(envs, outer_env) if grouped else project(envs)
        if stmt.distinct:
            unique: dict[tuple, tuple] = {}
            for entry in rows:
                unique.setdefault(tuple(entry[0].values()), entry)
            rows = list(unique.values())
        if order:
            rows.sort(key=order_key)
        result = [row for row, _env in rows]
        if stmt.fetch is not None:
            offset, count = stmt.fetch
            lo = max(0, offset - 1)
            result = result[lo:] if count is None else result[lo : max(lo, offset - 1 + count)]
        return result

    return run


# -- FROM ---------------------------------------------------------------------


def _from_item(item: FromItem, scope: _Scope, scans: list[_Scan]) -> Callable:
    """Compile a FROM item into ``extend(envs) -> envs``: every environment
    extended by every combination of rows the item binds, in order."""
    if isinstance(item, TableRef):
        table = scope.lookup(item.name)
        scan = _Scan(table, scope.add(item.alias, table.column_names()))
        scans.append(scan)
        return lambda envs: [env + [row] for env in envs for row in scan.rows(env)]
    if isinstance(item, SubqueryRef):
        subquery = _select(item.subquery, scope)
        scope.add(item.alias, _output_aliases(item.subquery.items))
        return lambda envs: [env + [row] for env in envs for row in subquery(env)]
    if isinstance(item, Join):
        return _join(item, scope, scans)
    raise SQLError(f"cannot evaluate FROM item {type(item).__name__}")


def _join(join: Join, scope: _Scope, scans: list[_Scan]) -> Callable:
    """Left-order-preserving join: for each left binding, all matching
    right bindings are emitted contiguously, in right order.  This is what
    keeps pushed outer joins clustered on the outer key.  When a conjunct
    of the condition equates a left column with a right column, the right
    input is hashed on it once and only the bucket of the left row's key
    is tested against the condition; otherwise every pair is."""
    left = _from_item(join.left, scope, scans)
    split = scope.width
    right = _from_item(join.right, scope, scans)
    null_right = scope.null_rows(split)
    left_outer = join.kind == "left"

    # without an equality to hash on, every right row lands in one bucket
    left_key = right_key = lambda env: True
    for conjunct in _conjuncts(join.condition):
        if isinstance(conjunct, BinOp) and conjunct.op == "=" \
                and isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, ColumnRef):
            sides = sorted((conjunct.left, conjunct.right), key=scope.slot)
            if scope.slot(sides[0]) < split <= scope.slot(sides[1]):
                left_key, right_key = _expr(sides[0], scope), _expr(sides[1], scope)
                break
    condition = _expr(join.condition, scope) if join.condition is not None else None

    def extend(envs):
        out = []
        for env in envs:
            buckets: dict = {}
            # the right input sees the left slots empty: it cannot refer to them
            for right_env in right([env + [None] * (split - len(env))]):
                key = right_key(right_env)
                if key is not None:
                    buckets.setdefault(key, []).append(right_env[split:])
            for left_env in left([env]):
                key = left_key(left_env)
                matched = False
                for tail in buckets.get(key, ()) if key is not None else ():
                    merged = left_env + tail
                    if condition is None or _truth(condition(merged)):
                        matched = True
                        out.append(merged)
                if left_outer and not matched:
                    out.append(left_env + null_right)
        return out

    return extend


# -- DML ------------------------------------------------------------------------


def _insert(stmt: Insert, lookup: Callable) -> Callable:
    table = lookup(stmt.table)
    if len(stmt.columns) != len(stmt.values):
        raise SQLError("INSERT: column/value count mismatch")
    scope = _Scope(None, lookup)
    values = [(column, _expr(expr, scope)) for column, expr in zip(stmt.columns, stmt.values)]

    def run(env: list) -> int:
        table.insert({column: fn(env) for column, fn in values})
        return 1

    return run


def _update_or_delete(stmt: Update | Delete, lookup: Callable) -> Callable:
    table = lookup(stmt.table)
    scope = _Scope(None, lookup)
    scan = _Scan(table, scope.add(stmt.table, table.column_names()))
    scan.choose(stmt.where, scope)
    where = _expr(stmt.where, scope) if stmt.where is not None else None
    assignments = [(column, _expr(expr, scope)) for column, expr in stmt.assignments] \
        if isinstance(stmt, Update) else None

    def run(env: list) -> int:
        hits = [(position, env + [row]) for position, row in scan.pairs(env)]
        if where is not None:
            hits = [hit for hit in hits if _truth(where(hit[1]))]
        if assignments is not None:
            for position, row_env in hits:
                table.update_at(position, {column: fn(row_env) for column, fn in assignments})
        elif hits:
            doomed = {position for position, _row_env in hits}
            table.restore([row for position, row in enumerate(table.rows)
                           if position not in doomed])
        return len(hits)

    return run


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _expr(node: SqlExpr, scope: _Scope) -> Compiled:
    compiler = _COMPILERS.get(type(node))
    if compiler is None:
        raise SQLError(f"cannot evaluate {type(node).__name__}")
    return compiler(node, scope)


def _literal(node: SqlLiteral, scope: _Scope) -> Compiled:
    value = node.value
    return lambda env: value


def _param(node: Param, scope: _Scope) -> Compiled:
    index = node.index

    def param(env):
        try:
            return env[_PARAMS][index]
        except IndexError:
            raise SQLError(f"missing parameter {index + 1}") from None

    return param


def _column(node: ColumnRef, scope: _Scope) -> Compiled:
    slot, column = scope.slot(node), node.column
    return lambda env: env[slot][column]


def _binary(node: BinOp, scope: _Scope) -> Compiled:
    left, right = _expr(node.left, scope), _expr(node.right, scope)
    if node.op in ("AND", "OR"):
        # Kleene: the deciding value (False for AND, True for OR) on either
        # side wins over unknown; short of that, unknown wins.
        deciding = node.op == "OR"

        def connective(env):
            a = left(env)
            if a is not None and _truth(a) is deciding:
                return deciding
            b = right(env)
            if b is not None and _truth(b) is deciding:
                return deciding
            return None if a is None or b is None else not deciding

        return connective
    apply = _BINARY.get(node.op)
    if apply is None:
        raise SQLError(f"unknown operator {node.op}")

    def strict(env):
        a, b = left(env), right(env)
        return None if a is None or b is None else apply(a, b)

    return strict


def _not(node: NotExpr, scope: _Scope) -> Compiled:
    operand = _expr(node.operand, scope)

    def negate(env):
        value = operand(env)
        return None if value is None else not _truth(value)

    return negate


def _is_null(node: IsNull, scope: _Scope) -> Compiled:
    operand, negated = _expr(node.operand, scope), node.negated
    return lambda env: (operand(env) is None) is not negated


def _in_list(node: InList, scope: _Scope) -> Compiled:
    operand, negated = _expr(node.operand, scope), node.negated
    candidates = [_expr(value, scope) for value in node.values]

    def member(env):
        value = operand(env)
        if value is None:
            return None
        unknown = False
        for candidate in candidates:
            other = candidate(env)
            if other is None:
                unknown = True  # value = NULL is unknown, not false
            elif other == value:
                return not negated
        return None if unknown else negated

    return member


def _function(node: FuncCall, scope: _Scope) -> Compiled:
    name = node.name.upper()
    args = [_expr(arg, scope) for arg in node.args]
    if name in ("COALESCE", "NVL"):
        return lambda env: next((v for arg in args if (v := arg(env)) is not None), None)
    apply = _FUNCTIONS.get(name)
    if apply is None:
        raise SQLError(f"unknown SQL function {node.name}")

    def call(env):
        values = [arg(env) for arg in args]
        return None if None in values else apply(*values)

    return call


def _aggregate_call(node: AggCall, scope: _Scope) -> Compiled:
    name, distinct = node.name, node.distinct
    fold = _AGGREGATES.get(name)
    if fold is None or (node.arg is None and name != "COUNT"):
        raise SQLError(f"unknown aggregate {name}")
    arg = _expr(node.arg, scope) if node.arg is not None else None

    def call(env):
        group = env[_GROUP]
        if group is None:
            raise SQLError(f"aggregate {name} outside grouping context")
        if arg is None:
            return len(group)  # COUNT(*)
        values = [v for member in group if (v := arg(member)) is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        return fold(values) if values or name == "COUNT" else None

    return call


def _case(node: CaseExpr, scope: _Scope) -> Compiled:
    whens = [(_expr(condition, scope), _expr(value, scope)) for condition, value in node.whens]
    otherwise = _expr(node.else_value, scope) if node.else_value is not None else None

    def case(env):
        for condition, value in whens:
            if _truth(condition(env)):
                return value(env)
        return otherwise(env) if otherwise is not None else None

    return case


def _exists(node: ExistsExpr, scope: _Scope) -> Compiled:
    subquery, negated = _select(node.subquery, scope), node.negated
    return lambda env: bool(subquery(env)) is not negated


def _scalar_subquery(node: ScalarSubquery, scope: _Scope) -> Compiled:
    subquery = _select(node.subquery, scope)

    def scalar(env):
        rows = subquery(env)
        if len(rows) > 1:
            raise SQLError("scalar subquery returned more than one row")
        return next(iter(rows[0].values())) if rows else None

    return scalar


def _rownum(node: RowNumExpr | RowNumberOver, scope: _Scope) -> Compiled:
    # ROW_NUMBER() may be read early: a grouped select numbers its rows only
    # after ordering them, and overwrites the NULL it got here
    must_be_set = isinstance(node, RowNumExpr)

    def rownum(env):
        if must_be_set and env[_ROWNUM] is None:
            raise SQLError("ROWNUM used outside a SELECT list")
        return env[_ROWNUM]

    return rownum


_COMPILERS: dict[type, Callable[..., Compiled]] = {
    SqlLiteral: _literal,
    Param: _param,
    ColumnRef: _column,
    BinOp: _binary,
    NotExpr: _not,
    IsNull: _is_null,
    InList: _in_list,
    FuncCall: _function,
    AggCall: _aggregate_call,
    CaseExpr: _case,
    ExistsExpr: _exists,
    ScalarSubquery: _scalar_subquery,
    RowNumExpr: _rownum,
    RowNumberOver: _rownum,
}


def _truth(value) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SQLError(f"non-boolean WHERE value {value!r}")


def _ordered(compare: Callable) -> Callable:
    def checked(left, right):
        if isinstance(left, str) != isinstance(right, str):
            raise SQLError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
        return compare(left, right)

    return checked


def _arithmetic(apply: Callable, symbol: str) -> Callable:
    """An arithmetic operator that raises :class:`SQLError`, as a
    database would, on a string operand; ``+`` of two strings is SQL
    Server's concatenation."""
    def checked(left, right):
        if isinstance(left, str) or isinstance(right, str):
            if symbol == "+" and isinstance(left, str) and isinstance(right, str):
                return left + right
            raise SQLError(f"cannot apply {symbol} to "
                           f"{type(left).__name__} and {type(right).__name__}")
        return apply(left, right)

    return checked


def _divide(left, right):
    if right == 0:
        raise SQLError("division by zero")
    return left / right


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    """One regex per distinct LIKE pattern; ``%`` also matches a newline."""
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."), re.DOTALL)


def _substr(text, start, length=None):
    lo = max(0, int(start) - 1)
    return str(text)[lo:] if length is None else str(text)[lo : lo + int(length)]


#: operators on two non-NULL values (NULL in, NULL out is the caller's rule)
_BINARY: dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": _ordered(operator.lt),
    "<=": _ordered(operator.le),
    ">": _ordered(operator.gt),
    ">=": _ordered(operator.ge),
    "+": _arithmetic(operator.add, "+"),
    "-": _arithmetic(operator.sub, "-"),
    "*": _arithmetic(operator.mul, "*"),
    "/": _arithmetic(_divide, "/"),
    "%": _arithmetic(operator.mod, "%"),
    "||": lambda left, right: str(left) + str(right),
    "LIKE": lambda text, pattern: _like_regex(str(pattern)).fullmatch(str(text)) is not None,
}

#: scalar functions on non-NULL arguments
_FUNCTIONS: dict[str, Callable] = {
    "UPPER": lambda text: str(text).upper(),
    "LOWER": lambda text: str(text).lower(),
    "LENGTH": lambda text: len(str(text)),
    "LEN": lambda text: len(str(text)),
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "ABS": abs,
    "CEIL": math.ceil,
    "CEILING": math.ceil,
    "FLOOR": math.floor,
    "ROUND": lambda number: math.floor(number + 0.5),
    "CONCAT": lambda *parts: "".join(str(part) for part in parts),
}

#: aggregates over the non-NULL values of a group (empty -> NULL, COUNT -> 0)
_AGGREGATES: dict[str, Callable] = {
    "COUNT": len,
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _output_aliases(items: list[SelectItem]) -> list[str]:
    aliases = []
    for i, item in enumerate(items):
        if item.alias:
            aliases.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            aliases.append(item.expr.column)
        else:
            aliases.append(f"c{i + 1}")
    return aliases


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, AggCall):
        return True
    if isinstance(expr, (ScalarSubquery, ExistsExpr)):
        return False  # aggregates inside subqueries belong to the subquery
    if hasattr(expr, "__dataclass_fields__"):
        for name in expr.__dataclass_fields__:
            value = getattr(expr, name)
            if isinstance(value, (list, tuple)):
                if any(_contains_aggregate(v) for v in value):
                    return True
            elif _contains_aggregate(value):
                return True
    return False


class _NullKey:
    """Sort key wrapper implementing NULLS FIRST (asc) and reversal."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_NullKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other) -> bool:
        return isinstance(other, _NullKey) and self.value == other.value
