"""Property tests: the SQL executor against a plain-Python reference model,
over randomized rows with NULLs and duplicate keys.

The reference walks the expression tree per row with Kleene's three-valued
rules and joins by nested loops; the engine compiles the statement, probes
hash indexes and hashes equi-joins.  Rows *and their order* must agree.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.relational import Database, Executor
from repro.sql import (
    BinOp,
    CaseExpr,
    ColumnRef,
    InList,
    IsNull,
    Join,
    NotExpr,
    Param,
    Select,
    SelectItem,
    SqlLiteral,
    TableRef,
)

_VALUES = st.one_of(st.none(), st.integers(-3, 3))
_TEXTS = st.one_of(st.none(), st.text("ab\n", max_size=3))
_ROWS = st.lists(
    st.tuples(_VALUES, _VALUES, _TEXTS), min_size=0, max_size=8
).map(lambda rows: [{"ID": i, "A": a, "B": b, "S": s} for i, (a, b, s) in enumerate(rows)])
#: bound to the statement's four ``?``: NULLs are what pads a PP-k block
_PARAMS = st.lists(_VALUES, min_size=4, max_size=4)

_COLUMNS = [("ID", "INTEGER", False), ("A", "INTEGER"), ("B", "INTEGER"), ("S", "VARCHAR")]


def _column(alias):
    """ID is the primary key (unique, never NULL); A and B repeat and go NULL."""
    return st.sampled_from([ColumnRef(alias, "ID"), ColumnRef(alias, "A"), ColumnRef(alias, "B")])


def _constant():
    return st.one_of(
        st.integers(-3, 3).map(SqlLiteral),
        st.just(SqlLiteral(None)),
        st.integers(0, 3).map(Param),
    )


@st.composite
def keyed_exprs(draw, alias="t"):
    """The shapes an index probe serves: ``col = const``, an OR of those on
    one column (the PP-k block predicate), ``col IN (...)``."""
    column = draw(_column(alias))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        sides = [column, draw(_constant())]
        if draw(st.booleans()):
            sides.reverse()
        return BinOp("=", *sides)
    keys = draw(st.lists(_constant(), min_size=1, max_size=4))
    if kind == 1:
        expr = BinOp("=", column, keys[0])
        for key in keys[1:]:
            expr = BinOp("OR", expr, BinOp("=", column, key))
        return expr
    return InList(column, keys)


@st.composite
def where_exprs(draw, depth=2, alias="t"):
    operand = st.one_of(_column(alias), _constant())
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
            return BinOp(op, draw(operand), draw(operand))
        if kind == 1:
            return IsNull(draw(operand), draw(st.booleans()))
        if kind == 2:
            return InList(draw(operand), draw(st.lists(operand, min_size=1, max_size=3)),
                          draw(st.booleans()))
        if kind == 3:
            pattern = draw(st.text("ab%_\n", max_size=3))
            return BinOp("LIKE", ColumnRef(alias, "S"), SqlLiteral(pattern))
        if kind == 4:
            case = CaseExpr([(draw(where_exprs(depth=0, alias=alias)), draw(operand))],
                            draw(st.one_of(st.none(), operand)))
            return BinOp("=", case, draw(operand))
        return draw(keyed_exprs(alias))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return BinOp("AND", draw(where_exprs(depth=depth - 1, alias=alias)),
                     draw(where_exprs(depth=depth - 1, alias=alias)))
    if kind == 1:
        return BinOp("OR", draw(where_exprs(depth=depth - 1, alias=alias)),
                     draw(where_exprs(depth=depth - 1, alias=alias)))
    return NotExpr(draw(where_exprs(depth=depth - 1, alias=alias)))


@st.composite
def top_level_wheres(draw):
    """Half the time the WHERE is, or has as a conjunct, a probe shape."""
    general = draw(where_exprs())
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(keyed_exprs())
    if kind == 1:
        conjuncts = [draw(keyed_exprs()), general]
        if draw(st.booleans()):
            conjuncts.reverse()
        return BinOp("AND", *conjuncts)
    return general


def _like(text, pattern):
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern)
    return re.fullmatch(regex, text, re.DOTALL) is not None


def reference_eval(expr, env, params=()):
    """Kleene three-valued reference semantics: True/False/None.  ``env``
    maps a table alias to its row."""
    def ev(node):
        return reference_eval(node, env, params)

    if isinstance(expr, SqlLiteral):
        return expr.value
    if isinstance(expr, Param):
        return params[expr.index]
    if isinstance(expr, ColumnRef):
        return env[expr.table][expr.column]
    if isinstance(expr, IsNull):
        value = ev(expr.operand)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, NotExpr):
        inner = ev(expr.operand)
        return None if inner is None else not inner
    if isinstance(expr, InList):
        # x IN (a, b) is x = a OR x = b; NOT IN is its negation
        value = ev(expr.operand)
        results = [None if value is None or other is None else value == other
                   for other in map(ev, expr.values)]
        found = True if True in results else None if None in results else False
        return found if not expr.negated or found is None else not found
    if isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            if ev(condition) is True:
                return ev(value)
        return ev(expr.else_value) if expr.else_value is not None else None
    assert isinstance(expr, BinOp)
    left, right = ev(expr.left), ev(expr.right)
    if expr.op == "AND":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if expr.op == "OR":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if left is None or right is None:
        return None
    if expr.op == "LIKE":
        return _like(left, right)
    return {
        "=": left == right, "<>": left != right, "<": left < right,
        "<=": left <= right, ">": left > right, ">=": left >= right,
    }[expr.op]


def _database(**tables):
    db = Database("p")
    for name, rows in tables.items():
        db.create_table(name, _COLUMNS, primary_key=["ID"])
        db.load(name, rows)
    return db


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS, where=top_level_wheres(), params=_PARAMS)
def test_property_where_matches_kleene_reference(rows, where, params):
    db = _database(T=rows)
    stmt = Select(items=[SelectItem(ColumnRef("t", "ID"), "id")],
                  from_items=[TableRef("T", "t")], where=where)
    # SQL keeps a row iff the predicate is *true* (unknown drops it), and a
    # scan -- indexed or not -- returns rows in table order
    reference_ids = [
        row["ID"] for row in rows if reference_eval(where, {"t": row}, params) is True
    ]
    engine_ids = [row["id"] for row in Executor(db, params).execute(stmt)]
    assert engine_ids == reference_ids
    # again, now that the first run may have built an index
    assert [row["id"] for row in Executor(db, params).execute(stmt)] == reference_ids


@settings(max_examples=200, deadline=None)
@given(left_rows=_ROWS, right_rows=_ROWS, kind=st.sampled_from(["inner", "left"]),
       left_key=st.sampled_from(["ID", "A", "B"]), right_key=st.sampled_from(["ID", "A", "B"]),
       flipped=st.booleans(), residual=st.one_of(st.none(), where_exprs(depth=1, alias="r")),
       where=st.one_of(st.none(), keyed_exprs("r"), keyed_exprs("l")), params=_PARAMS)
def test_property_equi_join_matches_nested_loop_reference(
        left_rows, right_rows, kind, left_key, right_key, flipped, residual, where, params):
    db = _database(L=left_rows, R=right_rows)
    sides = [ColumnRef("l", left_key), ColumnRef("r", right_key)]
    if flipped:
        sides.reverse()
    condition = BinOp("=", *sides)
    if residual is not None:
        condition = BinOp("AND", condition, residual)
    stmt = Select(
        items=[SelectItem(ColumnRef("l", "ID"), "l"), SelectItem(ColumnRef("r", "ID"), "r")],
        from_items=[Join(kind, TableRef("L", "l"), TableRef("R", "r"), condition)],
        where=where)

    null_row = dict.fromkeys(["ID", "A", "B", "S"])
    expected = []
    for left in left_rows:  # left order, then right order
        matches = [right for right in right_rows
                   if reference_eval(condition, {"l": left, "r": right}, params) is True]
        if not matches and kind == "left":
            matches = [null_row]
        expected.extend(
            (left["ID"], right["ID"]) for right in matches
            if where is None or reference_eval(where, {"l": left, "r": right}, params) is True)
    rows = Executor(db, params).execute(stmt)
    assert [(row["l"], row["r"]) for row in rows] == expected
