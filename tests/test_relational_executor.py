"""SQL parser + executor tests over the simulated engine."""

import random

import pytest

from repro.errors import SQLError
from repro.relational import Database, Executor, parse_sql
from repro.sql.ast_nodes import Select


@pytest.fixture
def db():
    db = Database("test")
    db.create_table(
        "CUSTOMER",
        [("CID", "VARCHAR", False), ("FIRST_NAME", "VARCHAR"),
         ("LAST_NAME", "VARCHAR"), ("SINCE", "INTEGER")],
        primary_key=["CID"],
    )
    db.create_table(
        "ORDERS",
        [("OID", "VARCHAR", False), ("CID", "VARCHAR"), ("AMOUNT", "INTEGER")],
        primary_key=["OID"],
    )
    db.load("CUSTOMER", [
        {"CID": "C1", "FIRST_NAME": "Al", "LAST_NAME": "Jones", "SINCE": 100},
        {"CID": "C2", "FIRST_NAME": "Bo", "LAST_NAME": "Smith", "SINCE": 200},
        {"CID": "C3", "FIRST_NAME": "Cy", "LAST_NAME": "Jones", "SINCE": None},
    ])
    db.load("ORDERS", [
        {"OID": "O1", "CID": "C1", "AMOUNT": 10},
        {"OID": "O2", "CID": "C1", "AMOUNT": 20},
        {"OID": "O3", "CID": "C3", "AMOUNT": 30},
    ])
    return db


def run(db, sql, params=None):
    return Executor(db, params).execute(parse_sql(sql))


class TestSelect:
    def test_projection_and_where(self, db):
        rows = run(db, 'SELECT t1."FIRST_NAME" AS n FROM "CUSTOMER" t1 WHERE t1."CID" = \'C2\'')
        assert rows == [{"n": "Bo"}]

    def test_parameters(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE t1."SINCE" > ?', [150])
        assert rows == [{"c": "C2"}]

    def test_inner_join_preserves_left_order(self, db):
        rows = run(db, 'SELECT t1."CID" AS c, t2."OID" AS o FROM "CUSTOMER" t1 '
                       'JOIN "ORDERS" t2 ON t1."CID" = t2."CID"')
        assert [r["o"] for r in rows] == ["O1", "O2", "O3"]

    def test_left_outer_join_null_extends(self, db):
        rows = run(db, 'SELECT t1."CID" AS c, t2."OID" AS o FROM "CUSTOMER" t1 '
                       'LEFT OUTER JOIN "ORDERS" t2 ON t1."CID" = t2."CID"')
        assert {r["c"]: r["o"] for r in rows if r["c"] == "C2"} == {"C2": None}
        assert len(rows) == 4

    def test_group_by_count(self, db):
        rows = run(db, 'SELECT t1."LAST_NAME" AS l, COUNT(*) AS n FROM "CUSTOMER" t1 '
                       'GROUP BY t1."LAST_NAME"')
        assert {r["l"]: r["n"] for r in rows} == {"Jones": 2, "Smith": 1}

    def test_count_column_skips_nulls(self, db):
        rows = run(db, 'SELECT COUNT(t1."SINCE") AS n FROM "CUSTOMER" t1')
        assert rows == [{"n": 2}]

    def test_aggregates(self, db):
        rows = run(db, 'SELECT SUM(t1."AMOUNT") AS s, AVG(t1."AMOUNT") AS a, '
                       'MIN(t1."AMOUNT") AS lo, MAX(t1."AMOUNT") AS hi FROM "ORDERS" t1')
        assert rows == [{"s": 60, "a": 20, "lo": 10, "hi": 30}]

    def test_having(self, db):
        rows = run(db, 'SELECT t1."LAST_NAME" AS l, COUNT(*) AS n FROM "CUSTOMER" t1 '
                       'GROUP BY t1."LAST_NAME" HAVING COUNT(*) > 1')
        assert rows == [{"l": "Jones", "n": 2}]

    def test_distinct(self, db):
        rows = run(db, 'SELECT DISTINCT t1."LAST_NAME" AS l FROM "CUSTOMER" t1')
        assert sorted(r["l"] for r in rows) == ["Jones", "Smith"]

    def test_order_by_desc(self, db):
        rows = run(db, 'SELECT t1."OID" AS o FROM "ORDERS" t1 ORDER BY t1."AMOUNT" DESC')
        assert [r["o"] for r in rows] == ["O3", "O2", "O1"]

    def test_order_by_nulls_first_ascending(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 ORDER BY t1."SINCE"')
        assert rows[0]["c"] == "C3"

    def test_case_expression(self, db):
        rows = run(db, 'SELECT CASE WHEN t1."SINCE" > 150 THEN \'new\' ELSE \'old\' END AS k '
                       'FROM "CUSTOMER" t1 WHERE t1."CID" = \'C2\'')
        assert rows == [{"k": "new"}]

    def test_exists_correlated_subquery(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE EXISTS('
                       'SELECT 1 FROM "ORDERS" t2 WHERE t1."CID" = t2."CID")')
        assert [r["c"] for r in rows] == ["C1", "C3"]

    def test_not_exists(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE NOT EXISTS('
                       'SELECT 1 FROM "ORDERS" t2 WHERE t1."CID" = t2."CID")')
        assert [r["c"] for r in rows] == ["C2"]

    def test_scalar_subquery(self, db):
        rows = run(db, 'SELECT t1."CID" AS c, (SELECT SUM(t2."AMOUNT") FROM "ORDERS" t2 '
                       'WHERE t2."CID" = t1."CID") AS total FROM "CUSTOMER" t1')
        assert {r["c"]: r["total"] for r in rows} == {"C1": 30, "C2": None, "C3": 30}

    def test_in_list(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 '
                       "WHERE t1.\"CID\" IN ('C1', 'C3')")
        assert [r["c"] for r in rows] == ["C1", "C3"]

    def test_like(self, db):
        rows = run(db, 'SELECT t1."LAST_NAME" AS l FROM "CUSTOMER" t1 '
                       "WHERE t1.\"LAST_NAME\" LIKE 'Jo%'")
        assert len(rows) == 2

    def test_in_list_with_a_null_candidate_is_unknown(self, db):
        # SINCE is 100, 200, NULL.  x NOT IN (.., NULL) is never true;
        # x IN (.., NULL) is true on a match and unknown -- not false -- otherwise
        select = 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE '
        assert run(db, select + 't1."SINCE" NOT IN (100, NULL)') == []
        assert run(db, select + 'NOT (t1."SINCE" IN (100, NULL))') == []
        assert run(db, select + 't1."SINCE" IN (100, NULL)') == [{"c": "C1"}]
        assert [r["c"] for r in run(db, select + 't1."SINCE" NOT IN (100)')] == ["C2"]

    def test_like_percent_matches_a_newline(self, db):
        run(db, 'UPDATE "CUSTOMER" SET "LAST_NAME" = ? WHERE "CID" = ?', ["Jo\nnes", "C1"])
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 '
                       "WHERE t1.\"LAST_NAME\" LIKE 'Jo%s'")
        assert [r["c"] for r in rows] == ["C1", "C3"]

    def test_is_null(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE t1."SINCE" IS NULL')
        assert rows == [{"c": "C3"}]
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE t1."SINCE" IS NOT NULL')
        assert len(rows) == 2

    def test_between(self, db):
        rows = run(db, 'SELECT t1."OID" AS o FROM "ORDERS" t1 '
                       'WHERE t1."AMOUNT" BETWEEN 15 AND 25')
        assert rows == [{"o": "O2"}]

    def test_null_comparison_is_unknown(self, db):
        rows = run(db, 'SELECT t1."CID" AS c FROM "CUSTOMER" t1 WHERE t1."SINCE" > 0')
        assert [r["c"] for r in rows] == ["C1", "C2"]  # C3's NULL drops out

    def test_subquery_in_from(self, db):
        rows = run(db, 'SELECT sub.c AS c FROM (SELECT t1."CID" AS c FROM "CUSTOMER" t1 '
                       "WHERE t1.\"LAST_NAME\" = 'Jones') sub WHERE sub.c = 'C1'")
        assert rows == [{"c": "C1"}]

    def test_rownum_pagination_pattern(self, db):
        sql = ('SELECT t4.c1 AS c1 FROM (SELECT ROWNUM AS c2, t3.c1 AS c1 FROM '
               '(SELECT t1."OID" AS c1 FROM "ORDERS" t1 ORDER BY t1."AMOUNT" DESC) t3) t4 '
               'WHERE (t4.c2 >= 2) AND (t4.c2 < 4)')
        rows = run(db, sql)
        assert [r["c1"] for r in rows] == ["O2", "O1"]

    def test_row_number_over(self, db):
        sql = ('SELECT t4.c1 AS c1 FROM (SELECT t1."OID" AS c1, '
               'ROW_NUMBER() OVER (ORDER BY t1."AMOUNT" DESC) AS rn FROM "ORDERS" t1) t4 '
               'WHERE t4.rn >= 2 ORDER BY t4.rn')
        rows = run(db, sql)
        assert [r["c1"] for r in rows] == ["O2", "O1"]

    def test_string_concat_operator(self, db):
        rows = run(db, 'SELECT t1."FIRST_NAME" || \' \' || t1."LAST_NAME" AS n '
                       'FROM "CUSTOMER" t1 WHERE t1."CID" = \'C1\'')
        assert rows == [{"n": "Al Jones"}]

    def test_functions(self, db):
        rows = run(db, 'SELECT UPPER(t1."LAST_NAME") AS u, LENGTH(t1."CID") AS n, '
                       'SUBSTR(t1."FIRST_NAME", 1, 1) AS i FROM "CUSTOMER" t1 '
                       "WHERE t1.\"CID\" = 'C1'")
        assert rows == [{"u": "JONES", "n": 2, "i": "A"}]

    def test_arithmetic(self, db):
        rows = run(db, 'SELECT t1."AMOUNT" * 2 + 1 AS x FROM "ORDERS" t1 '
                       "WHERE t1.\"OID\" = 'O1'")
        assert rows == [{"x": 21}]


class TestDML:
    def test_insert(self, db):
        count = run(db, 'INSERT INTO "CUSTOMER" ("CID", "LAST_NAME") VALUES (?, ?)',
                    ["C9", "New"])
        assert count == 1
        assert db.table("CUSTOMER").lookup_pk(("C9",))["LAST_NAME"] == "New"

    def test_update_with_where(self, db):
        count = run(db, 'UPDATE "CUSTOMER" SET "LAST_NAME" = \'X\' '
                        "WHERE \"LAST_NAME\" = 'Jones'")
        assert count == 2

    def test_update_no_match_returns_zero(self, db):
        assert run(db, 'UPDATE "CUSTOMER" SET "LAST_NAME" = \'X\' WHERE "CID" = \'NOPE\'') == 0

    def test_delete(self, db):
        assert run(db, 'DELETE FROM "ORDERS" WHERE "CID" = \'C1\'') == 2
        assert len(db.table("ORDERS")) == 1


class TestErrors:
    def test_unknown_column(self, db):
        with pytest.raises(SQLError):
            run(db, 'SELECT t1."NOPE" AS x FROM "CUSTOMER" t1')

    def test_division_by_zero(self, db):
        with pytest.raises(SQLError):
            run(db, 'SELECT t1."AMOUNT" / 0 AS x FROM "ORDERS" t1')

    @pytest.mark.parametrize("expr", ['t1."OID" + 1', '0 - t1."OID"', 't1."OID" * 2',
                                      't1."OID" / 2', 't1."OID" % 2',
                                      't1."OID" + t1."AMOUNT"'])
    def test_arithmetic_on_a_string_raises_sql_error(self, db, expr):
        # a database error, not Python's TypeError (or, for '*' and '%',
        # Python's string repetition and formatting)
        with pytest.raises(SQLError, match="cannot apply"):
            run(db, f'SELECT {expr} AS x FROM "ORDERS" t1')

    def test_plus_of_two_strings_concatenates(self, db):
        # SQL Server's string '+'
        rows = run(db, 'SELECT t1."OID" + t1."CID" AS x FROM "ORDERS" t1 '
                       "WHERE t1.\"OID\" = 'O1'")
        assert rows == [{"x": "O1C1"}]

    def test_bad_syntax(self, db):
        with pytest.raises(SQLError):
            parse_sql("SELECT FROM WHERE")

    def test_trailing_tokens(self, db):
        with pytest.raises(SQLError):
            parse_sql('SELECT 1 AS x FROM "CUSTOMER" t1 GARBAGE ( ;')

    def test_scalar_subquery_multi_row_rejected(self, db):
        with pytest.raises(SQLError):
            run(db, 'SELECT (SELECT t2."OID" FROM "ORDERS" t2) AS o FROM "CUSTOMER" t1')


def test_parse_sql_returns_shared_ast(db):
    stmt = parse_sql('SELECT t1."CID" AS c FROM "CUSTOMER" t1')
    assert isinstance(stmt, Select)
    assert stmt.items[0].alias == "c"


# ---------------------------------------------------------------------------
# The ordered access path: a ranged statement against the same statement
# with every bound wrapped so that _Scan cannot take it for one
# ---------------------------------------------------------------------------


def ranged_db(seed: int, rows: int = 60) -> Database:
    """NULLs, duplicates, an integer, a float and a string column."""
    rng = random.Random(f"ranged:{seed}")
    db = Database("ranged")
    db.create_table("T", [("ID", "INTEGER", False), ("N", "INTEGER"),
                          ("F", "FLOAT"), ("S", "VARCHAR")], primary_key=["ID"])
    db.load("T", [{
        "ID": i,
        "N": None if rng.random() < 0.15 else rng.randrange(12),
        "F": None if rng.random() < 0.15 else rng.choice([0.5, 1, 2.25, 3, 7.5]),
        "S": None if rng.random() < 0.15 else rng.choice("abcdefg") * rng.randrange(1, 3),
    } for i in range(rows)])
    return db


def where(conjuncts: list[str], wrapped: bool) -> str:
    """``x OR 1 = 0`` is ``x`` under three-valued logic, raises what ``x``
    raises, and is not a bound as far as the access-path chooser can see."""
    return " AND ".join(f"({c} OR 1 = 0)" if wrapped else c for c in conjuncts)


def both_ways(seed, statement, conjuncts, params, ranged=True):
    """Run ``statement`` (a template with ``{where}``) against two equal
    databases, ordered index available / bypassed (``ranged`` says whether
    the plain form should take it at all); returns both outcomes as (result
    or error text, final rows of T)."""
    outcomes = []
    for wrapped in (False, True):
        db = ranged_db(seed)
        table, probes = db.table("T"), []
        probe_range = table.probe_range
        table.probe_range = lambda *args: probes.append(args) or probe_range(*args)
        try:
            result = run(db, statement.format(where=where(conjuncts, wrapped)), params)
        except SQLError as exc:
            result = f"SQLError: {exc}"
        assert bool(probes) is (not wrapped and ranged)
        outcomes.append((result, table.snapshot()))
    return outcomes


#: value sets per column: present, absent, duplicated in the data, out of range
BOUNDS = {
    "N": [-1, 0, 3, 3, 7, 11, 12],
    "F": [0, 0.5, 1.5, 3, 3.0, 7.5, 9],
    "S": ["", "a", "bb", "c", "cc", "g", "zz"],
}
SELECT_IDS = 'SELECT t1."ID" AS id FROM "T" t1 WHERE {where}'


class TestOrderedAccessPath:
    @pytest.mark.parametrize("column", sorted(BOUNDS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_select_every_mix_of_bounds(self, seed, column):
        rng = random.Random(f"{seed}:{column}")
        ref = f't1."{column}"'
        cases = 0
        for lower in (None, ">", ">="):
            for upper in (None, "<", "<="):
                if lower is None and upper is None:
                    continue
                for _ in range(6):
                    lo, hi = rng.choice(BOUNDS[column]), rng.choice(BOUNDS[column])
                    conjuncts, params = [], []
                    if lower:
                        conjuncts.append(f"{ref} {lower} ?")
                        params.append(lo)
                    if upper:
                        # written from the other side: ? > col is col < ?
                        mirrored = {"<": ">", "<=": ">="}[upper]
                        conjuncts.append(f"? {mirrored} {ref}" if rng.random() < 0.5
                                         else f"{ref} {upper} ?")
                        params.append(hi)
                    (fast, _), (slow, _) = both_ways(seed, SELECT_IDS, conjuncts, params)
                    assert fast == slow, (conjuncts, params)
                    ids = [row["id"] for row in fast]
                    assert ids == sorted(ids)  # unordered results keep table order
                    cases += bool(ids)
        assert cases > 10  # the bounds are not all empty ranges

    def test_bounds_against_the_data_by_hand(self):
        db = ranged_db(1)
        rows = db.table("T").rows
        got = run(db, 'SELECT t1."ID" AS id FROM "T" t1 WHERE t1."N" >= ? AND t1."N" < ?', [3, 7])
        assert [r["id"] for r in got] == [
            r["ID"] for r in rows if r["N"] is not None and 3 <= r["N"] < 7]
        got = run(db, 'SELECT t1."ID" AS id FROM "T" t1 WHERE ? < t1."S"', ["c"])
        assert [r["id"] for r in got] == [
            r["ID"] for r in rows if r["S"] is not None and r["S"] > "c"]

    @pytest.mark.parametrize("conjuncts, params", [
        (['t1."N" >= ?', 't1."N" < ?'], [7, 3]),             # empty: lo > hi
        (['t1."N" > ?', 't1."N" < ?'], [3, 3]),              # empty: open at both ends
        (['t1."N" >= ?', 't1."N" <= ?'], [3, 3]),            # one value, held by many rows
        (['t1."N" >= ?', 't1."N" < ?'], [None, 5]),          # NULL bound: nothing
        (['t1."N" >= ?', 't1."N" < ?'], [2, None]),
        (['t1."N" >= ?', 't1."N" >= ?', 't1."N" < ?'], [2, 5, 9]),   # the tighter one wins
        (['t1."N" < ?', 't1."N" <= ?', 't1."N" > ?'], [9, 4, 0]),
        (['t1."N" >= 2', 't1."S" >= \'b\'', 't1."N" < 9'], []),      # two ranged columns
        (['t1."F" > ?', 't1."F" <= ?'], [1, 3]),             # int bounds on a float column
        (['t1."N" > ?'], [2.5]),                             # float bound on an int column
    ])
    def test_select_corner_bounds(self, conjuncts, params):
        for seed in (1, 2):
            (fast, _), (slow, _) = both_ways(seed, SELECT_IDS, conjuncts, params)
            assert fast == slow and not isinstance(fast, str)

    @pytest.mark.parametrize("conjuncts, params", [
        (['t1."N" >= ?'], ["x"]),
        (['? <= t1."N"'], ["x"]),
        (['t1."N" >= ?', 't1."N" < ?'], [2, "x"]),
        (['t1."N" < ?', 't1."N" >= ?'], [None, "x"]),  # unknown AND <error> still raises
        (['t1."S" < ?'], [5]),
    ])
    def test_a_bound_of_the_wrong_type_raises_both_ways(self, conjuncts, params):
        (fast, _), (slow, _) = both_ways(1, SELECT_IDS, conjuncts, params)
        assert fast == slow
        assert fast.startswith("SQLError: cannot compare")

    def test_an_equality_pin_is_preferred_to_a_range(self):
        conjuncts = ['t1."N" >= 0', 't1."N" < 12', 't1."S" = \'a\'']
        (fast, _), (slow, _) = both_ways(1, SELECT_IDS, conjuncts, [], ranged=False)
        assert fast == slow and fast

    def test_an_error_the_scan_never_reaches_is_not_raised_by_the_index_either(self):
        # no row passes N >= 99, so N < 'x' is evaluated for none
        conjuncts, params = ['t1."N" >= ?', 't1."N" < ?'], [99, "x"]
        (fast, _), (slow, _) = both_ways(1, SELECT_IDS, conjuncts, params)
        assert fast == slow == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_update_and_delete_targets(self, seed):
        update = 'UPDATE "T" SET "N" = "N" + 100, "S" = \'hit\' WHERE {where}'
        delete = 'DELETE FROM "T" WHERE {where}'
        for statement in (update, delete):
            for conjuncts, params in [
                (['"N" >= ?', '"N" < ?'], [3, 8]),
                (['? < "F"'], [1]),
                (['"S" > ?', '"S" <= ?'], ["b", "e"]),
                (['"N" > ?'], [None]),
                (['"N" >= ?', '"N" < ?'], [8, 3]),
            ]:
                fast, slow = both_ways(seed, statement, conjuncts, params)
                assert fast == slow, (statement, conjuncts, params)
        (count, _), _ = both_ways(seed, delete, ['"N" >= ?', '"N" < ?'], [3, 8])
        assert count > 0

    def test_correlated_range_in_a_subquery(self):
        # the bound is a column of the enclosing query: fixed per outer row
        sql = ('SELECT t1."ID" AS id FROM "T" t1 WHERE EXISTS ('
               'SELECT 1 AS one FROM "T" t2 WHERE {where})')
        conjuncts = ['t2."N" > t1."N"', 't2."ID" < t1."ID"']
        for seed in (1, 2):
            (fast, _), (slow, _) = both_ways(seed, sql, conjuncts, [])
            assert fast == slow and fast

    def test_an_untyped_column_is_never_ranged(self):
        db = Database("loose")
        db.create_table("T", [("ID", "INTEGER", False), ("X", "ANYTHING")], primary_key=["ID"])
        db.load("T", [{"ID": 0, "X": 1}, {"ID": 1, "X": "one"}])  # no check, no common order
        with pytest.raises(SQLError, match="cannot compare"):
            run(db, 'SELECT t1."ID" AS id FROM "T" t1 WHERE t1."X" >= 0')
        assert not db.table("T")._ordered
