"""SQL parser + executor tests over the simulated engine."""

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
