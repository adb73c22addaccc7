"""Simulated relational engine: tables, constraints, latency accounting."""

import pytest

from repro.clock import VirtualClock
from repro.errors import SourceError, SQLError
from repro.relational import Column, Connection, Database, ForeignKey, LatencyModel, Table


def make_table():
    return Table(
        "T",
        [Column("ID", "INTEGER", nullable=False), Column("NAME", "VARCHAR")],
        primary_key=["ID"],
    )


class TestTable:
    def test_insert_and_lookup(self):
        t = make_table()
        t.insert({"ID": 1, "NAME": "a"})
        assert t.lookup_pk((1,)) == {"ID": 1, "NAME": "a"}
        assert len(t) == 1

    def test_missing_column_defaults_to_null(self):
        t = make_table()
        t.insert({"ID": 1})
        assert t.rows[0]["NAME"] is None

    def test_not_null_enforced(self):
        t = make_table()
        with pytest.raises(SQLError):
            t.insert({"ID": None, "NAME": "a"})

    def test_type_checked(self):
        t = make_table()
        with pytest.raises(SQLError):
            t.insert({"ID": "not-an-int"})

    def test_duplicate_pk_rejected(self):
        t = make_table()
        t.insert({"ID": 1})
        with pytest.raises(SQLError):
            t.insert({"ID": 1})

    def test_unknown_column_rejected(self):
        t = make_table()
        with pytest.raises(SQLError):
            t.insert({"ID": 1, "NOPE": 2})

    def test_update_at_rechecks_pk(self):
        t = make_table()
        t.insert({"ID": 1})
        t.insert({"ID": 2})
        with pytest.raises(SQLError):
            t.update_at(1, {"ID": 1})
        t.update_at(1, {"NAME": "x"})
        assert t.rows[1]["NAME"] == "x"

    def test_snapshot_restore(self):
        t = make_table()
        t.insert({"ID": 1, "NAME": "a"})
        snap = t.snapshot()
        t.update_at(0, {"NAME": "b"})
        t.restore(snap)
        assert t.rows[0]["NAME"] == "a"
        assert t.lookup_pk((1,)) is not None

    def test_xs_type_mapping(self):
        assert Column("X", "INTEGER").xs_type == "xs:int"
        assert Column("X", "VARCHAR").xs_type == "xs:string"
        assert Column("X", "DOUBLE").xs_type == "xs:double"


class TestIndexFreshness:
    """A keyed read is served from Table's hash index through a cached,
    compiled statement; whatever wrote in between, the next read is right
    and in table order."""

    BY_V = 'SELECT t1."ID" AS c1 FROM "T" t1 WHERE t1."V" = ?'

    def setup_method(self):
        self.db = Database("d")
        self.create(["a", "b", "a", "b", "a"])
        self.conn = Connection(self.db)

    def create(self, values):
        self.db.create_table("T", [("ID", "INTEGER", False), ("V", "VARCHAR")],
                             primary_key=["ID"])
        self.db.load("T", [{"ID": i, "V": v} for i, v in enumerate(values)])

    def ids(self, value):
        return [row["c1"] for row in self.conn.execute_query(self.BY_V, [value])]

    def test_first_probe_builds_the_index(self):
        table = self.db.table("T")
        assert ("V",) not in table._indexes
        assert self.ids("a") == [0, 2, 4]
        assert table._indexes[("V",)] == {"a": [0, 2, 4], "b": [1, 3]}

    def test_update_at_moves_a_row_between_keys(self):
        assert self.ids("a") == [0, 2, 4]
        self.db.table("T").update_at(1, {"V": "a"})
        assert self.ids("a") == [0, 1, 2, 4]
        assert self.ids("b") == [3]
        self.db.table("T").update_at(3, {"V": None})
        assert self.ids("b") == []
        assert self.ids(None) == []  # NULL matches nothing, not the NULL row

    def test_keyed_update_and_insert_through_sql(self):
        assert self.ids("b") == [1, 3]
        assert self.conn.execute_update('UPDATE "T" SET "V" = ? WHERE "V" = ?', ["c", "b"]) == 2
        assert self.ids("b") == []
        assert self.ids("c") == [1, 3]
        self.conn.execute_update('INSERT INTO "T" ("ID", "V") VALUES (?, ?)', [5, "c"])
        assert self.ids("c") == [1, 3, 5]

    def test_renumbering_the_primary_key(self):
        by_id = 'SELECT t1."V" AS c1 FROM "T" t1 WHERE t1."ID" = ?'
        assert self.conn.execute_query(by_id, [4]) == [{"c1": "a"}]
        self.db.table("T").update_at(4, {"ID": 9})
        assert self.conn.execute_query(by_id, [4]) == []
        assert self.conn.execute_query(by_id, [9]) == [{"c1": "a"}]
        assert self.db.table("T").lookup_pk((4,)) is None
        self.db.table("T").insert({"ID": 4, "V": "z"})  # the old key is free again

    def test_deletes_shift_positions(self):
        assert self.ids("a") == [0, 2, 4]
        self.db.table("T").delete_at(0)
        assert self.ids("a") == [2, 4]
        assert self.conn.execute_update('DELETE FROM "T" WHERE "V" = ?', ["b"]) == 2
        assert self.ids("b") == []
        assert self.ids("a") == [2, 4]
        assert [row["ID"] for row in self.db.table("T").rows] == [2, 4]

    def test_rollback_restores_the_old_keys(self):
        assert self.ids("a") == [0, 2, 4]
        self.conn.begin()
        self.conn.execute_update('UPDATE "T" SET "V" = ? WHERE "ID" = ?', ["b", 0])
        assert self.ids("a") == [2, 4]
        self.conn._txn.rollback()
        self.conn.end()
        assert self.ids("a") == [0, 2, 4]
        assert self.ids("b") == [1, 3]

    def test_drop_and_recreate_the_table(self):
        assert self.ids("a") == [0, 2, 4]
        self.db.drop_table("T")
        self.create(["b", "a"])
        assert self.ids("a") == [1]
        assert self.ids("b") == [0]


class TestOrderedIndexFreshness:
    """A ranged read is served from Table's ordered index through a cached,
    compiled statement.  After every kind of write the index either still
    mirrors the rows or is gone, and the next read equals a plain filter
    over the rows, in table order."""

    RANGE = 'SELECT t1."ID" AS c1 FROM "T" t1 WHERE t1."V" >= ? AND t1."V" < ?'

    def setup_method(self):
        self.db = Database("d")
        self.db.create_table("T", [("ID", "INTEGER", False), ("V", "INTEGER")],
                             primary_key=["ID"])
        self.db.load("T", [{"ID": i, "V": v}
                           for i, v in enumerate([5, 1, None, 5, 9, 1, 5, None, 3])])
        self.table = self.db.table("T")
        self.conn = Connection(self.db)

    def check(self, lo=2, hi=9):
        """The ranged read against the rows; the index against the rows."""
        got = [row["c1"] for row in self.conn.execute_query(self.RANGE, [lo, hi])]
        assert got == [row["ID"] for row in self.table.rows
                       if row["V"] is not None and lo <= row["V"] < hi]
        index = self.table._ordered["V"]
        assert list(zip(index.values, index.positions)) == sorted(
            (row["V"], position) for position, row in enumerate(self.table.rows)
            if row["V"] is not None)
        return got

    def test_first_range_builds_the_index(self):
        assert not self.table._ordered
        assert self.check() == [0, 3, 6, 8]
        assert self.table._ordered["V"].values == [1, 1, 3, 5, 5, 5, 9]
        assert self.table._ordered["V"].positions == [1, 5, 8, 0, 3, 6, 4]

    def test_probe_range_returns_exactly_the_rows_inside_every_bound(self):
        """The WHERE re-run would hide a probe that narrows too little;
        asked directly, the probe is exact."""
        import operator

        holds = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        values = [None, 0, 1, 3, 4, 5, 9, 10]
        for op_a in holds:
            for op_b in holds:
                for a in values:
                    for b in values:
                        bounds = [(op_a, a), (op_b, b)]
                        expected = [
                            (position, row) for position, row in enumerate(self.table.rows)
                            if row["V"] is not None and None not in (a, b)
                            and holds[op_a](row["V"], a) and holds[op_b](row["V"], b)]
                        assert self.table.probe_range("V", bounds) == expected, bounds
        assert self.table.probe_range("V", [(">=", "x")]) == list(enumerate(self.table.rows))
        assert self.table.probe_range("V", []) == [
            (position, row) for position, row in enumerate(self.table.rows)
            if row["V"] is not None]

    def test_insert_lands_in_its_run(self):
        self.check()
        self.table.insert({"ID": 20, "V": 5})     # after the other fives
        self.table.insert({"ID": 21, "V": 0})     # new smallest
        self.table.insert({"ID": 22, "V": None})  # not entered
        self.table.insert({"ID": 23, "V": 40})    # new largest
        assert self.check() == [0, 3, 6, 8, 20]
        assert self.check(0, 100) == [0, 1, 3, 4, 5, 6, 8, 20, 21, 23]

    def test_update_at_of_the_ranged_column(self):
        self.check()
        self.table.update_at(3, {"V": 1})      # into the middle of a run of equals
        self.check()
        self.table.update_at(1, {"V": 5})      # out of it, before a higher position
        self.check()
        self.table.update_at(4, {"V": None})   # value -> NULL leaves the index
        self.check(0, 100)
        self.table.update_at(2, {"V": 7})      # NULL -> value enters it
        assert self.check() == [0, 1, 2, 6, 8]
        self.table.update_at(0, {"ID": 50})    # another column: the index is untouched
        self.check()

    def test_sql_update_of_the_ranged_column_through_the_ranged_target(self):
        self.check()
        moved = self.conn.execute_update(
            'UPDATE "T" SET "V" = "V" + 10 WHERE "V" >= ? AND "V" < ?', [2, 9])
        assert moved == 4
        assert self.check() == []
        assert self.check(10, 20) == [0, 3, 6, 8]

    def test_delete_at_and_sql_delete_shift_positions(self):
        self.check()
        self.table.delete_at(0)
        assert "V" not in self.table._ordered   # dropped, rebuilt by the next read
        assert self.check() == [3, 6, 8]
        assert self.conn.execute_update(
            'DELETE FROM "T" WHERE "V" > ? AND "V" <= ?', [1, 5]) == 3
        assert self.check(0, 100) == [1, 4, 5]

    def test_rollback_restores_the_old_order(self):
        before = self.check()
        self.conn.begin()
        self.conn.execute_update('UPDATE "T" SET "V" = ? WHERE "ID" = ?', [100, 0])
        self.conn.execute_update('DELETE FROM "T" WHERE "V" < ?', [2])
        assert self.check() == [3, 6, 8]
        self.conn._txn.rollback()
        self.conn.end()
        assert self.check() == before

    def test_the_index_is_lock_guarded(self):
        """``repro lint --concurrency`` checks ``_ordered`` as it does
        ``_indexes``: clean as written, flagged once the probe's lock goes."""
        from pathlib import Path

        from repro.analysis import analyze_source
        from repro.relational import table

        source = Path(table.__file__).read_text()

        def errors(text):
            return analyze_source(text, "relational/table.py", classes=("Table",)).errors

        assert errors(source) == []
        guarded = "        with self._lock:\n            index = self._ordered.get(column)"
        unguarded = source.replace(guarded, guarded.replace("with self._lock", "if True"))
        assert unguarded != source
        assert any("_ordered" in error.message for error in errors(unguarded))

    def test_nan_is_indexed_no_more_than_null(self):
        self.db.create_table("F", [("ID", "INTEGER", False), ("X", "FLOAT")], primary_key=["ID"])
        nan = float("nan")
        self.db.load("F", [{"ID": i, "X": x} for i, x in enumerate([2.0, nan, 1.0, nan, 3.0])])
        ranged = 'SELECT t1."ID" AS c1 FROM "F" t1 WHERE t1."X" >= ?'
        assert [r["c1"] for r in self.conn.execute_query(ranged, [1.5])] == [0, 4]
        assert self.db.table("F")._ordered["X"].values == [1.0, 2.0, 3.0]
        self.db.table("F").update_at(1, {"X": 2.5})
        self.db.table("F").update_at(0, {"X": nan})
        assert [r["c1"] for r in self.conn.execute_query(ranged, [1.5])] == [1, 4]


class TestDatabase:
    def test_create_and_load(self):
        db = Database("d")
        db.create_table("T", [("ID", "INTEGER", False)], primary_key=["ID"])
        db.load("T", [{"ID": 1}, {"ID": 2}])
        assert len(db.table("T")) == 2

    def test_duplicate_table_rejected(self):
        db = Database("d")
        db.create_table("T", [("ID", "INTEGER")])
        with pytest.raises(SQLError):
            db.create_table("T", [("ID", "INTEGER")])

    def test_unknown_table_rejected(self):
        with pytest.raises(SQLError):
            Database("d").table("NOPE")

    def test_foreign_keys_recorded(self):
        db = Database("d")
        db.create_table("P", [("ID", "INTEGER", False)], primary_key=["ID"])
        db.create_table(
            "C", [("ID", "INTEGER", False), ("PID", "INTEGER")],
            primary_key=["ID"],
            foreign_keys=[ForeignKey(("PID",), "P", ("ID",))],
        )
        [fk] = db.table("C").foreign_keys
        assert fk.ref_table == "P"


class TestConnectionAndLatency:
    def setup_method(self):
        self.clock = VirtualClock()
        self.db = Database("d", clock=self.clock,
                           latency=LatencyModel(roundtrip_ms=10.0, per_row_ms=1.0))
        self.db.create_table("T", [("ID", "INTEGER", False), ("V", "VARCHAR")],
                             primary_key=["ID"])
        self.db.load("T", [{"ID": i, "V": f"v{i}"} for i in range(5)])
        self.conn = Connection(self.db)

    def test_query_charges_roundtrip_and_rows(self):
        rows = self.conn.execute_query('SELECT t1."ID" AS c1 FROM "T" t1')
        assert len(rows) == 5
        assert self.clock.now_ms() == pytest.approx(10.0 + 5 * 1.0)
        assert self.db.stats.roundtrips == 1
        assert self.db.stats.rows_shipped == 5

    def test_statement_log(self):
        self.conn.execute_query('SELECT t1."ID" AS c1 FROM "T" t1')
        assert "SELECT" in self.db.stats.statements[0]

    def test_unavailable_database_raises_source_error(self):
        self.db.available = False
        with pytest.raises(SourceError):
            self.conn.execute_query('SELECT t1."ID" AS c1 FROM "T" t1')

    def test_update_through_connection(self):
        count = self.conn.execute_update(
            'UPDATE "T" SET "V" = ? WHERE "ID" = ?', ["new", 3]
        )
        assert count == 1
        assert self.db.table("T").lookup_pk((3,))["V"] == "new"

    def test_query_vs_update_shape_mismatch(self):
        with pytest.raises(SourceError):
            self.conn.execute_update('SELECT t1."ID" AS c1 FROM "T" t1')
        with pytest.raises(SourceError):
            self.conn.execute_query('DELETE FROM "T"')
