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
