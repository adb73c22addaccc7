"""Transaction and XA two-phase commit tests (section 6)."""

import pytest

from repro.errors import TransactionError
from repro.relational import Database, TwoPhaseCommit, parse_sql
from repro.relational.txn import Transaction


def make_db(name="d"):
    db = Database(name)
    db.create_table("T", [("ID", "INTEGER", False), ("V", "VARCHAR")], primary_key=["ID"])
    db.load("T", [{"ID": 1, "V": "a"}, {"ID": 2, "V": "b"}])
    return db


UPDATE = parse_sql('UPDATE "T" SET "V" = \'x\' WHERE "ID" = 1')


class TestTransaction:
    def test_commit_keeps_changes(self):
        db = make_db()
        txn = Transaction(db)
        txn.execute(UPDATE)
        txn.commit()
        assert db.table("T").lookup_pk((1,))["V"] == "x"

    def test_rollback_restores(self):
        db = make_db()
        txn = Transaction(db)
        txn.execute(UPDATE)
        txn.rollback()
        assert db.table("T").lookup_pk((1,))["V"] == "a"

    def test_prepare_then_commit(self):
        db = make_db()
        txn = Transaction(db)
        txn.execute(UPDATE)
        assert txn.prepare() is True
        txn.commit()
        assert txn.state == "committed"

    def test_unavailable_db_votes_no(self):
        db = make_db()
        txn = Transaction(db)
        txn.execute(UPDATE)
        db.available = False
        assert txn.prepare() is False

    def test_cannot_execute_after_commit(self):
        db = make_db()
        txn = Transaction(db)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.execute(UPDATE)

    def test_cannot_rollback_committed(self):
        db = make_db()
        txn = Transaction(db)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()


class TestTwoPhaseCommit:
    def test_atomic_commit_across_databases(self):
        db1, db2 = make_db("one"), make_db("two")
        xa = TwoPhaseCommit()
        xa.branch(db1).execute(UPDATE)
        xa.branch(db2).execute(UPDATE)
        xa.commit()
        assert db1.table("T").lookup_pk((1,))["V"] == "x"
        assert db2.table("T").lookup_pk((1,))["V"] == "x"

    def test_one_no_vote_rolls_back_everything(self):
        db1, db2 = make_db("one"), make_db("two")
        xa = TwoPhaseCommit()
        xa.branch(db1).execute(UPDATE)
        xa.branch(db2).execute(UPDATE)
        db2.available = False
        with pytest.raises(TransactionError) as err:
            xa.commit()
        assert "two" in str(err.value)
        # both sides rolled back
        assert db1.table("T").lookup_pk((1,))["V"] == "a"
        assert db2.table("T").lookup_pk((1,))["V"] == "a"

    def test_branch_reuse_per_database(self):
        db = make_db()
        xa = TwoPhaseCommit()
        assert xa.branch(db) is xa.branch(db)

    def test_explicit_rollback(self):
        db = make_db()
        xa = TwoPhaseCommit()
        xa.branch(db).execute(UPDATE)
        xa.rollback()
        assert db.table("T").lookup_pk((1,))["V"] == "a"


class TestUndoImage:
    """A transaction's undo image is a copy of the row list: rows are
    copy-on-write, so the list alone restores every table."""

    def test_failed_xa_restores_rows_and_index_probes(self):
        db1, db2 = make_db("one"), make_db("two")
        db1.create_table("U", [("K", "INTEGER", False), ("W", "VARCHAR")],
                         primary_key=["K"])
        db1.load("U", [{"K": k, "W": f"w{k}"} for k in range(1, 6)])
        tables = [db1.table("T"), db1.table("U"), db2.table("T")]
        for table in tables:  # build the hash and ordered indexes first
            table.probe(table.primary_key[0], [1])
            table.probe_range(table.primary_key[0], [(">=", 2)])
        before = [table.snapshot() for table in tables]

        xa = TwoPhaseCommit()
        branch = xa.branch(db1)
        branch.execute(UPDATE)
        branch.execute(parse_sql('INSERT INTO "U" ("K", "W") VALUES (9, \'new\')'))
        branch.execute(parse_sql('DELETE FROM "U" WHERE "K" = 2'))
        xa.branch(db2).execute(UPDATE)
        assert db1.table("T").lookup_pk((1,))["V"] == "x"
        assert db1.table("U").lookup_pk((9,)) is not None
        db2.available = False  # the second branch votes no at prepare
        with pytest.raises(TransactionError):
            xa.commit()

        for table, rows in zip(tables, before):
            assert table.snapshot() == rows
            key = table.primary_key[0]
            for row in rows:
                assert table.lookup_pk((row[key],)) == row
                assert [r for _, r in table.probe(key, [row[key]])] == [row]
            assert [r for _, r in table.probe_range(key, [(">=", 2)])] == \
                [row for row in rows if row[key] >= 2]
        assert db1.table("U").lookup_pk((9,)) is None
        assert [r for _, r in db1.table("T").probe("V", ["x"])] == []

    def test_update_at_leaves_the_old_row_unchanged(self):
        table = make_db().table("T")
        old = table.rows[0]
        new = table.update_at(0, {"V": "z"})
        assert old == {"ID": 1, "V": "a"}
        assert new is not old and table.rows[0] is new

    def test_snapshot_copies_rows_the_undo_image_shares_them(self):
        table = make_db().table("T")
        image, copies = table.undo_image(), table.snapshot()
        assert image is not table.rows and image == copies
        assert all(a is b for a, b in zip(image, table.rows))
        assert not any(a is b for a, b in zip(copies, table.rows))
