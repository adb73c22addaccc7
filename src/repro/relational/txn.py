"""Transactions and XA two-phase commit across simulated databases.

Section 6: "In the event that all data sources are relational and can
participate in a two-phase commit (XA) protocol, the entire submit is
executed as an atomic transaction across the affected sources."
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SQLError, TransactionError
from .database import Database


class Transaction:
    """A single-database transaction with snapshot-based rollback.

    The simulated engine is single-writer per submit, so the first touch of
    a table records its undo image: a copy of the row list, not of the
    rows, since rows are copy-on-write (:class:`~repro.relational.table.Table`).
    Rollback restores that list.
    """

    def __init__(self, database: Database):
        self.db = database
        self._snapshots: dict[str, list[dict]] = {}
        self.state = "active"  # active -> prepared -> committed/rolled-back
        self._failed = False

    def _snapshot(self, table_name: str) -> None:
        if table_name not in self._snapshots:
            self._snapshots[table_name] = self.db.table(table_name).undo_image()

    def execute(self, stmt, params: Sequence | None = None, plan=None):
        """Execute a statement inside this transaction.  ``plan`` is the
        compiled form of a prepared statement, when one exists."""
        from .executor import Executor

        if self.state != "active":
            raise TransactionError(f"transaction is {self.state}")
        table_name = getattr(stmt, "table", None)
        if table_name is not None:
            self._snapshot(table_name)
        try:
            return Executor(self.db, params, plan=plan).execute(stmt)
        except SQLError:
            self._failed = True
            raise

    def prepare(self) -> bool:
        """XA phase one: vote.  A branch that saw an execution failure or an
        unavailable database votes no."""
        if self.state != "active":
            raise TransactionError(f"cannot prepare {self.state} transaction")
        if self._failed or not self.db.available:
            return False
        self.state = "prepared"
        return True

    def commit(self) -> None:
        if self.state not in ("active", "prepared"):
            raise TransactionError(f"cannot commit {self.state} transaction")
        self._snapshots.clear()
        self.state = "committed"

    def rollback(self) -> None:
        if self.state in ("committed",):
            raise TransactionError("cannot roll back a committed transaction")
        for table_name, rows in self._snapshots.items():
            self.db.table(table_name).restore(rows)
        self._snapshots.clear()
        self.state = "rolled-back"


class TwoPhaseCommit:
    """XA coordinator over the transactions of one submit call."""

    def __init__(self):
        self.branches: dict[str, Transaction] = {}

    def branch(self, database: Database) -> Transaction:
        """Get (or start) the transaction branch for a database."""
        if database.name not in self.branches:
            self.branches[database.name] = Transaction(database)
        return self.branches[database.name]

    def commit(self) -> None:
        """Run the two-phase protocol; on any no-vote, roll back every
        branch and raise."""
        votes = {name: txn.prepare() for name, txn in self.branches.items()}
        if all(votes.values()):
            for txn in self.branches.values():
                txn.commit()
            return
        for txn in self.branches.values():
            txn.rollback()
        failed = sorted(name for name, vote in votes.items() if not vote)
        raise TransactionError(f"XA prepare failed at: {', '.join(failed)}")

    def rollback(self) -> None:
        for txn in self.branches.values():
            if txn.state in ("active", "prepared"):
                txn.rollback()
