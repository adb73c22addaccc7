"""JDBC-style connection API to the simulated databases (section 5.3).

The runtime relational adaptor talks to backends exclusively through this
class: statements arrive as *SQL text* (rendered by the dialect layer), are
prepared against the per-database statement cache — parsed by the engine's
own parser on a cache miss, validating the dialect round trip — and
executed, while the database's latency model charges the clock and the
source statistics record roundtrips, rows shipped and hard parses.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SourceError
from ..observability.continuous import ContinuousTracer
from .database import Database
from .executor import Executor
from .prepared import PreparedStatement
from .txn import Transaction

class Connection:
    """A connection to one simulated database."""

    def __init__(self, database: Database, tracer=None):
        self.db = database
        self._txn: Transaction | None = None
        #: optional instrumentation hook: fn(database_name, rows, elapsed_ms)
        #: — feeds the observed-cost optimizer (section 9).  Fed from the
        #: per-attempt success path, so retried/failed attempts and retry
        #: backoff never skew the fit (O-OBS).
        self.observer = None
        #: optional ResilienceManager applying the database's source policy
        #: (retry / breaker / timeout) to every statement (R-RESIL)
        self.resilience = None
        #: the engine tracer (one ``source.roundtrip`` span per attempt);
        #: a connection outside a DynamicContext gets one that is off
        self.tracer = tracer if tracer is not None \
            else ContinuousTracer(database.clock)

    def prepare(self, sql: str | PreparedStatement) -> PreparedStatement:
        """Prepare a statement (or pass one through), consulting the
        database's LRU statement cache: the parse and the table resolution
        are paid once per distinct SQL text, not once per roundtrip."""
        if isinstance(sql, PreparedStatement):
            return sql
        return self.db.statements.prepare(sql)

    def execute_query(self, sql: str | PreparedStatement,
                      params: Sequence | None = None) -> list[dict]:
        """Run a SELECT; returns rows as alias->value dicts."""
        prepared = self.prepare(sql)
        return self._guarded(lambda: self._run_query(prepared, params))

    def _run_query(self, prepared: PreparedStatement,
                   params: Sequence | None) -> list[dict]:
        """One attempt of a SELECT: availability/fault gate, execution,
        mid-result drop simulation, and roundtrip accounting.

        This is the shared instrumentation point: the roundtrip span and
        the observed-cost sample both cover exactly one attempt, so the
        cost fit sees source behaviour (never retry backoff), and only
        *successful* attempts are observed.
        """
        start = self.db.clock.now_ms()
        with self.tracer.start("source.roundtrip", self.db.name) as span:
            self.db.check_call()
            rows = Executor(self.db, params, plan=prepared.plan).execute(prepared.stmt)
            if not isinstance(rows, list):
                raise SourceError(f"expected a query, got DML: {prepared.sql}")
            if self.db.faults is not None:
                rows, dropped = self.db.faults.on_result(self.db.name, rows)
                if dropped is not None:
                    # The shipped prefix is charged, then the connection dies.
                    self.db.charge_roundtrip(len(rows), prepared.sql)
                    raise dropped
            self.db.charge_roundtrip(len(rows), prepared.sql)
            span.set(rows=len(rows))
        if self.observer is not None:
            self.observer(self.db.name, len(rows), self.db.clock.now_ms() - start)
        return rows

    def execute_update(self, sql: str | PreparedStatement,
                       params: Sequence | None = None) -> int:
        """Run DML, either autocommit or inside the active transaction."""
        prepared = self.prepare(sql)
        return self._guarded(lambda: self._run_update(prepared, params))

    def _run_update(self, prepared: PreparedStatement,
                    params: Sequence | None) -> int:
        with self.tracer.start("source.roundtrip", self.db.name, dml=True) as span:
            self.db.check_call()
            if self._txn is not None:
                count = self._txn.execute(prepared.stmt, params, plan=prepared.plan)
            else:
                count = Executor(self.db, params, plan=prepared.plan).execute(prepared.stmt)
            if not isinstance(count, int):
                raise SourceError(f"expected DML, got a query: {prepared.sql}")
            self.db.charge_roundtrip(count, prepared.sql)
            span.set(rows=count)
        return count

    def _guarded(self, attempt):
        if self.resilience is None:
            return attempt()
        return self.resilience.call(self.db.name, attempt, stats=self.db.stats)

    def begin(self) -> Transaction:
        if self._txn is not None:
            raise SourceError("transaction already active on this connection")
        self._txn = Transaction(self.db)
        return self._txn

    def attach(self, txn: Transaction) -> None:
        """Enlist this connection in an externally coordinated (XA) branch."""
        self._txn = txn

    def end(self) -> None:
        self._txn = None
