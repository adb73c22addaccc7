"""The simulated relational database.

Substitutes for the Oracle / DB2 / SQL Server / Sybase backends of the
paper (see DESIGN.md): it executes the SQL that ALDSP's pushdown generates
and charges a configurable latency model so the distributed-join economics
(roundtrips, rows shipped) behave like a remote database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..clock import Clock, VirtualClock
from ..concurrency import RACE, SyncCounters
from ..errors import SQLError, SourceError
from .table import Column, ForeignKey, Table


@dataclass
class LatencyModel:
    """Cost of talking to this database.

    ``roundtrip_ms`` is charged once per statement (network + execution);
    ``per_row_ms`` once per result row shipped back to the middleware;
    ``parse_ms`` once per *hard parse* — a statement-cache hit skips it,
    which is the economics prepared statements exist to buy.  It defaults
    to 0 so latency totals are governed by the roundtrip model unless a
    benchmark opts into parse accounting.  ``connect_timeout_ms`` is what a
    call against an *unavailable* database costs before ``SourceError`` is
    raised — a failed connect is never free, so failover economics stay
    realistic (R-RESIL).
    """

    roundtrip_ms: float = 5.0
    per_row_ms: float = 0.05
    parse_ms: float = 0.0
    connect_timeout_ms: float = 10.0


@dataclass
class SourceStats(SyncCounters):
    """Counters a benchmark reads after a run.

    Updated concurrently by every request thread touching the source, so
    all writes go through the synchronized :meth:`~SyncCounters.bump` /
    :meth:`note_statement` paths (A-CONC)."""

    roundtrips: int = 0
    rows_shipped: int = 0
    statements: list[str] = field(default_factory=list)
    #: hard parses actually performed (statement-cache misses + uncached)
    parses: int = 0
    stmt_cache_hits: int = 0
    stmt_cache_misses: int = 0
    stmt_cache_evictions: int = 0
    #: statement-cache clears forced by DDL on this source
    stmt_cache_invalidations: int = 0
    #: adaptive PP-k re-sized a block against this source (P-ADAPT)
    ppk_k_adjustments: int = 0
    # -- resilience counters (R-RESIL; maintained by the ResilienceManager) --
    #: invocation attempts, including retries
    attempts: int = 0
    #: attempts that were policy-driven retries of a failed attempt
    retries: int = 0
    #: attempts that ended in a SourceError (injected, unavailable, timeout)
    failures: int = 0
    #: circuit-breaker transitions into the open state
    breaker_trips: int = 0
    #: failures absorbed as empty results in partial-results mode
    degraded: int = 0

    def __post_init__(self) -> None:
        self._init_lock("SourceStats")

    def note_statement(self, statement: str) -> None:
        """Record a shipped statement text (synchronized list append)."""
        with self._lock:
            self.statements.append(statement)
            RACE.detector.on_access(self, "statements", True)

    def resilience_snapshot(self) -> dict:
        """The R-RESIL counters as a dict (``Platform.source_health()``)."""
        with self._lock:
            return {
                "attempts": self.attempts,
                "retries": self.retries,
                "failures": self.failures,
                "breaker_trips": self.breaker_trips,
                "degraded": self.degraded,
            }


class Database:
    """A named database with tables, constraints, vendor identity and a
    latency model."""

    def __init__(
        self,
        name: str,
        vendor: str = "oracle",
        latency: LatencyModel | None = None,
        clock: Clock | None = None,
        statement_cache_capacity: int | None = None,
    ):
        from .prepared import DEFAULT_STATEMENT_CACHE_CAPACITY, StatementCache

        self.name = name
        self.vendor = vendor
        self.latency = latency or LatencyModel()
        self.clock = clock or VirtualClock()
        self.tables: dict[str, Table] = {}
        self.stats = SourceStats()
        self.statements = StatementCache(
            self,
            statement_cache_capacity
            if statement_cache_capacity is not None
            else DEFAULT_STATEMENT_CACHE_CAPACITY,
        )
        #: set by the failure-injection helpers to simulate outages
        self.available = True
        #: optional scripted fault plan (repro.resilience.FaultInjector)
        self.faults = None

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | tuple],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> Table:
        if name in self.tables:
            raise SQLError(f"table {name} already exists in {self.name}")
        normalized = [
            col if isinstance(col, Column) else Column(*col) for col in columns
        ]
        table = Table(name, normalized, primary_key, foreign_keys)
        self.tables[name] = table
        self.statements.invalidate()
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SQLError(f"no table {name} in database {self.name}")
        del self.tables[name]
        self.statements.invalidate()

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLError(f"no table {name} in database {self.name}") from None

    def load(self, table_name: str, rows: Sequence[dict]) -> None:
        table = self.table(table_name)
        for row in rows:
            table.insert(row)

    # -- availability / fault gate --------------------------------------------

    def check_call(self) -> None:
        """Availability and scripted-fault gate shared by every statement
        path (queries, DML, SDO submit).  A call against an unavailable
        database charges ``connect_timeout_ms`` before raising — a failed
        connect costs real time (R-RESIL)."""
        if not self.available:
            if self.latency.connect_timeout_ms:
                self.clock.charge_ms(self.latency.connect_timeout_ms)
            raise SourceError(f"database {self.name} is unavailable")
        if self.faults is not None:
            self.faults.on_call(self.name, self.clock)

    # -- latency accounting ---------------------------------------------------

    def charge_roundtrip(self, rows_shipped: int, statement: str) -> None:
        self.stats.bump(roundtrips=1, rows_shipped=rows_shipped)
        self.stats.note_statement(statement)
        self.clock.charge_ms(
            self.latency.roundtrip_ms + rows_shipped * self.latency.per_row_ms
        )
