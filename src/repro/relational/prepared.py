"""Prepared statements and the per-database LRU statement cache.

Every statement the middleware ships arrives as SQL text and — absent
caching — pays a full parse on each roundtrip.  Real engines amortize that
cost with prepared statements: parse (and name-resolve) once, execute many
times with fresh parameter bindings.  :class:`StatementCache` reproduces
that economics for the simulated backends: an LRU keyed by SQL text whose
entries hold the parsed AST plus the executor's compiled plan (names
resolved to tables and column slots, access paths chosen — all validated
at prepare time).

The cache is *per database* — statements are parsed in the context of one
source's schema, so DDL on that source (``create_table`` / ``drop_table``)
invalidates it.  Hit/miss/eviction/invalidation counters live on the
database's :class:`~repro.relational.database.SourceStats` and are
surfaced through ``Platform.statement_cache_stats()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from ..concurrency import RACE, TrackedRLock, guarded_by
from ..sql.ast_nodes import Select
from .executor import compile_statement
from .sqlparser import parse_sql

if TYPE_CHECKING:
    from .database import Database
    from .table import Table

#: default number of prepared statements retained per database
DEFAULT_STATEMENT_CACHE_CAPACITY = 128


class PreparedStatement:
    """A parsed, pre-resolved statement bound to one database.

    ``stmt`` is the parsed AST (shared across executions — executors never
    mutate it) and ``plan`` its compiled form, ``plan(params)`` (see
    :func:`~repro.relational.executor.compile_statement`); ``tables`` maps
    each table name the statement references to the :class:`Table` the
    plan resolved it to, so a missing table or column fails at prepare
    time, the way a real prepare call would.
    """

    __slots__ = ("sql", "stmt", "is_query", "tables", "plan")

    def __init__(self, sql: str, stmt, tables: "dict[str, Table]", plan):
        self.sql = sql
        self.stmt = stmt
        self.is_query = isinstance(stmt, Select)
        self.tables = tables
        self.plan = plan

    def __repr__(self) -> str:
        kind = "query" if self.is_query else "dml"
        return f"PreparedStatement({kind}, {self.sql[:40]!r}...)"


@guarded_by("_lock")
class StatementCache:
    """Per-database LRU of :class:`PreparedStatement`, keyed by SQL text.

    Thread-safety (A-CONC): ``_lock`` guards the LRU map and the
    toggle.  :meth:`_build` — the actual parse, which charges
    simulated latency — runs *outside* the lock: two threads missing on the
    same SQL may both parse (real drivers allow the same), but the first
    insert wins and the map is never corrupted.
    """

    def __init__(self, database: "Database",
                 capacity: int = DEFAULT_STATEMENT_CACHE_CAPACITY):
        self.db = database
        self.capacity = capacity
        self.enabled = True
        self._lock = TrackedRLock("StatementCache")
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()

    def prepare(self, sql: str) -> PreparedStatement:
        stats = self.db.stats
        if not self.enabled:
            return self._build(sql)
        with self._lock:
            entry = self._entries.get(sql)
            if entry is not None:
                self._entries.move_to_end(sql)
                RACE.detector.on_access(self, "_entries", True)
        if entry is not None:
            stats.bump(stmt_cache_hits=1)
            return entry
        stats.bump(stmt_cache_misses=1)
        entry = self._build(sql)
        evicted = 0
        with self._lock:
            existing = self._entries.get(sql)
            if existing is not None:
                entry = existing  # a concurrent miss built it first
                self._entries.move_to_end(sql)
            else:
                self._entries[sql] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
            RACE.detector.on_access(self, "_entries", True)
        if evicted:
            stats.bump(stmt_cache_evictions=evicted)
        return entry

    def _build(self, sql: str) -> PreparedStatement:
        stmt = parse_sql(sql)
        self.db.stats.bump(parses=1)
        if self.db.latency.parse_ms:
            self.db.clock.charge_ms(self.db.latency.parse_ms)
        tables: dict[str, Table] = {}
        plan = compile_statement(
            stmt, lambda name: tables.setdefault(name, self.db.table(name)))
        return PreparedStatement(sql, stmt, tables, plan)

    # -- lifecycle -----------------------------------------------------------

    def invalidate(self) -> None:
        """DDL happened: every cached resolution may be stale."""
        with self._lock:
            invalidated = bool(self._entries)
            self._entries.clear()
            RACE.detector.on_access(self, "_entries", True)
        if invalidated:
            self.db.stats.bump(stmt_cache_invalidations=1)

    def clear(self) -> None:
        """Drop entries without recording an invalidation (admin toggle)."""
        with self._lock:
            self._entries.clear()
            RACE.detector.on_access(self, "_entries", True)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def cached_sql(self) -> list[str]:
        """Cached statement texts in LRU order (oldest first)."""
        with self._lock:
            return list(self._entries)

    def snapshot(self) -> dict:
        stats = self.db.stats
        with self._lock:
            size = len(self._entries)
            return {
                "enabled": self.enabled,
                "size": size,
                "capacity": self.capacity,
                **{name.removeprefix("stmt_cache_"): getattr(stats, name)
                   for name in stats.counter_fields
                   if name.startswith("stmt_cache_")},
                "parses": stats.parses,
            }
