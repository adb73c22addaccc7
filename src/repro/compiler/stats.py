"""The statistics layer for cost-based plan choice (P-COST, section 9).

The paper's section 4.3/9 vision is an optimizer that chooses distributed
access strategies from *costs* rather than fixed heuristics.  This module
supplies what is *declared*: per-table cardinality and per-column
selectivity sketches (distinct-value counts over the registered sources'
live tables), each source's declared
:class:`~repro.relational.database.LatencyModel`, and manual overrides so
benchmarks and tests can make the statistics deliberately wrong.  What is
*observed* lives in the runtime's
:class:`~repro.runtime.observed.ObservedStatistics`; :meth:`StatisticsCatalog.latency`
is the one place the two are weighed, component by component.

The catalog computes table statistics fresh per request (tables in the
simulated sources are small, and compilation is amortized by the plan
cache); only the overrides carry state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..concurrency import RACE, TrackedRLock, guarded_by

#: selectivity is clamped into [1/max(rows, 1), 1]; an unknown column
#: falls back to this fraction of the table
DEFAULT_SELECTIVITY = 0.1


@dataclass
class TableStats:
    """Cardinality and per-column distinct counts for one table."""

    rows: int
    #: column name -> number of distinct non-NULL values
    ndv: dict = field(default_factory=dict)


@guarded_by("_lock")
class StatisticsCatalog:
    """Statistics over the registered relational sources.

    Thread-safety (A-CONC): the override map is written by administrative
    calls (:meth:`set_table_stats`) and read by every compiling request
    thread, so both go through ``_lock``.  The live table containers are
    only mutated at registration/load time (single-threaded design time),
    matching how the rest of the compiler reads them.
    """

    def __init__(self, databases, observed):
        #: live view of the platform's registered databases (name -> Database)
        self._databases = databases
        #: the runtime's observed-statistics store (its per-source fits)
        self._observed = observed
        self._lock = TrackedRLock("StatisticsCatalog")
        #: manual overrides: (database, table) -> TableStats
        self._overrides: dict[tuple[str, str], TableStats] = {}

    # -- administration ------------------------------------------------------

    def set_table_stats(self, database: str, table: str, rows: int,
                        ndv: dict | None = None) -> None:
        """Override the statistics for one table (benchmarks use this to
        make the optimizer's inputs deliberately wrong)."""
        with self._lock:
            self._overrides[(database, table)] = TableStats(
                rows=max(int(rows), 0), ndv=dict(ndv or {}))
            RACE.detector.on_access(self, "_overrides", True)

    def clear_overrides(self) -> None:
        with self._lock:
            self._overrides.clear()
            RACE.detector.on_access(self, "_overrides", True)

    # -- lookups -------------------------------------------------------------

    def table_stats(self, database: str, table: str) -> TableStats | None:
        """Statistics for one table; None when the source is unknown (the
        costing pass then leaves the region as it is)."""
        with self._lock:
            override = self._overrides.get((database, table))
        if override is not None:
            return override
        db = self._databases.get(database)
        if db is None:
            return None
        live = db.tables.get(table)
        if live is None:
            return None
        ndv: dict[str, int] = {}
        for column in live.columns:
            values = {row[column.name] for row in live.rows
                      if row.get(column.name) is not None}
            ndv[column.name] = len(values)
        return TableStats(rows=len(live.rows), ndv=ndv)

    def latency(self, source: str) -> tuple[float, float] | None:
        """(roundtrip_ms, per_row_ms) for a source, each component observed
        where the fit identified it, declared where not; None for an
        unknown source.  Traffic that always ships the same number of rows
        (keyed lookups) identifies only the sum at that row count: per-row
        stays declared, the roundtrip is the observed mean less the declared
        per-row share.  (Read as "rows are free", such a fit prices a
        full-table index join below PP-k.)"""
        db = self._databases.get(source)
        if db is None:
            return None
        estimate = self._observed.estimate(source)
        if estimate is None or estimate.samples < 2:
            return db.latency.roundtrip_ms, db.latency.per_row_ms
        if estimate.identified:
            return estimate.roundtrip_ms, estimate.per_row_ms
        per_row = db.latency.per_row_ms
        return max(estimate.roundtrip_ms - estimate.mean_rows * per_row,
                   0.0), per_row


def clamp_selectivity(stats: TableStats, column: str) -> float:
    """1/ndv clamped into [1/max(rows, 1), 1] — degenerate statistics
    (empty table, zero distinct values, ndv above the row count) can never
    drive an estimate outside the meaningful range."""
    floor = 1.0 / max(stats.rows, 1)
    ndv = stats.ndv.get(column)
    if not ndv or ndv <= 0:
        return max(min(DEFAULT_SELECTIVITY, 1.0), floor)
    return max(min(1.0 / ndv, 1.0), floor)
