"""The submit engine: atomic propagation of SDO changes (section 6).

"Each data service has a submit method ... the unit of update execution is
a submit call.  In the event that all data sources are relational and can
participate in a two-phase commit (XA) protocol, the entire submit is
executed as an atomic transaction across the affected sources."

An *update override* hook lets user code extend or replace the default
update handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ConcurrencyError, SourceError, TransactionError, UpdateError
from ..relational.database import Database
from ..relational.txn import TwoPhaseCommit
from .concurrency import ConcurrencyPolicy
from .dataobject import DataGraph, DataObject
from .decompose import RowUpdate, UpdateDecomposer
from .lineage import LineageMap

#: an update override receives the data object and its row updates and
#: returns True when it fully handled the update (skipping the default)
UpdateOverride = Callable[[DataObject, list[RowUpdate]], bool]


@dataclass
class SubmitResult:
    """What a submit touched."""

    affected_databases: list[str] = field(default_factory=list)
    statements: list[str] = field(default_factory=list)
    rows_updated: int = 0


class SubmitEngine:
    def __init__(
        self,
        databases: dict[str, Database],
        inverse_of: Callable[[str], Optional[str]],
        resolver: Callable[[str, object], object],
        tracer,
        resilience=None,
    ):
        self.databases = databases
        self.inverse_of = inverse_of
        self.resolver = resolver
        #: optional ResilienceManager: retry/breaker apply per statement.
        #: Partial-results degradation never applies here — a submit is
        #: atomic, so an exhausted retry aborts (and rolls back) the whole
        #: submit rather than silently skipping a statement.
        self.resilience = resilience
        self.tracer = tracer

    def submit(
        self,
        graph: DataGraph | DataObject,
        lineage_for: Callable[[DataObject], LineageMap],
        policy: ConcurrencyPolicy | None = None,
        override: UpdateOverride | None = None,
    ) -> SubmitResult:
        with self.tracer.start("sdo.submit") as span:
            result = self._submit(graph, lineage_for, policy, override)
            span.set(statements=len(result.statements),
                     rows=result.rows_updated)
            return result

    def _submit(
        self,
        graph: DataGraph | DataObject,
        lineage_for: Callable[[DataObject], LineageMap],
        policy: ConcurrencyPolicy | None = None,
        override: UpdateOverride | None = None,
    ) -> SubmitResult:
        policy = policy or ConcurrencyPolicy.values_updated()
        objects = graph.changed() if isinstance(graph, DataGraph) else (
            [graph] if graph.is_changed() else []
        )
        result = SubmitResult()
        if not objects:
            return result

        # Decompose every object first — a decomposition failure must not
        # leave a partially-applied submit.
        row_updates: list[tuple[DataObject, list[RowUpdate]]] = []
        for obj in objects:
            lineage = lineage_for(obj)
            decomposer = UpdateDecomposer(lineage, self.inverse_of, self.resolver)
            row_updates.append((obj, decomposer.decompose(obj, policy)))

        xa = TwoPhaseCommit()
        affected: set[str] = set()
        try:
            for obj, updates in row_updates:
                if override is not None and override(obj, updates):
                    continue
                for update in updates:
                    database = self._database(update.database)
                    txn = xa.branch(database)
                    sql_text = self._render(database, update.to_sql())
                    # Route through the statement cache: the rendered DML is
                    # re-parsed (validating the dialect round trip, as the
                    # query path does) at most once per distinct text.
                    prepared = database.statements.prepare(sql_text)
                    try:
                        count = self._execute(database, txn, prepared)
                    except SourceError as exc:
                        # An exhausted source failure aborts the XA branch:
                        # the submit is atomic, so the whole transaction
                        # rolls back (never a partial result).
                        raise TransactionError(
                            f"XA branch {update.database} failed: {exc}"
                        ) from exc
                    result.statements.append(sql_text)
                    database.charge_roundtrip(count, sql_text)
                    if count == 0:
                        raise ConcurrencyError(
                            f"optimistic check failed updating {update.table} "
                            f"(key {update.key}) — row changed since it was read"
                        )
                    if count > 1:
                        raise UpdateError(
                            f"update of {update.table} matched {count} rows"
                        )
                    result.rows_updated += count
                    affected.add(update.database)
            xa.commit()
        except Exception:
            xa.rollback()
            raise
        for obj, _updates in row_updates:
            obj.discard_changes()
        result.affected_databases = sorted(affected)
        return result

    def _execute(self, database: Database, txn, prepared) -> int:
        """One statement, under the database's resilience policy (if any).

        The availability/fault gate raises *before* ``txn.execute`` touches
        any row, so a retried attempt re-runs from a clean slate; only a
        successful attempt mutates the transaction's write set.
        """

        def attempt() -> int:
            database.check_call()
            return txn.execute(prepared.stmt, plan=prepared.plan)

        if self.resilience is None:
            return attempt()
        return self.resilience.call(database.name, attempt,
                                    stats=database.stats)

    def _database(self, name: str) -> Database:
        try:
            return self.databases[name]
        except KeyError:
            raise UpdateError(f"no database registered under {name}") from None

    @staticmethod
    def _render(database: Database, stmt) -> str:
        from ..sql.dialects import SqlRenderer, capabilities_for

        return SqlRenderer(capabilities_for(database.vendor)).render(stmt)
