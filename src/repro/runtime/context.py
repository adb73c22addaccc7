"""Dynamic evaluation context: everything a running plan needs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..clock import Clock, VirtualClock
from ..compiler.pipeline import PlanCache
from ..compiler.views import ViewPlanCache
from ..concurrency import RACE, SyncCounters
from ..config import EngineConfig
from ..errors import SourceError
from ..observability import ContinuousTracer, MetricsRegistry
from ..observability.tracer import REQUEST
from ..relational.connection import Connection
from ..relational.database import Database
from ..resilience import ResilienceManager
from ..services.metadata import MetadataRegistry
from ..sql.dialects import SqlRenderer, capabilities_for
from .asyncexec import AsyncExecutor
from .cache import FunctionCache
from .observed import ObservedStatistics
from .operators.group import GroupStats

if TYPE_CHECKING:
    from ..xquery.ast_nodes import Module


@dataclass
class RuntimeStats(SyncCounters):
    """Middleware-side counters (source-side counters live on each
    database's :class:`~repro.relational.database.SourceStats`).

    Shared by every request thread on the context, so all updates go
    through the synchronized :meth:`~SyncCounters.bump` path (A-CONC)."""

    pushed_queries: int = 0
    ppk_blocks: int = 0
    ppk_tuples: int = 0
    middleware_join_probes: int = 0
    index_joins_built: int = 0
    service_calls: int = 0
    tuples_flowed: int = 0
    #: mid-query strategy switches (P-COST re-planning)
    replans: int = 0

    def __post_init__(self) -> None:
        self._init_lock("RuntimeStats")


@dataclass
class MiddlewareCostModel:
    """CPU cost of mid-tier operator work, charged to the virtual clock.

    Source latencies dominate, but the middleware's share is what overlap
    optimizations (pipelined PP-k, async branches) hide latency *behind* —
    charging it keeps the virtual clock honest about the win while staying
    small relative to a source roundtrip.  A wall clock is not charged:
    there the work's own CPU time is its cost, and sleeping the model on
    top would count it twice.
    """

    #: hash-join + template-reconstruction cost per PP-k block tuple
    ppk_join_ms_per_tuple: float = 0.01


class DynamicContext:
    """Shared services for one ALDSP server instance's runtime."""

    def __init__(
        self,
        registry: MetadataRegistry,
        module: "Optional[Module]" = None,
        clock: Clock | None = None,
        cache: FunctionCache | None = None,
    ):
        self.registry = registry
        self.module = module
        self.clock = clock or VirtualClock()
        self.databases: dict[str, Database] = {}
        self._connections: dict[str, Connection] = {}
        self._renderers: dict[str, SqlRenderer] = {}
        self._batch_instruments: dict[str, tuple] = {}
        self.cache = cache
        #: the unified metrics plane (O-OBS): every counter set below is
        #: attached to it once, and it owns snapshot, reset and the
        #: rolling window of this clock
        self.metrics = MetricsRegistry(self.clock)
        #: the compiled-plan and unfolded-view caches the server compiles
        #: through (a bare context only counts on them)
        self.plan_cache = PlanCache()
        self.view_cache = ViewPlanCache()
        #: everything the engine has observed (section 9): per-source
        #: latency fits, written by the connections' per-roundtrip hook, and
        #: per-plan operator actuals, written by the tracer at request end;
        #: bounded like the plan cache whose plans it describes
        self.observed = ObservedStatistics(self.plan_cache.capacity)
        #: the one engine tracer: every instrumentation point holds this
        #: object for the life of the context; whether a crossing records
        #: is decided by the request running on the calling context
        #: (``EngineConfig.continuous`` is its policy)
        self.tracer = ContinuousTracer(self.clock, observed=self.observed,
                                       metrics=self.metrics)
        #: the engine configuration the runtime reads (one frozen value,
        #: replaced whole by ``Platform.configure``)
        self.config = EngineConfig()
        self.async_exec = AsyncExecutor(self.clock, self.config.async_workers,
                                        tracer=self.tracer)
        self.stats = RuntimeStats()
        self.group_stats = GroupStats()
        self.middleware = MiddlewareCostModel()
        #: per-source retry/breaker/timeout policies
        self.resilience = ResilienceManager(self.clock, tracer=self.tracer)
        for prefix, counters in (
                ("runtime", self.stats), ("group", self.group_stats),
                ("plan_cache", self.plan_cache), ("view_cache", self.view_cache),
                ("async", self.async_exec)):
            self.metrics.attach(prefix, counters)
        if cache is not None:
            self.metrics.attach("cache", cache.stats)
        self.metrics.add_collector(self._state_metrics)

    def _state_metrics(self) -> dict:
        """Series that are state, not counts, read at snapshot time."""
        detector = RACE.detector
        return {"plan_cache.size": len(self.plan_cache),
                "concurrency.races": len(detector.races),
                "concurrency.guarded_accesses": detector.guarded_accesses,
                "concurrency.lock_acquisitions": detector.lock_acquisitions,
                "concurrency.detector_enabled": 1 if detector.enabled else 0}

    # -- per-request state ------------------------------------------------------

    def batch_probe(self):
        """The calling request's rows-per-batch probe, if it carries one
        (``Platform.profile``)."""
        request = REQUEST.get()
        return request.probe if request is not None else None

    def outer_estimate(self, clause) -> float | None:
        """The outer tuples the calling request's estimates expect at a
        PP-k let or index join (None: no re-plan threshold armed it)."""
        request = REQUEST.get()
        est = request.estimates.get(id(clause)) if request is not None else None
        return est.outer if est is not None else None

    def absorb(self, source: str, exc: SourceError) -> bool:
        """In partial-results mode, record a source failure that survived
        its retry budget and report True: the caller substitutes an empty
        sequence.  Otherwise False: the caller re-raises."""
        return self.config.partial_results and self.resilience.absorb(source, exc)

    # -- databases ----------------------------------------------------------------

    def attach_database(self, database: Database) -> None:
        AsyncExecutor.assert_owner("DynamicContext.attach_database")
        database.clock = self.clock
        database.statements.enabled = self.config.statement_cache
        self.databases[database.name] = database
        connection = Connection(database, tracer=self.tracer)
        connection.observer = self.observed.record
        connection.resilience = self.resilience
        self.resilience.register_stats(database.name, database.stats)
        self.metrics.attach("source", database.stats, source=database.name)
        self._connections[database.name] = connection

    def connection(self, database_name: str) -> Connection:
        try:
            return self._connections[database_name]
        except KeyError:
            raise SourceError(f"no connection registered for database {database_name}") from None

    def close(self) -> None:
        """Release runtime resources: joins the async executor's worker
        threads so a discarded context cannot leak them, and marks the
        executor closed so late parallel work cannot re-create the pool.
        Idempotent and safe to race with in-flight queries."""
        self.async_exec.shutdown(final=True)

    def renderer(self, vendor: str) -> SqlRenderer:
        if vendor not in self._renderers:
            self._renderers[vendor] = SqlRenderer(capabilities_for(vendor))
        return self._renderers[vendor]

    def batch_instruments(self, label: str) -> tuple:
        """The ``batch.rows`` histogram and ``batch.count`` counter of one
        batch-operator label, resolved against the registry once per
        context (it is never replaced) instead of once per FLWOR
        invocation.  Racing first calls store the same pair."""
        pair = self._batch_instruments.get(label)
        if pair is None:
            pair = self._batch_instruments[label] = (
                self.metrics.histogram("batch.rows", op=label),
                self.metrics.counter("batch.count", op=label))
        return pair

    # -- user functions --------------------------------------------------------------

    def user_function(self, name: str, arity: int):
        if self.module is None:
            return None
        return self.module.function(name, arity)

    def body_plan(self, decl):
        """What a call of ``decl`` that the optimizer left in place
        executes.  A :class:`~repro.services.platform.Platform` installs
        its compiler here (``Platform._body_plan``: sources resolved, SQL
        pushed, cached with the plans); a bare context has no compiler
        and runs the body as declared."""
        return decl.body
