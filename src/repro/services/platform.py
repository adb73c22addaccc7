"""The ALDSP server facade (section 2.2).

One :class:`Platform` instance is an ALDSP server: it owns the source
registry and metadata, the query compiler with its plan and view caches,
the runtime (evaluator, function cache, async executor), the security
service, and the update engine.  Client APIs (mediator/ad hoc queries,
streaming, submit) all go through it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterator

from ..clock import Clock, VirtualClock
from ..compiler.costing import CostingOptions, estimate
from ..compiler.inverse import InverseRegistry
from ..compiler.stats import StatisticsCatalog
from ..concurrency import NOOP_DETECTOR, RACE, set_race_detector
from ..config import COMPILE_FIELDS, EngineConfig
from ..compiler.pipeline import CompiledPlan, Compiler, CompilerOptions
from ..errors import (
    ObservabilityError,
    PlatformClosedError,
    StaticError,
    UpdateError,
)
from ..observability import (
    ContinuousTracer,
    MetricsRegistry,
    QueryProfile,
    make_annotator,
    profile_render,
)
from ..observability.tracer import REQUEST
from ..relational.database import Database
from ..resilience import (
    CircuitBreakerConfig,
    DegradationRecord,
    RetryPolicy,
    SourcePolicy,
)
from ..runtime.asyncexec import AsyncExecutor
from ..runtime.cache import FunctionCache
from ..runtime.context import DynamicContext
from ..runtime.evaluate import Evaluator
from ..schema.types import ElementItemType
from ..sdo.concurrency import ConcurrencyPolicy
from ..sdo.dataobject import DataGraph, DataObject
from ..sdo.lineage import LineageAnalyzer, LineageMap
from ..sdo.submit import SubmitEngine, SubmitResult, UpdateOverride
from ..security.policy import ADMIN, SecurityService, User
from ..sources.files import CSVFileAdaptor, XMLFileAdaptor
from ..sources.javafunc import from_python, to_python
from ..sources.webservice import WebServiceDescriptor
from ..xml.items import ElementNode, Item
from ..xquery import ast_nodes as ast
from .dataservice import DataService, data_service_from_module
from .introspect import (
    file_function_def,
    introspect_database,
    introspect_web_service,
    java_function_def,
)
from .metadata import MetadataRegistry, SourceFunctionDef

if TYPE_CHECKING:
    from ..diagnostics import DiagnosticReport


def _binds_footer(plan: CompiledPlan) -> str:
    """``explain``/``profile`` footer: the values this text binds to the
    literals its plan was parameterised over."""
    if not plan.binds:
        return ""
    return "\nbinds: " + ", ".join(
        f"${name} = {items[0].value!r}" for name, items in plan.binds.items())


class Platform:
    """An ALDSP server instance."""

    def __init__(self, clock: Clock | None = None, mode: str = "runtime",
                 cache_backing: Database | None = None,
                 config: EngineConfig = EngineConfig()):
        self.clock = clock or VirtualClock()
        self.registry = MetadataRegistry()
        self.module = ast.Module()  # the merged prolog of every deployment
        self.inverses = InverseRegistry()
        self.options = CompilerOptions(mode=mode)
        self.cache = FunctionCache(self.clock, backing=cache_backing)
        self.security = SecurityService()
        self.ctx = DynamicContext(self.registry, self.module, self.clock, self.cache)
        self.view_cache = self.ctx.view_cache
        self.plan_cache = self.ctx.plan_cache
        self.ctx.body_plan = self._body_plan
        self.evaluator = Evaluator(self.ctx)
        self.services: dict[str, DataService] = {}
        self._lineage_cache: dict[str, LineageMap] = {}
        self._update_overrides: dict[str, UpdateOverride] = {}
        #: set (once) by close(); queries submitted after raise
        #: PlatformClosedError instead of hitting a torn-down executor
        self._closed = False
        #: the P-COST statistics layer: what is *declared* about the
        #: registered sources (cardinality/selectivity sketches, latency
        #: models), resolved against what ``ctx.observed`` has identified
        self.statistics = StatisticsCatalog(self.ctx.databases,
                                            self.ctx.observed)
        self.options.cost = CostingOptions(
            catalog=self.statistics, store=self.ctx.observed,
            ppk_join_ms_per_tuple=self.ctx.middleware.ppk_join_ms_per_tuple)
        self.configure(**{field.name: getattr(config, field.name)
                          for field in dataclasses.fields(config)})

    # ------------------------------------------------------------------------
    # Source registration (design time)
    # ------------------------------------------------------------------------

    def register_database(self, database: Database, navigation: bool = True) -> None:
        """Introspect a relational source into physical data services."""
        self.ctx.attach_database(database)
        definitions, navigation_source = introspect_database(database)
        for definition in definitions:
            self._register(definition)
        if navigation and navigation_source:
            self.deploy(navigation_source, name=f"{database.name}-navigation")
        self._invalidate_plans()

    def register_web_service(self, descriptor: WebServiceDescriptor) -> None:
        for definition in introspect_web_service(descriptor, self.clock):
            self._register(definition)
        self._invalidate_plans()

    def register_java_function(self, name: str, fn: Callable,
                               param_types: list[str], return_type: str,
                               latency_ms: float = 0.0) -> None:
        self._register(
            java_function_def(name, fn, param_types, return_type, self.clock, latency_ms)
        )
        self._invalidate_plans()

    def register_xml_file(self, name: str, path, record_shape: ElementItemType) -> None:
        adaptor = XMLFileAdaptor(name, path, record_shape, self.clock)
        self._register(file_function_def(name, adaptor, record_shape))
        self._invalidate_plans()

    def register_csv_file(self, name: str, path, record_shape: ElementItemType,
                          delimiter: str = ",", has_header: bool = True) -> None:
        adaptor = CSVFileAdaptor(name, path, record_shape, delimiter, has_header, self.clock)
        self._register(file_function_def(name, adaptor, record_shape))
        self._invalidate_plans()

    def register_stored_procedure(self, database: Database, name: str, procedure,
                                  columns: list[tuple[str, str]],
                                  param_types: list[str] | None = None,
                                  row_element: str | None = None) -> None:
        """Register a stored procedure of a (registered) database as a
        functional source (section 5.3)."""
        from .introspect import stored_procedure_def

        if database.name not in self.ctx.databases:
            self.ctx.attach_database(database)
        self._register(stored_procedure_def(
            database, name, procedure, columns, param_types, row_element, self.clock
        ))
        self._invalidate_plans()

    def _register(self, definition: SourceFunctionDef) -> None:
        """The one funnel a source function is registered through: an
        adaptor's counters become ``source.*{source=<adaptor>}`` series
        from registration on."""
        self.registry.register(definition)
        if definition.adaptor is not None:
            self.ctx.metrics.attach("source", definition.adaptor.stats,
                                    source=definition.adaptor.name)

    def register_inverse(self, function: str, inverse: str) -> None:
        """Declare ``inverse`` as the inverse of ``function`` (section 4.5)."""
        self.inverses.declare_inverse(function, inverse)
        self._invalidate_plans()

    def register_transform_rule(self, op: str, function: str, replacement: str) -> None:
        self.inverses.register_rule(op, function, replacement)
        self._invalidate_plans()

    # ------------------------------------------------------------------------
    # Data-service deployment
    # ------------------------------------------------------------------------

    def deploy(self, xquery_source: str, name: str | None = None) -> DataService:
        """Deploy a data-service file: analyze it (with design-time error
        recovery when the platform is in design mode) and merge its
        functions into the server prolog."""
        compiler = self._compiler()
        module = compiler.analyze_module(xquery_source)
        for key, decl in module.functions.items():
            if key in self.module.functions:
                raise StaticError(f"function {key[0]}#{key[1]} is already deployed")
        self.module.functions.update(module.functions)
        self.module.namespaces.update(module.namespaces)
        self.module.errors.extend(module.errors)
        # Optimize module-variable initializers so they can reference
        # sources and deployed functions (evaluated lazily at first use).
        from ..compiler.optimizer import Optimizer

        optimizer = Optimizer(self.registry, self.module, self.inverses)
        for var in module.variables.values():
            if var.value is not None:
                var.value = optimizer.optimize(var.value)
        self.module.variables.update(module.variables)
        service = data_service_from_module(name or f"service-{len(self.services) + 1}", module)
        self.services[service.name] = service
        self._invalidate_plans()
        return service

    # ------------------------------------------------------------------------
    # Configuration / administration
    # ------------------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        """The engine configuration (frozen: change it with :meth:`configure`)."""
        return self.ctx.config

    def configure(self, **changes) -> EngineConfig:
        """Change engine settings — fields of :class:`EngineConfig` — and
        return the new configuration.  The whole change is validated before
        anything is applied, so a rejected one leaves the engine as it was;
        cached plans are invalidated only when a field that shapes them
        changed value."""
        AsyncExecutor.assert_owner("Platform.configure")
        old = self.config
        new = dataclasses.replace(old, **changes)
        if "continuous" in changes and new.continuous is not None \
                and not new.tracing_allowed:
            raise self._tracing_disallowed()
        if "statement_cache" in changes:
            for database in self.ctx.databases.values():
                database.statements.enabled = new.statement_cache
                if not new.statement_cache:
                    database.statements.clear()
        self.ctx.async_exec.set_max_workers(new.async_workers)
        if "continuous" in changes:
            self.ctx.tracer.configure(new.continuous)
        self.ctx.config = self.options.config = new
        if any(getattr(old, name) != getattr(new, name) for name in COMPILE_FIELDS):
            self._invalidate_plans()
        return new

    def enable_function_cache(self, function_name: str, ttl_ms: float,
                              arity: int = 0) -> None:
        """Administratively enable result caching for a function.

        The function is pinned against inlining — the cache works at call
        granularity (section 5.5) — and existing plans are invalidated.
        """
        self.cache.enable(function_name, ttl_ms)
        self.options.no_inline.add((function_name, arity))
        self._invalidate_plans()

    def function_cache_stats(self) -> dict:
        """Function-cache introspection: size, capacity and the
        hit/miss/expiration/eviction counters."""
        return self.cache.snapshot()

    def statement_cache_stats(self) -> dict[str, dict]:
        """Per-database statement-cache introspection: size, capacity and
        the hit/miss/eviction/parse counters."""
        return {
            name: database.statements.snapshot()
            for name, database in self.ctx.databases.items()
        }

    # -- observed cost-based tuning (section 9 future work) --------------------

    @property
    def observed(self):
        """The observed-statistics store: per-source latency fits and
        per-plan operator actuals (both accumulate as queries run)."""
        return self.ctx.observed

    def recommended_ppk(self, database_name: str) -> int | None:
        """PP-k block size recommended from *observed* source behaviour."""
        return self.ctx.observed.recommend_ppk(database_name)

    def adapt_ppk(self) -> int | None:
        """Apply the observed-cost recommendation: the block size becomes
        the largest recommendation over the observed sources (PP-k blocks
        hit the slowest source hardest).  Returns the chosen k, or None if
        there is not enough observational data yet."""
        recommendations = [
            k for k in (
                self.ctx.observed.recommend_ppk(name)
                for name in self.ctx.observed.sources()
            ) if k is not None
        ]
        if not recommendations:
            return None
        chosen = max(recommendations)
        self.configure(ppk_block_size=chosen)
        return chosen

    def register_update_override(self, service_name: str, override: UpdateOverride) -> None:
        self._update_overrides[service_name] = override

    # -- source resilience (R-RESIL) -------------------------------------------

    def set_source_policy(self, name: str,
                          retry: RetryPolicy | int | None = None,
                          breaker: CircuitBreakerConfig | int | None = None,
                          timeout_ms: float | None = None) -> None:
        """Configure per-source QoS: retry/backoff, circuit breaking and a
        per-attempt time budget.  ``name`` is a database name, an adaptor
        name (e.g. ``"RatingService.getRating"``) or ``"*"`` for the
        default policy.  Integer shorthands: ``retry=3`` means three
        attempts with default backoff; ``breaker=5`` means trip after five
        consecutive failures.  All ``None`` removes the source's policy.
        """
        if isinstance(retry, int):
            retry = RetryPolicy(max_attempts=retry)
        if isinstance(breaker, int):
            breaker = CircuitBreakerConfig(failure_threshold=breaker)
        if retry is None and breaker is None and timeout_ms is None:
            self.ctx.resilience.set_policy(name, None)
        else:
            self.ctx.resilience.set_policy(
                name, SourcePolicy(retry=retry, breaker=breaker,
                                   timeout_ms=timeout_ms)
            )

    @property
    def last_degradations(self) -> list[DegradationRecord]:
        """Degradation records collected by the calling context's most
        recent request."""
        return list(self.ctx.resilience.degradations)

    def source_health(self) -> dict[str, dict]:
        """Availability, resilience counters, breaker state and policy for
        every registered source (databases and functional adaptors)."""
        health: dict[str, dict] = {}
        manager = self.ctx.resilience
        for name, database in self.ctx.databases.items():
            entry = {"kind": "database", "available": database.available}
            entry.update(database.stats.resilience_snapshot())
            entry.update(manager.health(name))
            health[name] = entry
        for definition in self.registry.functions():
            adaptor = definition.adaptor
            if adaptor is None or adaptor.name in health:
                continue
            entry = {"kind": definition.kind, "available": adaptor.available}
            entry.update(adaptor.stats.resilience_snapshot())
            entry.update(manager.health(adaptor.name))
            health[adaptor.name] = entry
        return health

    # -- observability (O-OBS) --------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The unified metrics plane (attached counters + instruments)."""
        return self.ctx.metrics

    @property
    def tracer(self) -> ContinuousTracer:
        """The engine tracer (records nothing unless a policy is set)."""
        return self.ctx.tracer

    @staticmethod
    def _tracing_disallowed() -> ObservabilityError:
        return ObservabilityError(
            "tracing is administratively disabled on this platform")

    # -- the continuous plane (O-CONT) ------------------------------------------

    def plan_stats(self) -> dict:
        """The plan half of the observed-statistics store: per-plan cost
        estimates next to per-operator EWMA actuals (rows, elapsed,
        roundtrips) from every recorded request, profile runs included."""
        return self.ctx.observed.snapshot()

    def window_snapshot(self) -> dict:
        """Every windowed series' rolling-window view, sorted by name."""
        return self.ctx.metrics.window_snapshot()

    @property
    def last_trace(self):
        """The root span of the most recent retained trace (None when
        tracing is off or nothing ran)."""
        return self.ctx.tracer.last_root

    def profile(self, query: str, variables: dict[str, list[Item]] | None = None,
                user: User = ADMIN) -> QueryProfile:
        """``explain analyze``: execute the query as a request whose
        recording is forced and render its plan annotated with the
        per-operator actuals (elapsed, rows, roundtrips, retries, cache
        hits, degradations) of that request's own recorder — whatever the
        tracer's policy, whatever runs beside it.  Ending the request
        feeds the plan-stats store like any recorded request."""
        from ..runtime.batchexec import BatchProbe

        if not self.config.tracing_allowed:
            raise self._tracing_disallowed()
        probe = BatchProbe()
        start = self.clock.now_ms()
        plan = self.prepare(query, variables)
        # before the run: ending it feeds the warm-start store, which would
        # hand the run's own actuals back as its estimates
        estimates = estimate(plan.expr, plan.plan_key, self.options)
        with self.ctx.tracer.request(plan.plan_key, probe=probe,
                                     forced=True) as request:
            recorder = request.recorder
            items = list(self.stream(plan, variables, user))
        elapsed = self.clock.now_ms() - start
        text, aggregates = profile_render(plan.expr, recorder, estimates)
        return QueryProfile(text=text + _binds_footer(plan),
                            root=recorder.last_root, tracer=recorder,
                            items=len(items), elapsed_ms=elapsed,
                            aggregates=aggregates, batches=probe.snapshot())

    def metrics_snapshot(self) -> dict:
        """Every cumulative metrics series — runtime, per-source, cache,
        group, plan-cache, view-cache, async, trace and server — sorted
        by name."""
        return self.ctx.metrics.snapshot()

    # -- concurrency analysis (A-CONC) ------------------------------------------

    def set_race_detector(self, enabled: bool = True,
                          capture_stacks: bool = True):
        """Toggle the runtime lockset race detector (opt-in debug mode).

        On: installs an eraser-style
        :class:`~repro.analysis.lockset.LocksetDetector` that tracks the
        locks held at every guarded access; a shared field whose candidate
        lockset goes empty across threads is reported as a race with both
        stack traces (:meth:`race_report`).  Off (the default): the
        :data:`~repro.concurrency.NOOP_DETECTOR` — every instrumentation
        point is an unconditional counter bump, allocating nothing (the
        tracer's Noop contract, O-OBS).

        The detector slot is **process-wide** (lock instrumentation has no
        per-platform scope, mirroring how eraser-style tools instrument a
        whole process); tests enabling it should restore the previous
        detector in a ``finally``.  Returns the installed detector.
        """
        if enabled:
            from ..analysis.lockset import LocksetDetector

            detector = LocksetDetector(capture_stacks=capture_stacks)
        else:
            detector = NOOP_DETECTOR
        set_race_detector(detector)
        return detector

    @property
    def race_detector(self):
        """The active race detector (a no-op unless enabled)."""
        return RACE.detector

    def race_report(self) -> str:
        """Human-readable report of every detected race (both stacks)."""
        detector = RACE.detector
        if hasattr(detector, "report_text"):
            return detector.report_text()
        return "race detector is not enabled"

    def reset_stats(self) -> None:
        """Zero every counter and instrument of the metrics plane in one
        call, and clear the calling context's degradation records (keeps
        caches, plans and breaker state)."""
        self.ctx.metrics.reset()
        self.ctx.resilience.reset_stats()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release runtime resources (async worker threads).  Idempotent
        and concurrency-safe: a second (or concurrent) ``close()`` is a
        no-op, and a query submitted after close fails with a clean
        :class:`~repro.errors.PlatformClosedError` instead of undefined
        executor behavior.  Also invoked by ``with Platform(...) as p:``."""
        self._closed = True  # a plain flag: one-way, GIL-atomic
        self.ctx.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PlatformClosedError(
                "platform is closed: no new queries after Platform.close()"
            )

    def __enter__(self) -> "Platform":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _invalidate_plans(self) -> None:
        AsyncExecutor.assert_owner("Platform._invalidate_plans")
        self.plan_cache.clear()
        self.view_cache.clear()
        self._lineage_cache.clear()

    def _compiler(self) -> Compiler:
        return Compiler(self.registry, self.module, self.inverses,
                        self.view_cache, self.options)

    def _keyed_plan(self, key: str,
                    make: Callable[[Compiler], CompiledPlan]) -> CompiledPlan:
        """A plan the platform names itself (a method call, a function
        body): compiled once, cached and invalidated with the query plans."""
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = make(self._compiler())
            self.plan_cache.put(key, plan, compiles=1)
        return plan

    def _body_plan(self, decl: ast.FunctionDecl) -> ast.AstNode:
        """``DynamicContext.body_plan``: what a call left in a plan runs."""
        plan = self._keyed_plan(f"#body:{decl.name}#{decl.arity()}",
                                lambda compiler: compiler.compile_body(decl))
        self._arm_replan(plan, REQUEST.get())
        return plan.expr

    def _arm_replan(self, plan: CompiledPlan, request) -> None:
        """With a re-plan threshold set, put ``plan``'s estimates on the
        request, once per request and plan: what its operators read as
        ``DynamicContext.outer_estimate``."""
        if self.config.replan_threshold is not None and request is not None \
                and id(plan.expr) not in request.estimates:
            request.estimates.update(estimate(plan.expr, plan.plan_key, self.options))
            request.estimates.setdefault(id(plan.expr), None)

    # ------------------------------------------------------------------------
    # Query execution (client APIs, section 2.2)
    # ------------------------------------------------------------------------

    def prepare(self, query: str,
                variables: dict[str, list[Item]] | None = None) -> CompiledPlan:
        """Compile an ad hoc query, consulting the plan cache.

        ``variables`` only contributes the *names* of the external variables
        the query may reference; values are bound per execution, so the same
        plan serves every binding (section 3.3: plans are executed
        "repeatedly, possibly with different parameter bindings each time").
        The query's own liftable literals are bindings too: texts of one
        *shape* share a plan, and the returned plan carries this text's
        literal values in ``binds`` (and its shape-level ``plan_key``).
        :meth:`execute` and :meth:`stream` accept it in place of the text.
        """
        self._check_open()
        names = tuple(sorted(variables)) if variables else ()
        return self.plan_cache.prepare(query, names, self._compiler)

    def plan_key(self, query: str,
                 variables: dict[str, list[Item]] | None = None) -> str:
        """What identifies the query's plan: the *shape-level* text (the
        literals the plan cache lifted spelled ``$#litK``) plus the names
        of its external variables — texts that share a plan share a key.
        Also the input to :func:`~repro.observability.plan_fingerprint`,
        so the flight recorder, the plan-stats store and the costing pass
        aggregate per plan, the way the cache does.  Compiles (and caches)
        a query the cache has not seen."""
        return self.prepare(query, variables).plan_key

    def execute(self, query: str | CompiledPlan,
                variables: dict[str, list[Item]] | None = None,
                user: User = ADMIN, budget_ms: float | None = None) -> list[Item]:
        """Execute an ad hoc query (or a plan :meth:`prepare` returned);
        results are fully materialized (the client-server APIs are
        stateless, section 2.2) and security filtering is applied
        post-cache (section 7)."""
        return list(self.stream(query, variables, user, budget_ms=budget_ms))

    def stream(self, query: str | CompiledPlan,
               variables: dict[str, list[Item]] | None = None,
               user: User = ADMIN, budget_ms: float | None = None) -> Iterator[Item]:
        """The server-side incremental API: results stream without being
        materialized first (section 2.2).

        ``budget_ms`` is the request's deadline budget (R-SERVE): the
        deadline rides on the request, capping every source attempt and
        retry backoff — PP-k blocks and scatter branches see it through
        the executor's context propagation — so a doomed query stops
        consuming source roundtrips and fails with
        :class:`~repro.errors.DeadlineExceededError`.

        The request is on the calling context only while its own code
        runs: between two items the client may run anything, another
        request included, and each keeps its own bindings, deadline,
        degradations and span tree."""
        self._check_open()
        plan = query if isinstance(query, CompiledPlan) \
            else self.prepare(query, variables)
        tracer = self.ctx.tracer
        # the text's lifted literals are bound beside the caller's variables
        with tracer.request(
                plan.plan_key,
                {**variables, **plan.binds} if variables else plan.binds,
                budget_ms) as request:
            self._arm_replan(plan, request)
            # the bindings are the root row — a copy, the pipeline's to
            # extend: a tuple variable of the same name shadows by overwrite
            items = self.evaluator.iter_eval(plan.expr, dict(request.bindings))
            # decided once per request: an administrator, or a platform
            # with no element policy, has nothing to filter
            if self.security.has_element_policies() \
                    and "admin" not in user.roles:
                items = (out for item in items
                         for out in self.security.filter_items([item], user))
            current, install = REQUEST.get, REQUEST.set
            with tracer.start("query", plan.source) as span:
                count = 0
                try:
                    for item in items:
                        count += 1
                        # the client's turn: whatever it opens is not ours,
                        # and we re-install only if it displaced us
                        request.running = False
                        yield item
                        if current() is not request:
                            install(request)
                        request.running = True
                except GeneratorExit:
                    span.set(items=count)  # abandoned: what was delivered
                    raise
                span.set(items=count)

    def explain(self, query: str,
                variables: dict[str, list[Item]] | None = None) -> str:
        """A readable rendering of the distributed plan for a query,
        followed by any plan-verifier diagnostics."""
        from ..compiler.explain import explain as explain_plan

        plan = self.prepare(query, variables)
        estimates = estimate(plan.expr, plan.plan_key, self.options)
        text = explain_plan(plan.expr, annotate=make_annotator(None, estimates))
        if plan.diagnostics is not None and len(plan.diagnostics):
            text += ("\nDIAGNOSTICS (" + plan.diagnostics.summary() + ")\n"
                     + plan.diagnostics.render_text(prefix="  "))
        return text + _binds_footer(plan)

    def lint(self, query: str,
             variables: dict[str, list[Item]] | None = None) -> "DiagnosticReport":
        """Run the full static analysis over a query and collect *all*
        diagnostics (design-mode behaviour, section 4.1): analysis errors
        are reported as ``ALDSP-E000`` and every plan-verifier pass runs
        regardless of severity.  Used by ``repro lint``."""
        from ..diagnostics import DiagnosticReport, make
        from ..schema.types import ITEM_STAR

        report = DiagnosticReport()
        options = dataclasses.replace(self.options, mode="design")
        compiler = Compiler(self.registry, self.module, self.inverses,
                            self.view_cache, options)
        externals = {name: ITEM_STAR for name in variables} if variables else None
        try:
            plan = compiler.compile_expression(query, externals=externals)
        except StaticError as exc:
            report.add(make("ALDSP-E000", str(exc), line=exc.line))
            return report
        for error in plan.errors:
            report.add(make("ALDSP-E000", error))
        if plan.diagnostics is not None:
            report.extend(plan.diagnostics)
        return report

    def execute_to_file(self, query: str, path, variables=None, user: User = ADMIN,
                        indent: int | None = None) -> int:
        """Server-side API: stream results straight to a file without
        materializing them first (section 2.2).  Returns the item count."""
        from ..xml.serialize import serialize_to_sink

        with open(path, "w") as sink:
            return serialize_to_sink(self.stream(query, variables, user),
                                     sink, indent,
                                     batch_size=self.config.batch_size)

    def call(self, function_name: str, *args: list[Item], user: User = ADMIN) -> list[Item]:
        """Invoke a data-service method (the mediator's method-call path)."""
        self._check_open()
        self.security.check_call(function_name, user)
        arity = len(args)
        plan = self._keyed_plan(
            f"#call:{function_name}#{arity}",
            lambda compiler: compiler.compile_call(function_name, arity))
        tracer = self.ctx.tracer
        # filed under the canonical call text (the plan's source), not the
        # internal plan-cache key, so `call("getProfile")` and an ad hoc
        # `getProfile()` observe as one plan in the stats store
        with tracer.request(plan.source, {
                f"__arg{i}": list(arg) for i, arg in enumerate(args)}) as request:
            self._arm_replan(plan, request)
            with tracer.start("query", function_name) as span:
                result = self.evaluator.eval(plan.expr, dict(request.bindings))
                span.set(items=len(result))
            return self.security.filter_items(result, user)

    def call_python(self, function_name: str, *args, user: User = ADMIN) -> list[Item]:
        """Convenience: call with plain Python argument values."""
        converted = [from_python(arg) for arg in args]
        return self.call(function_name, *converted, user=user)

    # ------------------------------------------------------------------------
    # Updates (section 6)
    # ------------------------------------------------------------------------

    def read_for_update(self, service_name: str, function_name: str, *args,
                        user: User = ADMIN) -> list[DataObject]:
        """Call a read method and wrap each result element as a tracked SDO."""
        items = self.call_python(function_name, *args, user=user)
        objects = []
        for item in items:
            if isinstance(item, ElementNode):
                objects.append(DataObject(item, service_name))
        return objects

    def lineage(self, service_name: str) -> LineageMap:
        if service_name in self._lineage_cache:
            return self._lineage_cache[service_name]
        service = self.services.get(service_name)
        if service is None or service.lineage_provider is None:
            raise UpdateError(f"no lineage provider for service {service_name!r}")
        decl = None
        for (fn_name, _arity), candidate in self.module.functions.items():
            if fn_name == service.lineage_provider:
                decl = candidate
                break
        if decl is None or decl.body is None:
            raise UpdateError(
                f"lineage provider {service.lineage_provider} has no body"
            )
        # Optimize (unfold views, resolve sources) but do not push SQL.
        from ..compiler.optimizer import Optimizer

        optimizer = Optimizer(self.registry, self.module, self.inverses)
        body = optimizer.optimize(decl.body.clone())
        lineage = LineageAnalyzer(self.inverses).analyze(body)
        self._lineage_cache[service_name] = lineage
        return lineage

    def submit(self, graph: DataGraph | DataObject,
               policy: ConcurrencyPolicy | None = None,
               user: User = ADMIN) -> SubmitResult:
        """Propagate SDO changes back to the affected sources atomically."""
        engine = SubmitEngine(
            self.ctx.databases, self.inverses.inverse_of, self._apply_inverse,
            resilience=self.ctx.resilience, tracer=self.ctx.tracer,
        )
        objects = graph.objects if isinstance(graph, DataGraph) else [graph]
        override = None
        for obj in objects:
            if obj.service_name in self._update_overrides:
                override = self._update_overrides[obj.service_name]
        for obj in objects:
            if obj.is_changed():
                self.security.check_call(f"submit:{obj.service_name}", user)
        return engine.submit(
            graph,
            lineage_for=lambda obj: self.lineage(obj.service_name),
            policy=policy,
            override=override,
        )

    def _apply_inverse(self, function_name: str, value):
        definition = None
        for arity in (1, 2):
            definition = self.registry.lookup(function_name, arity)
            if definition is not None:
                break
        if definition is None or definition.invoke is None:
            raise UpdateError(f"inverse function {function_name} is not registered")
        result = definition.invoke([from_python(value)])
        return to_python(result)
