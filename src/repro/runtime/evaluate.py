"""The evaluator: where a plan is entered, and what its expressions *do*.

The optimized/pushed tree *is* the executable plan (code generation in
ALDSP produces "a data structure that can be interpreted efficiently at
runtime", section 3.3), and there is one way to run it: every expression
is compiled once, to a closure (:mod:`repro.runtime.rowcompile`), and the
closure is called.  :class:`Evaluator` is what the closures are called
with.  ``eval`` / ``iter_eval`` enter a plan — a FLWOR streams through the
FLWOR runtime (:mod:`repro.runtime.batchexec`), the one pull-based
pipeline of clause operators (section 5.2), a pushed region through
:mod:`repro.runtime.operators.pushedsql` — and the *effects* exist once,
here: source calls and table scans, calls of the user functions the
optimizer left in place (function cache, recursion guard), and the
service-quality functions (async / fail-over / timeout).  A closure
evaluates the operands and calls the effect; what a value is lives in
:mod:`repro.runtime.kernels`.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Iterable, Iterator

from ..clock import VirtualClock
from ..compiler.algebra import PushedSQL, SourceCall
from ..errors import DynamicError, SourceError
from ..observability.tracer import REQUEST
from ..xml.items import Item
from ..xquery import ast_nodes as ast
from ..xquery.functions import atomize, numeric_value
from .batchexec import eval_flwor
from .context import DynamicContext
from .operators.group import GroupStats
from .operators.pushedsql import execute_pushed, record_fn
from .rowcompile import rowfn

Env = dict
#: an operand the effect runs itself, or not at all: ``() -> items``
Thunk = Callable[[], list]

#: nested calls one request may make of functions left in its plan
MAX_RECURSION = 64


class Evaluator:
    def __init__(self, ctx: DynamicContext):
        self.ctx = ctx
        #: user-function calls open on the calling request: a ContextVar,
        #: like the request itself, so the requests sharing this
        #: evaluator each count their own (``fn-bea:async`` branches
        #: inherit the depth they were started at)
        self._depth: contextvars.ContextVar = contextvars.ContextVar(
            "repro.recursion_depth", default=0)
        self.group_stats = GroupStats()

    # -- entry points ----------------------------------------------------------

    def eval(self, node: ast.AstNode, env: Env) -> list[Item]:
        return rowfn(node)(self, env)

    def iter_eval(self, node: ast.AstNode, env: Env) -> Iterator[Item]:
        """Lazy evaluation; FLWORs and pushed regions stream."""
        if isinstance(node, ast.FLWOR):
            yield from eval_flwor(self, node, env)
        elif isinstance(node, PushedSQL):
            yield from execute_pushed(node, env, self)
        else:
            yield from rowfn(node)(self, env)

    def variable(self, name: str) -> list[Item]:
        """The sequence bound to ``$name`` where the row does not bind it
        (``rowcompile._c_VarRef`` has just looked): an external of the
        calling request, else a module variable — evaluated at most once
        per request, since its value may depend on the request's externals.
        The binding itself, not a copy: callers that hand it on must copy
        it first."""
        request = REQUEST.get()
        if request is None:
            values = {}  # outside a request nothing is remembered
        elif name in request.bindings:
            return request.bindings[name]
        else:
            values = request.module_values
        module = self.ctx.module
        if module is None or name not in module.variables:
            raise DynamicError(f"unbound variable ${name}")
        value = values.get(name)
        if value is None:
            decl = module.variables[name]
            if decl.value is None:
                raise DynamicError(f"external variable ${name} was not bound")
            value = values[name] = self.eval(decl.value, {})
        return value

    # -- service-quality functions (sections 5.4, 5.6) ------------------------------

    def async_call(self, node: ast.FunctionCall, branch: Thunk) -> list[Item]:
        with self.ctx.tracer.start("async.call", node.name, op=node.op_id):
            return self.overlap([branch])[0]

    def overlap(self, branches: list[Thunk]) -> list[list[Item]]:
        """Run ``fn-bea:async`` branches as one parallel group.  In
        partial-results mode a branch whose source fails degrades to the
        empty sequence (with a DegradationRecord) instead of sinking the
        whole parallel group."""

        def guarded(branch: Thunk) -> Thunk:
            def thunk() -> list[Item]:
                try:
                    return branch()
                except SourceError as exc:
                    if self.ctx.absorb("fn-bea:async", exc):
                        return []
                    raise

            return thunk

        return self.ctx.async_exec.run_parallel([guarded(branch) for branch in branches])

    def fail_over(self, node: ast.FunctionCall, primary: Thunk,
                  alternate: Thunk) -> list[Item]:
        with self.ctx.tracer.start("fail-over", node.name, op=node.op_id) as span:
            try:
                result = primary()
                span.set(failed_over=False)
                return result
            except SourceError:
                span.set(failed_over=True)
                return alternate()

    def timeout(self, node: ast.FunctionCall, primary: Thunk, millis: Thunk,
                alternate: Thunk) -> list[Item]:
        with self.ctx.tracer.start("timeout", node.name, op=node.op_id):
            millis_atoms = atomize(millis())
            if len(millis_atoms) != 1:
                raise DynamicError("fn-bea:timeout: bad time limit")
            limit = float(numeric_value(millis_atoms[0]))
            # Only the virtual clock needs explicit charges: the branch's time
            # was *unwound* by measure().  In wall mode the time has physically
            # passed — charging again would double-count it — and measure()
            # itself bounds the wait at the limit.
            virtual = isinstance(self.ctx.clock, VirtualClock)
            result, elapsed, failed = self.ctx.async_exec.measure(
                primary, limit_ms=None if virtual else limit)
            if failed:
                if isinstance(result, (SourceError, TimeoutError)):
                    if virtual:
                        self.ctx.clock.charge_ms(min(elapsed, limit))
                    return alternate()
                assert isinstance(result, BaseException)
                raise result
            if elapsed > limit:
                # The primary took too long: the system fails over after the
                # time limit has elapsed (section 5.6).
                if virtual:
                    self.ctx.clock.charge_ms(limit)
                return alternate()
            if virtual:
                self.ctx.clock.charge_ms(elapsed)
            return result  # type: ignore[return-value]

    # -- function calls --------------------------------------------------------------------

    def call_user_function(self, node: ast.FunctionCall,
                           args: Iterable[list[Item]]) -> list[Item]:
        """Call a function the optimizer left as a call (result caching is
        per call, section 5.5; recursion past the unfolding depth).
        ``args`` is consumed once the function is resolved, so an unknown
        function fails before its arguments are evaluated."""
        decl = self.ctx.user_function(node.name, len(node.args))
        if decl is None or decl.body is None:
            raise DynamicError(f"unknown function {node.name}#{len(node.args)}")
        args = list(args)
        cache = self.ctx.cache
        use_cache = cache is not None and cache.is_enabled(node.name)
        if use_cache:
            key = cache.argument_key(args)
            with self.ctx.tracer.start("cache.lookup", node.name, op=node.op_id) as span:
                hit = cache.get(node.name, key)
                span.set(hit=hit is not None)
            if hit is not None:
                return hit
        depth = self._depth.get()
        if depth >= MAX_RECURSION:
            raise DynamicError(f"recursion limit exceeded calling {node.name}")
        call_env: Env = {}
        for param, value in zip(decl.params, args):
            call_env[param.name] = value
        token = self._depth.set(depth + 1)
        try:
            result = self.eval(self.ctx.body_plan(decl), call_env)
        finally:
            self._depth.reset(token)
        if use_cache:
            cache.put(node.name, key, result)
        return result

    # -- data sources -----------------------------------------------------------------------

    def call_source(self, node: SourceCall, args: Iterable[list[Item]]) -> list[Item]:
        """Invoke a functional source, or scan a table no region pushed
        (``args`` as for :meth:`call_user_function`)."""
        definition = self.ctx.registry.lookup(node.name, len(node.args))
        if definition is None:
            raise SourceError(f"source function {node.name} is not registered")
        if node.kind == "table":
            return self._scan_table(node)
        args = list(args)
        cache = self.ctx.cache
        use_cache = cache is not None and cache.is_enabled(node.name)
        if use_cache:
            key = cache.argument_key(args)
            with self.ctx.tracer.start("cache.lookup", node.name, op=node.op_id) as span:
                hit = cache.get(node.name, key)
                span.set(hit=hit is not None)
            if hit is not None:
                return hit
        assert definition.invoke is not None
        self.ctx.stats.bump(service_calls=1)
        resilience = self.ctx.resilience
        adaptor = definition.adaptor
        source = adaptor.name if adaptor is not None else node.name
        stats = adaptor.stats if adaptor is not None else None
        with self.ctx.tracer.start("source-call", source, op=node.op_id) as span:
            try:
                result = resilience.call(source, lambda: definition.invoke(args),
                                         stats=stats)
            except SourceError as exc:
                if self.ctx.absorb(source, exc):
                    span.set(degraded=True)
                    return []  # degraded: empty sequence, never cached
                raise
            span.set(rows=len(result))
        if use_cache:
            cache.put(node.name, key, result)
        return result

    def _scan_table(self, node: SourceCall) -> list[Item]:
        """Fallback full scan for an unpushed table function."""
        meta = node.table_meta
        assert meta is not None
        columns = ", ".join(f't1."{name}" AS {name}' for name, _t in meta.columns)
        sql = f'SELECT {columns} FROM "{meta.table}" t1'
        with self.ctx.tracer.start("table-scan", meta.table, op=node.op_id) as span:
            try:
                rows = self.ctx.connection(meta.database).execute_query(sql)
            except SourceError as exc:
                if self.ctx.absorb(meta.database, exc):
                    span.set(degraded=True)
                    return []
                raise
            span.set(rows=len(rows))
        build = record_fn(meta.element_name,
                          tuple((name, xs_type, name) for name, xs_type in meta.columns))
        items: list[Item] = []
        for row in rows:
            items.extend(build(row, [row]))
        return items
