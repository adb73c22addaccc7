"""The seven-stage query processing pipeline (section 3.3).

1. Parsing, 2. expression tree construction, 3. normalization, 4. type
checking (stages 1–4 are the *analysis phase*, with design-time error
recovery), 5. optimization (view unfolding, simplification, inverse
functions, SQL pushdown), 6. code generation (the optimized tree is the
interpretable plan), 7. execution (:mod:`repro.runtime.evaluate`).

A :class:`PlanCache` keyed on query text, then on query *shape* (the text
with its liftable literals turned into binds), avoids recompiling popular
queries (section 2.2's query plan cache).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field

from ..concurrency import RACE, TrackedRLock, guarded_by
from ..config import EngineConfig
from ..errors import StaticError
from ..schema.types import ITEM_STAR, atomic
from ..xquery import ast_nodes as ast
from ..xquery.normalize import normalize, normalize_module
from ..xquery.parser import Parser, gensym_scope
from ..xquery.shape import bind_value, kinds, lift, lifted_name, rebuild, scan
from ..xquery.typecheck import FunctionTable, TypeChecker
from .inverse import InverseRegistry
from .optimizer import Optimizer
from .views import ViewPlanCache


@dataclass
class CompilerOptions:
    #: "runtime" fails on the first error; "design" recovers (section 4.1)
    mode: str = "runtime"
    #: the engine configuration's compile-time fields shape the plan
    config: EngineConfig = field(default_factory=EngineConfig)
    #: functions kept as calls (result caching granularity)
    no_inline: set[tuple[str, int]] = field(default_factory=set)
    #: what the costing pass reads (:mod:`repro.compiler.costing`): a
    #: :class:`~repro.compiler.costing.CostingOptions`, or None for a
    #: compiler with no statistics (the pass then never runs)
    cost: object = None


@dataclass
class CompiledPlan:
    """Result of compilation: an interpretable expression tree plus the
    analysis artifacts."""

    expr: ast.AstNode
    module: ast.Module | None
    errors: list[str] = field(default_factory=list)
    source: str = ""
    #: plan-verifier findings (None when analysis errors stopped the
    #: compile before the verifier)
    diagnostics: object | None = None
    #: a plan served by the plan cache carries the values of the literals
    #: that were lifted out of its text (``$#litK`` -> items), bound as
    #: external variables at execution beside the caller's own
    binds: dict = field(default_factory=dict)
    #: what identifies the plan (:func:`plan_key_text`): the query text —
    #: for a parameterised plan the *shape-level* text, lifted literals
    #: spelled ``$#litK`` — plus the external names
    plan_key: str = ""


class Compiler:
    def __init__(
        self,
        registry=None,
        module: ast.Module | None = None,
        inverses: InverseRegistry | None = None,
        view_cache: ViewPlanCache | None = None,
        options: CompilerOptions | None = None,
    ):
        from ..services.metadata import MetadataRegistry

        self.registry = registry or MetadataRegistry()
        self.module = module
        self.inverses = inverses or InverseRegistry()
        self.view_cache = view_cache if view_cache is not None else ViewPlanCache()
        self.options = options or CompilerOptions()

    # -- module analysis (deploying a data service file) -------------------------

    def analyze_module(self, text: str) -> ast.Module:
        """Stages 1–4 over a data-service file.

        Previously deployed functions (``self.module``) stay visible so a
        data service can compose functions of other services.
        """
        with gensym_scope():
            module = Parser(text, self.options.mode).parse_module()
            normalize_module(module)
            table = FunctionTable(
                [module, self.module] if self.module is not None else module,
                self.registry.signatures())
            checker = TypeChecker(table, self.options.mode)
            checker.check_module(module)
            module.errors.extend(checker.errors)
            return module

    # -- query compilation ------------------------------------------------------------

    def compile_expression(self, text: str, externals: dict | None = None) -> CompiledPlan:
        """Full pipeline over an ad hoc query expression.

        ``externals`` declares external variables (name -> SequenceType)
        bound at execution time.
        """
        with gensym_scope():
            parser = Parser(text, self.options.mode)
            expr = parser.parse_main_expression()
            return self.compile_tree(expr, source=text, externals=externals)

    def compile_tree(self, expr: ast.AstNode, source: str = "",
                     externals: dict | None = None,
                     plan_key: str | None = None) -> CompiledPlan:
        """``plan_key`` names the plan (:func:`plan_key_text` of the source
        and external names unless given): the plan carries it, and the
        costing pass reads the plan's observed actuals under it."""
        with gensym_scope():
            return self._compile_tree(
                expr, source, externals,
                plan_key or plan_key_text(source, externals))

    def _compile_tree(self, expr: ast.AstNode, source: str,
                      externals: dict | None, plan_key: str) -> CompiledPlan:
        expr = normalize(expr)
        checker = TypeChecker(self._function_table(self.module), self.options.mode)
        env = self._static_env(externals)
        checker.infer(expr, env)
        return self._plan(expr, env, list(checker.errors), source, plan_key)

    def _static_env(self, externals: dict | None) -> dict:
        env = dict(externals or {})
        if self.module is not None:
            for name, var in self.module.variables.items():
                env.setdefault(name, var.declared_type or ITEM_STAR)
        return env

    def _plan(self, expr: ast.AstNode, env: dict, errors: list[str],
              source: str, plan_key: str) -> CompiledPlan:
        """Stages 5-6 over an analyzed tree whose free variables are the
        names of ``env``."""
        optimizer = Optimizer(
            self.registry,
            self.module,
            self.inverses,
            self.view_cache,
            no_inline=self.options.no_inline,
        )
        expr = optimizer.optimize(expr)
        from .optimizer import canonicalize_gensyms

        # Deterministic plans: renumber gensyms in pre-order so a repeat
        # compile (warm view cache, different counter state) is
        # byte-identical, and pushdown draws from a canonical counter.
        expr = canonicalize_gensyms(expr)
        from ..sql.rewriter import push_sql

        config = self.options.config
        expr = push_sql(expr, config, bound=frozenset(env))
        cost = self.options.cost
        if cost is not None and (config.cost_based
                                 or config.force_strategy is not None):
            from .costing import apply_costing

            # (keyed on the user-visible externals only: module variables
            # are not part of the plan key)
            expr = apply_costing(expr, plan_key, cost, config.force_strategy)
        from .scatter import stamp_scatter_groups

        stamp_scatter_groups(expr)
        from .explain import assign_operator_ids

        # Stable operator identity: explain, profile and the tracer all
        # join on these ids, and cached plans keep them across executions.
        assign_operator_ids(expr)
        from .batching import stamp_batch_capability

        stamp_batch_capability(expr)
        plan = CompiledPlan(expr, self.module, errors, source, plan_key=plan_key)
        if not plan.errors:
            # every plan is verified: in runtime mode error-severity
            # diagnostics raise PlanVerificationError, in design mode they
            # are collected on the plan like analysis errors
            from .verify import verify_plan

            report = verify_plan(expr, externals=frozenset(env),
                                 push_enabled=config.pushdown)
            plan.diagnostics = report
            if self.options.mode == "runtime":
                report.raise_if_errors(source or type(expr).__name__)
        return plan

    def compile_call(self, function_name: str, arity: int) -> CompiledPlan:
        """Compile a data-service method invocation ``f($p1, ...)`` with the
        arguments supplied as external variables at execution time."""
        params = [f"__arg{i}" for i in range(arity)]
        args = ", ".join(f"${p}" for p in params)
        call_source = f"{function_name}({args})"
        with gensym_scope():
            parser = Parser(call_source)
            expr = parser.parse_main_expression()
            externals = {p: ITEM_STAR for p in params}
            return self.compile_tree(expr, source=call_source, externals=externals)

    def compile_body(self, decl: ast.FunctionDecl) -> CompiledPlan:
        """The plan of one call of ``decl`` that the optimizer left in place
        (a function whose results are cached, recursion past the unfolding
        depth): its body — analyzed when it was deployed — optimized and
        pushed like any query, the parameters being external variables
        the call binds.  The function itself stays a call in its own body,
        so one runtime call is one level of recursion."""
        key = (decl.name, decl.arity())
        source = f"{decl.name}#{decl.arity()} body"
        # (no shared view cache: bodies unfolded with ``decl`` pinned are
        # not the ones other plans unfold)
        options = dataclasses.replace(
            self.options, no_inline=self.options.no_inline | {key})
        pinned = Compiler(self.registry, self.module, self.inverses, None, options)
        env = self._static_env(
            {param.name: param.declared_type or ITEM_STAR for param in decl.params})
        with gensym_scope():
            plan = pinned._plan(decl.body.clone(), env, [], source, source)
        for node in plan.expr.every_node():
            # operator ids name the operators of the *calling* plan in its
            # explain, profile and trace; a body's spans carry none — nor
            # do those of a node a stamp holds (an index join's PP-k twin)
            node.__dict__.pop("op_id", None)
        return plan

    def _function_table(self, module: ast.Module | None) -> FunctionTable:
        return FunctionTable(module, self.registry.signatures())


def plan_key_text(source: str, externals=()) -> str:
    """The text a plan is identified by — in the plan cache, and (hashed
    by :func:`~repro.observability.plan_fingerprint`) in the flight
    recorder, the plan-stats store and the costing pass: the source plus
    the sorted *names* of its external variables."""
    names = sorted(externals) if externals else ()
    return source if not names else f"{source}\n#externals:{','.join(names)}"


# ---------------------------------------------------------------------------
# Plan agreement: is a parameterised plan the inline plan modulo binds?
# ---------------------------------------------------------------------------


def inline_binds(select, param_exprs: list, binds: dict):
    """A pushed region's SQL with every lifted bind rendered back as its
    literal: ``(select, remaining param_exprs)``, the remaining parameters
    renumbered densely in their original order."""
    from ..sql.ast_nodes import Param, SqlLiteral

    renumber: dict[int, int] = {}
    remaining = []
    for index, expr in enumerate(param_exprs):
        if not (isinstance(expr, ast.VarRef) and expr.name in binds):
            renumber[index] = len(remaining)
            remaining.append(expr)

    def swap(node):
        if isinstance(node, Param):
            if node.index in renumber:
                return Param(renumber[node.index])
            return SqlLiteral(binds[param_exprs[node.index].name].value)
        if isinstance(node, list):
            return [swap(entry) for entry in node]
        if isinstance(node, tuple):
            return tuple(swap(entry) for entry in node)
        if dataclasses.is_dataclass(node):
            return dataclasses.replace(node, **{
                f.name: swap(getattr(node, f.name))
                for f in dataclasses.fields(node)})
        return node

    return swap(select), remaining


def plans_agree(inline, served, binds: dict) -> bool:
    """Is ``served`` (compiled with lifted literals as the externals
    ``binds``: name -> the literal's :class:`AtomicValue`) the plan
    ``inline`` modulo binds?  The same operator tree, stamps and
    templates, a ``$#litK`` reference exactly where ``inline`` holds that
    literal, and every pushed region's SQL equal once each lifted bind is
    rendered back as its literal (so no pushdown, ``LIMIT`` or predicate
    was lost to parameterisation)."""
    if isinstance(served, ast.VarRef) and served.name in binds:
        return isinstance(inline, ast.Literal) and inline.value == binds[served.name]
    if inline.__class__ is not served.__class__:
        return False
    if isinstance(inline, ast.AstNode):
        names = ast.declared(inline.__class__)  # memos are not the plan
        if "select" in names:  # a pushed region
            select, params = inline_binds(served.select, served.param_exprs, binds)
            if inline.select != select or \
                    not plans_agree(inline.param_exprs, params, binds):
                return False
            names = tuple(n for n in names if n not in ("select", "param_exprs"))
        return all(plans_agree(getattr(inline, name), getattr(served, name), binds)
                   for name in names)
    if isinstance(inline, (list, tuple)):
        return len(inline) == len(served) and all(
            plans_agree(a, b, binds) for a, b in zip(inline, served))
    if inline == served:
        return True
    # plain records (a step's NameTest, a region's Correlation and its
    # outer-key expression): field by field
    state = getattr(inline, "__dict__", None)
    return state is not None and state.keys() == vars(served).keys() and all(
        plans_agree(value, getattr(served, name), binds)
        for name, value in state.items())


# ---------------------------------------------------------------------------
# The plan cache: text -> shape -> plan
# ---------------------------------------------------------------------------


@dataclass
class _Variant:
    """One parameterisation of a shape: which candidates are lifted, the
    text of every pinned one, and the plan — None when the shape is
    *unparameterisable* under these pinned values (nothing liftable, or
    the parameterised plan disagreed with the inline one)."""

    #: candidate index -> text, for every candidate that is not lifted
    pinned: dict[int, str]
    plan: CompiledPlan | None = None
    #: per lifted literal: (``#litK``, candidate index, placeholder kind)
    lifted: tuple[tuple[str, int, str], ...] = ()

    def matches(self, candidates: list[str]) -> bool:
        return all(candidates[index] == raw for index, raw in self.pinned.items())

    def bind(self, query: str, candidates: list[str]) -> CompiledPlan:
        """The plan bound to this text's lifted values."""
        binds = {name: [bind_value(kind, candidates[index])]
                 for name, index, kind in self.lifted}
        return dataclasses.replace(self.plan, source=query, binds=binds)


def _match(variants, candidates: list[str]) -> _Variant | None:
    return next((v for v in variants if v.matches(candidates)), None)


#: parameterisations kept per shape; past it a new pinned value (a page
#: size, a ``[N]``) is served text-keyed without a second compile
_MAX_VARIANTS = 8


@guarded_by("_lock")
class PlanCache:
    """Two-level LRU cache of compiled query plans (section 2.2).

    * **Front**: the exact text (plus external names) -> the plan bound to
      that text's literals; a repeated text costs one ``dict`` get.
    * **Shape**: on a text miss, :func:`repro.xquery.shape.scan` gives the
      text's shape key and its literal candidates; the shape's
      :class:`_Variant` whose pinned candidates match serves every text
      that differs only in *lifted* literals, which are bound as the typed
      externals ``$#litK`` — scan, lookup, bind, no compile.

    The first sighting of a shape compiles twice: inline, exactly as
    ``Compiler.compile_expression`` always has, and with the liftable
    literals lifted; the parameterised plan is kept only if
    :func:`plans_agree` says it is the inline plan modulo binds.  A
    parameterised plan is correct for every binding by the
    external-variable semantics; the check guards plan *quality*.

    ``capacity`` counts front entries and shapes together.  ``hits`` and
    ``misses`` keep their text-level meaning; ``shape_hits`` counts text
    misses served by a shape, ``compiles`` compiler runs and
    ``unparameterisable`` text misses whose shape holds no plan for them.

    Thread-safety (A-CONC): ``_lock`` guards the one LRU map (front
    entries keyed by ``str``, shapes by tuple) and the counters — every
    request thread goes through :meth:`prepare`.  Compiles run outside
    the lock; of two concurrent first sightings the first insert wins."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._lock = TrackedRLock("PlanCache")
        self._plans: "OrderedDict[str | tuple, CompiledPlan | list[_Variant]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.shape_hits = 0
        self.compiles = 0
        self.unparameterisable = 0

    def get(self, key):
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                self.hits += 1
                RACE.detector.on_access(self, "_plans", True)
                return self._plans[key]
            self.misses += 1
            return None

    def put(self, key, entry, compiles: int = 0) -> None:
        """Insert ``entry``, which took ``compiles`` compiler runs to make."""
        with self._lock:
            self.compiles += compiles
            self._plans[key] = entry
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
            RACE.detector.on_access(self, "_plans", True)

    def prepare(self, query: str, names: tuple[str, ...], compiler) -> CompiledPlan:
        """The plan for ``query`` with externals ``names``, bound to the
        query's own literals; ``compiler()`` makes the compiler on a miss."""
        key = plan_key_text(query, names)
        plan = self.get(key)
        if plan is None:
            plan, compiles = self._text_miss(query, names, compiler)
            self.put(key, plan, compiles)
        return plan

    def _text_miss(self, query: str, names: tuple[str, ...],
                   compiler) -> tuple[CompiledPlan, int]:
        shape_key, candidates = scan(query)
        shape = (shape_key, names)
        with self._lock:
            variants = self._plans.get(shape, ())
            if variants:
                self._plans.move_to_end(shape)
            variant = _match(variants, candidates)
            if variant is not None and variant.plan is not None:
                self.shape_hits += 1
                return variant.bind(query, candidates), 0
        compiler = compiler()
        externals = dict.fromkeys(names, ITEM_STAR)
        plan = compiler.compile_expression(query, externals=externals or None)
        compiles = 1
        first_sighting = variant is None and bool(candidates) \
            and len(variants) < _MAX_VARIANTS
        if first_sighting:
            variant, extra = _parameterise(
                compiler, plan, externals, shape_key, candidates)
            compiles += extra
        with self._lock:
            if first_sighting:
                variants = self._plans.get(shape)
                if variants is None:
                    self.put(shape, variants := [])
                winner = _match(variants, candidates)  # a concurrent sighting
                if winner is None:
                    variants.append(variant)
                else:
                    variant = winner
            if variant is not None and variant.plan is not None:
                plan = variant.bind(query, candidates)
            elif candidates:
                self.unparameterisable += 1
        return plan, compiles

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            RACE.detector.on_access(self, "_plans", True)

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.shape_hits = 0
            self.compiles = 0
            self.unparameterisable = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


def _parameterise(compiler: Compiler, inline: CompiledPlan, externals: dict,
                  shape_key: str, candidates: list[str]) -> tuple[_Variant, int]:
    """The first sighting's second compile: ``(variant, compiles run)``."""
    query = inline.source
    negative = _Variant(dict(enumerate(candidates)))
    if inline.errors or "(::pragma" in query:
        return negative, 0
    with gensym_scope():
        parser = Parser(query, compiler.options.mode)
        expr, lifted = lift(parser.parse_main_expression(), parser.literals, query)
        if not lifted:
            return negative, 0
        shape_kinds = kinds(shape_key)
        variant = _Variant(
            {index: raw for index, raw in enumerate(candidates)
             if index not in lifted},
            lifted=tuple((lifted_name(k), index, shape_kinds[index])
                         for k, index in enumerate(lifted)))
        binds = {name: bind_value(kind, candidates[index])
                 for name, index, kind in variant.lifted}
        typed = dict(externals)
        typed.update((name, atomic(value.type_name)) for name, value in binds.items())
        # the shape-level text: lifted literals spelled as their externals
        spelled = list(candidates)
        for name, index, _kind in variant.lifted:
            spelled[index] = "$" + name
        source = rebuild(shape_key, spelled)
        # a lifted literal's type is part of what names the plan
        key = plan_key_text(source, [
            f"{name} as {typed[name].show()}" if name in binds else name
            for name in typed])
        try:
            plan = compiler.compile_tree(expr, source, typed, plan_key=key)
        except StaticError:
            return variant, 1
    if not plan.errors and plans_agree(inline.expr, plan.expr, binds):
        variant.plan = plan
    return variant, 1
