"""Static concurrency lint (A-CONC): lockset discipline, checked at rest.

The mid-tier engine state reachable from ``Platform``/``DynamicContext`` —
the function and statement caches, ``SourceStats``/``RuntimeStats``
counters, the observed cost model, the metrics registry, breakers, the
tracer — is crossed by every request thread once a serving layer exists.
This pass parses the engine's own source and verifies the locking
discipline *before* a prod-shaped workload does:

* :data:`REGISTRY` names the shared engine classes (adding a class here is
  how new shared state opts into checking).
* For each class, the lint discovers its lock attributes (``self._lock =
  TrackedRLock(...)`` / ``threading.RLock()`` / ``self._init_lock(...)``),
  reads the :func:`~repro.concurrency.guarded_by` declaration, and infers
  the *shared mutable attributes*: any ``self.<attr>`` assigned, augmented,
  deleted, subscript-stored or container-mutated (``append``/``pop``/
  ``move_to_end``/...) outside ``__init__``/``__post_init__``.
* Each mutation site must be lexically inside ``with self.<lock>:`` for the
  declared guard.  ``# caller-holds: <lock>`` on a ``def`` line transfers
  the obligation to callers (private helpers); ``# race-ok: <why>`` on a
  mutation line downgrades the finding to an audited note (``C406``) — the
  justification is part of the report.
* A second, repo-wide pass flags raw counter writes (``x.stats.hits += 1``)
  anywhere outside the owning object — those read-modify-writes must go
  through the synchronized ``bump()`` API (``C407``).  The counter
  fields are read off the ``SyncCounters`` declarations themselves.

Findings are :class:`~repro.diagnostics.Diagnostic` records in the
``ALDSP-C4xx`` family, rendered through the same text/JSON machinery as the
plan verifier, surfaced by ``repro lint --concurrency`` and ``make
lint-concurrency``.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

from ..diagnostics import Diagnostic, DiagnosticReport, make

#: the engine package the lint reads by default
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: shared engine classes under lint, by module path relative to the package
REGISTRY: dict[str, tuple[str, ...]] = {
    "clock.py": ("VirtualClock",),
    "compiler/pipeline.py": ("PlanCache",),
    "compiler/stats.py": ("StatisticsCatalog",),
    "compiler/views.py": ("ViewPlanCache",),
    "concurrency.py": ("SyncCounters",),
    "observability/continuous.py": (
        "ContinuousTracer", "TraceSampler", "FlightRecorder"),
    "observability/metrics.py": (
        "MetricsRegistry", "Counter", "Gauge", "Histogram",
        "WindowedCounter", "WindowedHistogram"),
    # (``Request`` is not here: its fields are written by the thread that
    # runs the request only, and the one thing its pool branches write —
    # the degradation list — is appended under ResilienceManager's lock)
    "observability/tracer.py": ("QueryTracer",),
    "relational/database.py": ("SourceStats",),
    "relational/prepared.py": ("StatementCache",),
    "relational/table.py": ("Table",),
    "resilience/manager.py": ("ResilienceManager", "SourceGuard"),
    "resilience/policy.py": ("CircuitBreaker",),
    "runtime/asyncexec.py": ("AsyncExecutor",),
    "runtime/batchexec.py": ("BatchProbe",),
    "runtime/cache.py": ("FunctionCache", "CacheStats"),
    "runtime/context.py": ("RuntimeStats",),
    "runtime/observed.py": ("ObservedStatistics",),
    "runtime/operators/group.py": ("GroupStats",),
    "server/admission.py": ("AdmissionController", "TokenBucket"),
    "server/session.py": ("SessionManager",),
    "sources/files.py": ("FileAdaptor",),
    "xml/items.py": ("DeferredElement",),
}


#: method names that mutate their receiver (built-in containers)
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "move_to_end", "add", "discard",
    "appendleft", "popleft", "sort", "reverse",
})

#: calls that create a lock when assigned to an attribute
_LOCK_FACTORIES = frozenset({"RLock", "Lock", "TrackedRLock"})

_CALLER_HOLDS = re.compile(r"#\s*caller-holds:\s*([A-Za-z_][A-Za-z0-9_]*)")
_GUARDED_BY_COMMENT = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_RACE_OK = re.compile(r"#\s*race-ok:\s*(.*)")


def _self_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``self.a.b.c`` -> ``("a", "b", "c")``; None if not rooted at self."""
    chain = _name_chain(node)
    if chain and chain[0] == "self":
        return chain[1:]
    return None


def _name_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` -> ``("a", "b", "c")`` for pure Name/Attribute chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _Mutation:
    """One write to shared state found in a method body."""

    __slots__ = ("attr", "line", "held", "kind")

    def __init__(self, attr: str, line: int, held: frozenset, kind: str):
        self.attr = attr
        self.line = line
        self.held = held
        self.kind = kind


class _ClassModel:
    """Locks, guard declaration and mutation sites of one class."""

    def __init__(self, node: ast.ClassDef, lines: list[str]):
        self.node = node
        self.name = node.name
        self.lines = lines
        self.locks: set[str] = set()
        self.declared_guard: str | None = None
        self.attr_guards: dict[str, str] = {}
        self.mutations: list[_Mutation] = []
        #: reads of ``self.<attr>`` outside init, for the strict C405 pass
        self.reads: list[_Mutation] = []
        self._scan_decorators()
        self._scan_locks_and_guards()
        self._scan_mutations()

    # -- discovery -----------------------------------------------------------

    def _scan_decorators(self) -> None:
        for decorator in self.node.decorator_list:
            if (isinstance(decorator, ast.Call)
                    and _name_chain(decorator.func) is not None
                    and _name_chain(decorator.func)[-1] == "guarded_by"
                    and decorator.args
                    and isinstance(decorator.args[0], ast.Constant)):
                self.declared_guard = str(decorator.args[0].value)

    def _methods(self):
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item

    def _scan_locks_and_guards(self) -> None:
        # one lock for every instance (``_lock = TrackedRLock(...)`` in the
        # class body): what a class of many small objects can afford
        for stmt in self.node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and self._is_lock_value(stmt.value, ""):
                self.locks.add(stmt.targets[0].id)
        for method in self._methods():
            init = method.name in ("__init__", "__post_init__")
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    chain = _self_chain(stmt.targets[0])
                    if chain is None or len(chain) != 1:
                        continue
                    attr = chain[0]
                    if self._is_lock_value(stmt.value, attr):
                        self.locks.add(attr)
                    elif init:
                        comment = _GUARDED_BY_COMMENT.search(
                            self._line(stmt.lineno))
                        if comment:
                            self.attr_guards[attr] = comment.group(1)
                elif (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)):
                    chain = _name_chain(stmt.value.func)
                    if chain == ("self", "_init_lock"):
                        self.locks.add("_lock")

    @staticmethod
    def _is_lock_value(value: ast.expr, attr: str) -> bool:
        if isinstance(value, ast.Call):
            chain = _name_chain(value.func)
            if chain and chain[-1] in _LOCK_FACTORIES:
                return True
        # `self._lock = lock` — a lock passed in (shared-registry pattern)
        return bool(re.fullmatch(r"_?lock", attr))

    # -- mutation walk -------------------------------------------------------

    def _line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def _scan_mutations(self) -> None:
        for method in self._methods():
            if method.name in ("__init__", "__post_init__", "__new__"):
                continue
            held: frozenset = frozenset()
            caller = _CALLER_HOLDS.search(self._line(method.lineno))
            if caller:
                held = frozenset({caller.group(1)})
            self._visit_block(method.body, held)

    def _visit_block(self, stmts, held: frozenset) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt, held)

    def _visit_stmt(self, stmt: ast.stmt, held: frozenset) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in stmt.items:
                self._scan_calls(item.context_expr, held)
                self._scan_reads(item.context_expr, held)
                chain = _self_chain(item.context_expr)
                if chain and len(chain) == 1 and chain[0] in self.locks:
                    inner.add(chain[0])
            self._visit_block(stmt.body, frozenset(inner))
        elif isinstance(stmt, ast.If):
            self._scan_calls(stmt.test, held)
            self._scan_reads(stmt.test, held)
            self._visit_block(stmt.body, held)
            self._visit_block(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter, held)
            self._scan_reads(stmt.iter, held)
            self._visit_block(stmt.body, held)
            self._visit_block(stmt.orelse, held)
        elif isinstance(stmt, ast.While):
            self._scan_calls(stmt.test, held)
            self._scan_reads(stmt.test, held)
            self._visit_block(stmt.body, held)
            self._visit_block(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self._visit_block(stmt.body, held)
            for handler in stmt.handlers:
                self._visit_block(handler.body, held)
            self._visit_block(stmt.orelse, held)
            self._visit_block(stmt.finalbody, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a closure may outlive the lexical lock scope: check it bare
            self._visit_block(stmt.body, frozenset())
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                self._record_target(target, stmt.lineno, held)
            value = getattr(stmt, "value", None)
            if value is not None:
                self._scan_calls(value, held)
                self._scan_reads(value, held)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target(target, stmt.lineno, held, kind="delete")
        else:
            self._scan_calls(stmt, held)
            self._scan_reads(stmt, held)

    def _record_target(self, target: ast.expr, lineno: int, held: frozenset,
                       kind: str = "assign") -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, lineno, held, kind)
            return
        if isinstance(target, ast.Subscript):
            chain = _self_chain(target.value)
            if chain:
                self.mutations.append(
                    _Mutation(chain[0], lineno, held, "subscript"))
            return
        chain = _self_chain(target)
        if chain and chain[0] not in self.locks:
            self.mutations.append(_Mutation(chain[0], lineno, held, kind))

    def _scan_calls(self, node: ast.AST, held: frozenset) -> None:
        """Mutating container-method calls anywhere inside an expression
        (``self._cursors.setdefault(...)``, ``return self._plans.pop(k)``)."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS):
                chain = _self_chain(func.value)
                if chain:
                    self.mutations.append(
                        _Mutation(chain[0], call.lineno, held, func.attr))

    def _scan_reads(self, node: ast.AST, held: frozenset) -> None:
        """Loads of ``self.<attr>`` (strict mode flags unguarded ones)."""
        for expr in ast.walk(node):
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.ctx, ast.Load)):
                chain = _self_chain(expr)
                if chain and chain[0] not in self.locks:
                    self.reads.append(
                        _Mutation(chain[0], expr.lineno, held, "read"))

    # -- verdicts ------------------------------------------------------------

    def guard_for(self, attr: str) -> str | None:
        if attr in self.attr_guards:
            return self.attr_guards[attr]
        if self.declared_guard is not None:
            return self.declared_guard
        if len(self.locks) == 1:
            return next(iter(self.locks))
        return None

    def shared_attrs(self) -> set[str]:
        return {mutation.attr for mutation in self.mutations}


def _enclosing_method(cls: ast.ClassDef, lineno: int) -> str:
    name = "?"
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and item.lineno <= lineno:
            name = item.name
    return name


def analyze_source(source: str, module: str,
                   classes: tuple[str, ...] | None = None,
                   strict: bool = False) -> DiagnosticReport:
    """Run the concurrency lint over one module's source text.

    ``classes`` restricts the per-class pass (default: the REGISTRY entry
    for ``module``, or every class when the module is unregistered).  The
    C407 foreign-counter pass always covers the whole module.
    """
    report = DiagnosticReport()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.add(make("ALDSP-E000", f"cannot parse {module}: {exc}",
                        location=module))
        return report
    lines = source.splitlines()
    wanted = classes if classes is not None else REGISTRY.get(module)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if wanted is not None and node.name not in wanted:
            continue
        _check_class(_ClassModel(node, lines), module, report, strict)
    _foreign_counter_pass(tree, module, lines, report)
    return report


def _check_class(model: _ClassModel, module: str, report: DiagnosticReport,
                 strict: bool) -> None:
    where = f"{module}:{model.name}"
    if model.declared_guard and model.declared_guard not in model.locks:
        report.add(make(
            "ALDSP-C402",
            f"{model.name} declares guarded_by({model.declared_guard!r}) "
            f"but defines no such lock",
            location=where, line=model.node.lineno,
            guard=model.declared_guard,
        ))
    for attr, guard in model.attr_guards.items():
        if guard not in model.locks:
            report.add(make(
                "ALDSP-C402",
                f"{model.name}.{attr} is annotated guarded-by {guard} "
                f"but the class defines no such lock",
                location=where, line=model.node.lineno,
                attr=attr, guard=guard,
            ))
    if not model.locks:
        if model.shared_attrs():
            first = min(model.mutations, key=lambda m: m.line)
            report.add(make(
                "ALDSP-C403",
                f"{model.name} mutates shared state "
                f"({', '.join(sorted(model.shared_attrs()))}) but defines "
                f"no lock",
                location=where, line=first.line,
                attrs=sorted(model.shared_attrs()),
            ))
        return
    for mutation in model.mutations:
        method = _enclosing_method(model.node, mutation.line)
        location = f"{where}.{method}"
        suppression = _RACE_OK.search(model._line(mutation.line))
        guard = model.guard_for(mutation.attr)
        if suppression:
            report.add(make(
                "ALDSP-C406",
                f"{model.name}.{mutation.attr} mutation accepted unguarded: "
                f"{suppression.group(1).strip()}",
                location=location, line=mutation.line,
                attr=mutation.attr, justification=suppression.group(1).strip(),
            ))
            continue
        if guard is not None and guard in mutation.held:
            continue
        if guard is None and mutation.held:
            continue
        if mutation.held:
            report.add(make(
                "ALDSP-C404",
                f"{model.name}.{mutation.attr} is guarded by "
                f"{guard} but this {mutation.kind} holds "
                f"{', '.join(sorted(mutation.held))} instead",
                location=location, line=mutation.line,
                attr=mutation.attr, guard=guard, held=sorted(mutation.held),
            ))
        else:
            report.add(make(
                "ALDSP-C401",
                f"{model.name}.{mutation.attr} {mutation.kind} without "
                f"holding {guard or 'any lock'}",
                location=location, line=mutation.line,
                attr=mutation.attr, guard=guard,
            ))
    if strict:
        shared = model.shared_attrs()
        seen: set[tuple[str, int]] = set()
        for read in model.reads:
            if read.attr not in shared or (read.attr, read.line) in seen:
                continue
            guard = model.guard_for(read.attr)
            if guard is None or read.held:
                continue
            if _RACE_OK.search(model._line(read.line)):
                continue
            seen.add((read.attr, read.line))
            method = _enclosing_method(model.node, read.line)
            report.add(make(
                "ALDSP-C405",
                f"{model.name}.{read.attr} read without holding {guard} "
                f"(strict): a concurrent mutation may be mid-flight",
                location=f"{where}.{method}", line=read.line,
                attr=read.attr, guard=guard,
            ))


def declared_counters(tree: ast.Module) -> set[str]:
    """The ``int`` fields declared by every class of ``tree`` whose bases
    include ``SyncCounters``."""
    fields = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                (_name_chain(base) or ("",))[-1] == "SyncCounters"
                for base in node.bases):
            fields.update(
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.annotation, ast.Name)
                and stmt.annotation.id == "int")
    return fields


@functools.lru_cache(maxsize=1)
def counter_fields() -> frozenset[str]:
    """The engine's declared counter fields: writing one through a foreign
    reference (anything but a plain ``self.<field>``) is a C407 — use
    ``bump()``.  Derived from the declarations, never hand-kept."""
    fields: set[str] = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        source = path.read_text()
        if "SyncCounters" in source:
            fields |= declared_counters(ast.parse(source))
    return frozenset(fields)


def _foreign_counter_pass(tree: ast.Module, module: str, lines: list[str],
                          report: DiagnosticReport) -> None:
    """C407: declared counter fields written through a foreign reference
    (the engine's, plus any this module declares)."""
    counters = counter_fields() | declared_counters(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            chain = _name_chain(target)
            if chain is None or chain[-1] not in counters:
                continue
            if len(chain) == 1:
                continue  # a bare local, not a stats field
            if chain[0] == "self" and len(chain) == 2:
                continue  # the owning object's own field, checked per-class
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if _RACE_OK.search(line):
                report.add(make(
                    "ALDSP-C406",
                    f"raw counter write {'.'.join(chain)} accepted: "
                    f"{_RACE_OK.search(line).group(1).strip()}",
                    location=module, line=node.lineno,
                ))
                continue
            report.add(make(
                "ALDSP-C407",
                f"counter {'.'.join(chain)} written directly; counters on "
                f"shared stats objects must go through the synchronized "
                f"bump() API",
                location=module, line=node.lineno,
                target=".".join(chain),
            ))


def run_concurrency_lint(root: Path | str | None = None,
                         strict: bool = False) -> DiagnosticReport:
    """Lint the engine package (or a tree rooted at ``root``).

    Registered classes get the full lockset-discipline pass; every module
    in the tree gets the C407 foreign-counter pass.
    """
    root = Path(root) if root is not None else PACKAGE_ROOT
    report = DiagnosticReport()
    registered = {root / relative for relative in REGISTRY}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        classes = REGISTRY.get(relative)
        if classes is None and path in registered:
            classes = REGISTRY[relative]
        module_report = analyze_source(
            path.read_text(), relative,
            classes=classes if classes is not None else (),
            strict=strict,
        )
        report.extend(module_report)
    missing = [relative for relative in REGISTRY
               if not (root / relative).exists()]
    for relative in missing:
        report.add(make("ALDSP-E000",
                        f"registered module {relative} not found under {root}",
                        location=relative))
    return report


__all__ = [
    "MUTATING_METHODS",
    "REGISTRY",
    "Diagnostic",
    "analyze_source",
    "run_concurrency_lint",
]
