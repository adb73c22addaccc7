"""Per-layer spans, recorded from the harness's side of each entry point.

``Tracer.install`` swaps span-recording wrappers in for the public entry
points of each engine layer (module functions and class methods; nothing
under ``src/`` is edited) and ``uninstall`` puts the originals back.

A span is one node of a per-operation calling-context tree: all entries
into one entry point from under one parent span share a node, which keeps
the tree the size of the plan and not of the result (``filter_items`` runs
once per item).  A node records wall start/end, thread CPU time and the
CPU time of its same-thread children; **self time** is the difference.
Generator entry points accumulate the time spent inside ``__next__``.

Self times are thread CPU time, not wall time: the engine overlaps PP-k
block fetches and scatter branches on pool threads, where wall intervals
of concurrent spans cover each other, while CPU time adds up.  With every
simulated latency at zero an operation's CPU and wall time agree, and the
harness reports how closely (``harness.attributed_share``).

The current span lives in a ContextVar, which the engine's async executor
copies into its pool threads, so a block fetched on a pool thread is still
a child of the PP-k span that asked for it.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import sys
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter, thread_time

#: marks a wrapper, so a leftover patch can be found after uninstall
MARK = "__layered_trace__"
ROOT = "harness.op"


class Node:
    __slots__ = ("name", "parent", "op_id", "tid", "start", "end", "cpu",
                 "child_cpu", "entries", "kids")

    def __init__(self, name: str, parent: "Node | None", op_id, tid: int):
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.tid = tid
        self.start = 0.0
        self.end = 0.0
        self.cpu = 0.0
        self.child_cpu = 0.0
        self.entries = 0
        self.kids: dict = {}


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "layered.trace.current", default=None)
        #: plan-shape counts, taken where the trees pass by
        self.ir = {"parses": 0, "ast_nodes": 0, "plans": 0, "plan_nodes": 0,
                   "pushed_regions": 0}

    # -- recording --------------------------------------------------------------

    @contextmanager
    def op(self, op_id):
        """The root span of one operation (one request, on serving_mix)."""
        root = Node(ROOT, None, op_id, get_ident())
        self.nodes.append(root)
        token = self._current.set(root)
        root.start = perf_counter()
        c0 = thread_time()
        try:
            yield root
        finally:
            root.cpu = thread_time() - c0
            root.end = perf_counter()
            root.entries = 1
            self._current.reset(token)

    def _enter(self, name: str):
        """The node to charge an entry to, or None when the entry is not
        recorded: outside any operation, or direct recursion into the
        span that is already open on this thread."""
        top = self._current.get()
        if top is None:
            return None
        tid = get_ident()
        if top.tid == tid:
            if top.name == name:
                return None
            key = name
        else:
            key = (name, tid)
        node = top.kids.get(key)
        if node is None:
            node = top.kids[key] = Node(name, top, top.op_id, tid)
            self.nodes.append(node)
        return node

    def _leave(self, node: Node, w0: float, cpu: float) -> None:
        top = node.parent
        self._current.set(top)
        if not node.entries:
            node.start = w0
        node.end = perf_counter()
        node.entries += 1
        node.cpu += cpu
        if top.tid == node.tid:
            top.child_cpu += cpu

    def _call(self, name, fn, when=None, before=None, after=None):
        def wrapper(*args, **kwargs):
            node = None if when is not None and not when(*args) \
                else self._enter(name)
            if node is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            self._current.set(node)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(node, w0, thread_time() - c0)
            if after is not None:
                after(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _generator(self, name, fn):
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            top = self._current.get()
            if top is None or (top.name == name and top.tid == get_ident()):
                return inner  # untraced, or a nested level of the open span
            return self._resume(name, inner)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _resume(self, name, inner):
        step = inner.__next__
        try:
            while True:
                node = self._enter(name)
                if node is None:
                    try:
                        item = step()
                    except StopIteration:
                        return
                else:
                    self._current.set(node)
                    w0 = perf_counter()
                    c0 = thread_time()
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        self._leave(node, w0, thread_time() - c0)
                yield item
        finally:
            inner.close()

    # -- plan-shape counts ----------------------------------------------------------

    def _count_ast(self, expr) -> None:
        self.ir["parses"] += 1
        self.ir["ast_nodes"] += sum(1 for _ in expr.walk())

    def _count_plan(self, expr, *_args) -> None:
        from repro.compiler.algebra import PushedSQL

        nodes = list(expr.walk())
        self.ir["plans"] += 1
        self.ir["plan_nodes"] += len(nodes)
        self.ir["pushed_regions"] += sum(isinstance(n, PushedSQL) for n in nodes)

    # -- installing -------------------------------------------------------------------

    def _method(self, cls, attr, name, generator=False, **hooks):
        make = self._generator if generator else self._call
        setattr(cls, attr, make(name, cls.__dict__[attr], **hooks))

    def _function(self, module, attr, name, generator=False, **hooks):
        """Patch every ``repro`` module that holds a reference to the
        function (``from x import f`` copies the binding)."""
        original = getattr(importlib.import_module(module), attr)
        make = self._generator if generator else self._call
        replacement = make(name, original, **hooks)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)

    def install(self) -> None:
        """Wrap the layers' entry points.  Call before the federation is
        built: source definitions capture ``adaptor.invoke`` when they are
        registered."""
        from repro.compiler.optimizer import Optimizer
        from repro.relational.connection import Connection
        from repro.relational.executor import Executor
        from repro.relational.prepared import StatementCache
        from repro.relational.txn import Transaction, TwoPhaseCommit
        from repro.runtime.evaluate import Evaluator
        from repro.security.policy import SecurityService
        from repro.server.admission import AdmissionController, AdmissionTicket
        from repro.server.frontend import DataServer
        from repro.server.session import SessionManager
        from repro.services.platform import Platform
        from repro.sources.adaptor import Adaptor
        from repro.sql.ast_nodes import Select
        from repro.xquery.parser import Parser
        from repro.xquery.typecheck import TypeChecker

        method, function = self._method, self._function
        method(Parser, "parse_main_expression", "xquery.parse", after=self._count_ast)
        function("repro.xquery.normalize", "normalize", "xquery.analyze")
        method(TypeChecker, "infer", "xquery.analyze")
        method(Optimizer, "optimize", "compiler.optimize")
        function("repro.compiler.optimizer", "canonicalize_gensyms", "compiler.optimize")
        function("repro.compiler.verify", "verify_plan", "compiler.verify",
                 before=self._count_plan)
        function("repro.compiler.scatter", "stamp_scatter_groups", "compiler.stamp")
        function("repro.compiler.explain", "assign_operator_ids", "compiler.stamp")
        function("repro.compiler.batching", "stamp_batch_capability", "compiler.stamp")
        function("repro.sql.rewriter", "push_sql", "sql.pushdown")
        pushedsql = "repro.runtime.operators.pushedsql"
        function(pushedsql, "render_pushed", "sql.render")
        function(pushedsql, "bind_parameters", "sql.render")
        function(pushedsql, "rebuild", "runtime.rebuild", generator=True)
        ppk = "repro.runtime.operators.ppk"
        function(ppk, "ppk_extend", "runtime.ppk", generator=True)
        function(ppk, "_fetch_block", "runtime.ppk")
        function(ppk, "_join_block", "runtime.ppk", generator=True)
        method(Evaluator, "iter_eval", "runtime.flwor", generator=True)
        method(Evaluator, "eval", "runtime.flwor")
        method(Platform, "prepare", "services.prepare")
        method(Platform, "stream", "services.stream", generator=True)
        method(Platform, "call", "services.stream")
        method(Platform, "submit", "sdo.submit")
        method(StatementCache, "prepare", "relational.stmt_prepare")
        method(Executor, "execute", "relational.execute",
               when=lambda _self, stmt: isinstance(stmt, Select))
        method(Connection, "execute_update", "relational.update")
        method(Transaction, "execute", "relational.update")
        method(TwoPhaseCommit, "commit", "relational.update")
        method(Adaptor, "invoke", "sources.adaptor")
        method(SecurityService, "filter_items", "security.filter")
        function("repro.xml.serialize", "serialize", "xml.serialize")
        method(AdmissionController, "admit", "server.admit")
        method(AdmissionTicket, "__enter__", "server.admit")
        method(AdmissionTicket, "release", "server.admit")
        method(SessionManager, "get", "server.session")
        method(SessionManager, "bind", "server.session")
        method(DataServer, "execute", "server.frontend")

    @staticmethod
    def uninstall() -> None:
        """Put every original back -- found by sweeping, not from a list:
        a module first imported while the wrappers were in place copied
        them with ``from x import f``."""
        for holder, attr, wrapper in _wrappers():
            setattr(holder, attr, getattr(wrapper, MARK))

    # -- reading --------------------------------------------------------------------

    def self_cpu(self, op_ids: set) -> dict[str, float]:
        """Self CPU seconds by span name, summed over the given operations."""
        totals: dict[str, float] = {}
        for node in self.nodes:
            if node.op_id in op_ids:
                totals[node.name] = totals.get(node.name, 0.0) \
                    + node.cpu - node.child_cpu
        return totals

    def dump(self, path) -> None:
        index = {id(node): i for i, node in enumerate(self.nodes)}
        spans = [{
            "name": node.name, "start": node.start, "end": node.end,
            "parent": index[id(node.parent)] if node.parent is not None else None,
            "op_id": node.op_id, "thread": node.tid, "entries": node.entries,
            "cpu_ms": node.cpu * 1000.0,
            "self_cpu_ms": (node.cpu - node.child_cpu) * 1000.0,
        } for node in self.nodes]
        with open(path, "w") as sink:
            json.dump(spans, sink)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def _wrappers() -> list[tuple[object, str, object]]:
    """(holder, attribute, wrapper) for every wrapper reachable as a
    ``repro`` module attribute or as an attribute of a class defined there."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append((module, key, value))
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend((value, attr, member)
                             for attr, member in list(vars(value).items())
                             if hasattr(member, MARK))
    return found


def leftover_patches() -> list[str]:
    """Names still holding a wrapper (must be empty after ``uninstall``)."""
    return [f"{getattr(holder, '__qualname__', holder.__name__)}.{attr}"
            for holder, attr, _wrapper in _wrappers()]
