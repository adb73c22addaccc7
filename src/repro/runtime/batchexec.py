"""Batch-at-a-time FLWOR execution (P-BATCH).

``eval_flwor_batched`` mirrors :meth:`Evaluator._eval_flwor` with
:class:`~repro.runtime.batch.TupleBatch` flowing between clause operators
instead of single binding tuples.  Laziness is preserved at batch
granularity: each operator is a generator of batches that pulls from
upstream on demand, so LIMIT-style early exit stops the pipeline after at
most one in-flight batch per stage.

Byte-identity with the tuple engine is structural, not asserted per call:

* the **narrowing/extending** clauses (for / let / where and the return
  stage) evaluate their expressions through the row-expression compiler
  (:mod:`repro.runtime.rowcompile`), whose closures reuse the
  interpreter's own helpers and bridge anything they don't understand;
* the **source-touching and stateful** operators (PP-k, pushed tuple
  joins, index joins, scatter groups, grouping) reuse the interpreter's
  tuple implementations verbatim over a lazily flattened row stream and
  rebatch their output — identical SQL, spans, virtual-clock charges and
  stats by construction (PP-k additionally batches its outer-key
  extraction internally when ``ctx.batch_size > 1``);
* spans open and close at the same pipeline points: order-by drains its
  upstream inside the ``order-by`` span, group-by holds its span open
  across emitted groups, exactly as the tuple operators do.

Per-operator batch shape (``batch.rows`` / ``batch.count`` instruments
and the profile's rows-per-batch table) is recorded *outside* the span
tree so profile/trace output stays byte-identical across batch sizes.

A FLWOR nested in a row expression is entered once per outer row, so what
an invocation needs is worked out once — its stages per node
(:func:`_stages`), its instruments per context — and the in-memory ones
run as a row function over plain lists (:func:`flwor_rowfn`) instead of a
generator pipeline, with the same observations and counts.
"""

from __future__ import annotations

from typing import Iterator

from ..concurrency import RACE, TrackedRLock, guarded_by
from ..errors import DynamicError
from ..xquery import ast_nodes as ast
from .batch import BatchBuilder, TupleBatch
from .evaluate import Env, Evaluator, _clause_groups, _OrderKey
from .operators.group import clustered_groups, sorted_groups
from .operators.ppk import ppk_extend
from .rowcompile import MANY, atomfn, rowfn, truthfn

try:
    from ..compiler.algebra import (
        IndexJoinForClause,
        PPkLetClause,
        PushedTupleForClause,
    )
except ImportError:  # pragma: no cover - algebra is a hard dependency
    raise


@guarded_by("_lock")
class BatchProbe:
    """Per-query collector of rows-per-batch by operator label.

    Installed by :meth:`Platform.profile` through the dynamic context;
    one probe may be shared by parallel scatter branches, so access is
    lock-guarded (A-CONC discipline)."""

    def __init__(self) -> None:
        self._lock = TrackedRLock("BatchProbe")
        self.stages: dict[str, list[int]] = {}

    def add(self, label: str, rows: int) -> None:
        with self._lock:
            RACE.detector.on_access(self, "stages", True)
            self.stages.setdefault(label, [0, 0])
            cell = self.stages[label]
            cell[0] += 1
            cell[1] += rows

    def snapshot(self) -> dict[str, dict[str, float]]:
        """{label: {batches, rows, rows_per_batch}} (rounded)."""
        with self._lock:
            RACE.detector.on_access(self, "stages", False)
            return {
                label: {
                    "batches": batches,
                    "rows": rows,
                    "rows_per_batch": round(rows / batches, 2) if batches else 0.0,
                }
                for label, (batches, rows) in sorted(self.stages.items())
            }


class _BatchRun:
    """Per-FLWOR-invocation state: batch size and probe."""

    __slots__ = ("ev", "ctx", "size", "probe")

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator
        self.ctx = evaluator.ctx
        self.size = self.ctx.batch_size
        self.probe = self.ctx.batch_probe()

    def observe(self, label: str, rows: int) -> None:
        rows_seen, batches_seen = self.ctx.batch_instruments(label)
        rows_seen.observe(rows)
        batches_seen.inc()
        if self.probe is not None:
            self.probe.add(label, rows)

    def instrumented(self, label: str,
                     batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in batches:
            self.observe(label, batch.length)
            yield batch


def eval_flwor_batched(evaluator: Evaluator, node: ast.FLWOR,
                       env: Env) -> Iterator:
    """Batch-protocol twin of ``Evaluator._eval_flwor``."""
    run = _BatchRun(evaluator)
    batches: Iterator[TupleBatch] = iter([TupleBatch.initial(env)])
    for label, group in _stages(node, run.ctx.parallel_regions):
        if len(group) == 1:
            batches = _apply_batch_clause(run, group[0], batches)
        else:
            batches = _rebatched(run, evaluator._scatter_tuples(
                group, _flatten(batches)))
        batches = run.instrumented(label, batches)
    ret_fn = rowfn(node.return_expr)
    stats = run.ctx.stats
    for batch in batches:
        stats.bump(tuples_flowed=batch.length)
        run.observe("return", batch.length)
        for row_env in batch.env_rows():
            yield from ret_fn(evaluator, row_env)


def _stages(node: ast.FLWOR, parallel_regions: bool) -> list[tuple[str, list]]:
    """The FLWOR's pipeline stages as (instrument label, clause group)
    pairs, worked out once per node and scatter setting (a memo like
    ``_rowfn``: a plan is never rewritten once it runs)."""
    memo = getattr(node, "_batch_stages", None)
    if memo is None:
        memo = node._batch_stages = {}
    stages = memo.get(parallel_regions)
    if stages is None:
        stages = memo[parallel_regions] = [
            (f"{_clause_label(group[0])}#{ordinal}" if len(group) == 1
             else f"scatter#{ordinal}", group)
            for ordinal, group in enumerate(
                _clause_groups(node.clauses, parallel_regions), start=1)]
    return stages


_CLAUSE_LABELS = {
    "ForClause": "for",
    "LetClause": "let",
    "WhereClause": "where",
    "OrderByClause": "order-by",
    "GroupByClause": "group-by",
    "PPkLetClause": "ppk",
    "PushedTupleForClause": "pushed-join",
    "IndexJoinForClause": "index-join",
}


def _clause_label(clause) -> str:
    return _CLAUSE_LABELS.get(type(clause).__name__,
                              type(clause).__name__.lower())


def _apply_batch_clause(run: _BatchRun, clause,
                        batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    if isinstance(clause, ast.ForClause):
        return _for_batches(run, clause, batches)
    if isinstance(clause, ast.LetClause):
        return _let_batches(run, clause, batches)
    if isinstance(clause, ast.WhereClause):
        return _where_batches(run, clause, batches)
    if isinstance(clause, ast.OrderByClause):
        return _order_batches(run, clause, batches)
    if isinstance(clause, ast.GroupByClause):
        return _group_batches(run, clause, batches)
    # Source-touching operators: reuse the tuple implementations over a
    # lazily flattened stream (identical spans/SQL/stats), rebatch after.
    if isinstance(clause, PPkLetClause):
        return _rebatched(run, ppk_extend(clause, _flatten(batches), run.ev))
    if isinstance(clause, PushedTupleForClause):
        return _rebatched(run, run.ev._pushed_tuple_for(clause, _flatten(batches)))
    if isinstance(clause, IndexJoinForClause):
        if (run.ctx.replan_threshold is not None
                and getattr(clause, "replan_ppk", None) is not None
                and getattr(clause, "est_outer", None) is not None):
            # re-planning armed (P-COST): the tuple implementation owns the
            # buffer-then-commit decision; rebatch its output
            return _rebatched(
                run, run.ev._index_join_tuples(clause, _flatten(batches)))
        return _index_join_batches(run, clause, batches)
    raise DynamicError(f"cannot execute clause {type(clause).__name__}")


def _flatten(batches: Iterator[TupleBatch]) -> Iterator[Env]:
    for batch in batches:
        yield from batch.env_rows()


def _rebatched(run: _BatchRun, rows: Iterator[Env],
               owned: bool = True) -> Iterator[TupleBatch]:
    builder = BatchBuilder(run.size, owned)
    for env in rows:
        batch = builder.add(env)
        if batch is not None:
            yield batch
    tail = builder.flush()
    if tail is not None:
        yield tail


# -- narrowing / extending clauses (row-compiled inner loops) ---------------


def _for_batches(run: _BatchRun, clause: ast.ForClause,
                 batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    expr_fn = rowfn(clause.expr)
    ev, size = run.ev, run.size
    var, pos_var = clause.var, clause.pos_var
    builder = BatchBuilder(size, owned=True)
    added = (var, pos_var) if pos_var else (var,)
    for batch in batches:
        envs = batch.env_rows()
        if not envs:
            continue
        names = _names_with(envs[0], added)
        for env in envs:
            items = expr_fn(ev, env)
            if pos_var:
                for position, item in enumerate(items, start=1):
                    extended = dict(env)
                    extended[var] = [item]
                    extended[pos_var] = [_position_value(position)]
                    out = builder.add(extended, names)
                    if out is not None:
                        yield out
            else:
                for item in items:
                    extended = dict(env)
                    extended[var] = [item]
                    out = builder.add(extended, names)
                    if out is not None:
                        yield out
    tail = builder.flush()
    if tail is not None:
        yield tail


def _names_with(env: Env, added: tuple[str, ...]) -> tuple[str, ...]:
    """The schema of ``env`` once ``added`` are bound in it, in the order
    dict assignment gives.  Rows of one batch share a schema, so
    multiplying operators work this out once per input batch instead of
    leaving ``BatchBuilder.add`` to recompute it for every output row."""
    return tuple(dict.fromkeys((*env, *added)))


def _position_value(position: int):
    from ..xml.items import AtomicValue

    return AtomicValue(position, "xs:integer")


def _let_batches(run: _BatchRun, clause: ast.LetClause,
                 batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    expr_fn = rowfn(clause.expr)
    ev, var = run.ev, clause.var
    for batch in batches:
        column = [expr_fn(ev, env) for env in batch.env_rows()]
        yield batch.extended([(var, column)])


def _where_batches(run: _BatchRun, clause: ast.WhereClause,
                   batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    condition_fn = truthfn(clause.condition)
    ev = run.ev
    for batch in batches:
        envs = batch.env_rows()
        kept = [i for i, env in enumerate(envs) if condition_fn(ev, env)]
        if not kept:
            continue
        if len(kept) == batch.length:
            yield batch
        else:
            yield batch.select(kept)


def _index_join_batches(run: _BatchRun, clause,
                        batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    """Batch twin of ``Evaluator._index_join_tuples``: identical index
    build (span, facts, stats), row-compiled probe keys, and one
    ``middleware_join_probes`` bump per batch instead of per tuple."""
    ev, ctx = run.ev, run.ctx
    var = clause.var
    probe_fn = atomfn(clause.outer_key)
    inner_fn = atomfn(clause.inner_key)
    index: dict | None = None
    builder = BatchBuilder(run.size, owned=True)
    for batch in batches:
        envs = batch.env_rows()
        if envs and index is None:
            index = {}
            ctx.stats.bump(index_joins_built=1)
            with ctx.tracer.start(
                    "index-join.build", var,
                    op=getattr(clause, "op_id", None)) as span:
                for item in ev.iter_eval(clause.expr, envs[0]):
                    key = inner_fn(ev, {var: [item]})
                    if key is None or type(key) is MANY:
                        continue  # empty/multi keys never equi-join
                    index.setdefault(key.value, []).append(item)
                span.set(index_size=sum(len(v) for v in index.values()))
        ctx.stats.bump(middleware_join_probes=len(envs))
        names = _names_with(envs[0], (var,)) if envs else ()
        for env in envs:
            key = probe_fn(ev, env)
            if key is None or type(key) is MANY:
                continue
            for item in index.get(key.value, ()):  # type: ignore[union-attr]
                extended = dict(env)
                extended[var] = [item]
                out = builder.add(extended, names)
                if out is not None:
                    yield out
    tail = builder.flush()
    if tail is not None:
        yield tail


# -- per-row FLWORs -----------------------------------------------------------

def flwor_rowfn(node: ast.FLWOR):
    """The row function of a FLWOR of ``for``/``let``/``where`` clauses
    evaluated inside a row expression — what ``<E?>``, filters rewritten
    as FLWORs and view unfolding leave in a ``return``
    (``rowcompile._c_FLWOR`` decides which FLWORs qualify).

    It is entered once per outer row and flows a handful of tuples, so
    the clause operators run over plain lists of batches, stage by stage,
    in the pipeline's order of evaluation and with the pipeline's batch
    boundaries: every ``batch.rows`` / ``batch.count`` observation and
    ``tuples_flowed`` bump is the one the pipeline would have made."""
    stages = [(label, _list_stage(group[0]))
              for label, group in _stages(node, False)]
    ret_fn = rowfn(node.return_expr)

    def call(evaluator, env):
        run = _BatchRun(evaluator)
        batches = [[env]]
        for label, stage in stages:
            batches = stage(run, batches)
            for batch in batches:
                run.observe(label, len(batch))
        items: list = []
        stats = run.ctx.stats
        for batch in batches:
            stats.bump(tuples_flowed=len(batch))
            run.observe("return", len(batch))
            for row_env in batch:
                items.extend(ret_fn(evaluator, row_env))
        return items

    return call


def _list_stage(clause):
    """``(run, batches) -> batches`` over lists of environments: the list
    twin of the clause's ``_*_batches`` generator (same rows, same batch
    boundaries, empty batches dropped)."""
    if isinstance(clause, ast.WhereClause):
        condition_fn = truthfn(clause.condition)

        def where(run, batches):
            ev = run.ev
            kept = ([env for env in batch if condition_fn(ev, env)]
                    for batch in batches)
            return [batch for batch in kept if batch]

        return where
    expr_fn = rowfn(clause.expr)
    var = clause.var
    if isinstance(clause, ast.LetClause):
        def let(run, batches):
            ev = run.ev
            out = []
            for batch in batches:
                extended_batch = []
                for env in batch:
                    extended = dict(env)
                    extended[var] = expr_fn(ev, env)
                    extended_batch.append(extended)
                out.append(extended_batch)
            return out

        return let
    pos_var = clause.pos_var

    def for_(run, batches):
        ev, size = run.ev, run.size
        out, current = [], []
        for batch in batches:
            for env in batch:
                for position, item in enumerate(expr_fn(ev, env), start=1):
                    extended = dict(env)
                    extended[var] = [item]
                    if pos_var:
                        extended[pos_var] = [_position_value(position)]
                    current.append(extended)
                    if len(current) == size:
                        out.append(current)
                        current = []
        if current:
            out.append(current)
        return out

    return for_


# -- blocking clauses (span placement mirrors the tuple operators) ----------


def _order_batches(run: _BatchRun, clause: ast.OrderByClause,
                   batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    ev = run.ev
    key_fns = [(atomfn(spec.key), spec.descending, spec.empty_greatest)
               for spec in clause.specs]
    with ev.ctx.tracer.start("order-by",
                             op=getattr(clause, "op_id", None)) as span:
        materialized: list[Env] = []
        owned = True
        for batch in batches:  # upstream drains inside the span, as the
            owned = owned and batch.owned  # tuple operator's list() does
            materialized.extend(batch.env_rows())

        def sort_key(env: Env):
            keys = []
            for key_fn, descending, empty_greatest in key_fns:
                atom = key_fn(ev, env)
                if type(atom) is MANY:
                    raise DynamicError("order by key with more than one item")
                keys.append(_OrderKey(None if atom is None else atom.value,
                                      descending, empty_greatest))
            return keys

        materialized.sort(key=sort_key)
        span.set(tuples=len(materialized))
    yield from _rebatched(run, iter(materialized), owned=owned)


def _group_batches(run: _BatchRun, clause: ast.GroupByClause,
                   batches: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
    ev = run.ev
    key_fns = [atomfn(expr) for expr, _var in clause.keys]

    def key_of(env_and_keys):
        return env_and_keys[1]

    def annotated():
        for batch in batches:
            for env in batch.env_rows():
                key_values = []
                for key_fn in key_fns:
                    atom = key_fn(ev, env)
                    if type(atom) is MANY:
                        raise DynamicError("group by key with more than one item")
                    key_values.append(None if atom is None else atom.value)
                yield env, tuple(key_values)

    base_grouper = clustered_groups if getattr(clause, "pre_clustered", False) \
        else sorted_groups

    def grouper(stream, key_fn, stats):
        # amortize_stats: identical peak_resident, O(groups) locking
        return base_grouper(stream, key_fn, stats, amortize_stats=True)
    emitted_before = ev.group_stats.groups_emitted
    span = ev.ctx.tracer.start("group-by", op=getattr(clause, "op_id", None))
    try:
        # The span stays open across emitted batches, exactly like the
        # tuple operator's generator suspends inside its span.
        yield from _rebatched(
            run, ev._grouped_tuples(clause, grouper, annotated(), key_of))
    finally:
        span.set(groups=ev.group_stats.groups_emitted - emitted_before)
        span.end()
