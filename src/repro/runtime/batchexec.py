"""The FLWOR runtime (P-BATCH): batches of binding tuples pulled through
clause operators.

Every FLWOR the engine evaluates runs here, at every ``EngineConfig.batch_size``
(``Evaluator.iter_eval`` hands a FLWOR to :func:`eval_flwor`); one row per
batch is the same pipeline at its laziest.  What a batch is, and the fact
about a stage's rows that is fixed when its stages are built (``owned``),
is in :mod:`repro.runtime.batch`.

Each clause has one implementation.  ``for``, ``let`` and ``where`` are
*kernels* — plain functions over batches, their expressions compiled by
:mod:`repro.runtime.rowcompile` — with two drivers:

* the **lazy driver** (:func:`eval_flwor`): every stage is a generator of
  batches pulling from the one upstream, so a consumer that stops early
  stops the pipeline.  It runs top-level FLWORs and any FLWOR with a source
  access, a blocking clause or an effect whose timing the pull order
  decides, and it alone has the other operators: order-by, group-by, the
  index nested-loop join (P-COST re-plan buffer included), the pushed
  tuple-``for``, scatter groups and PP-k;
* the **eager driver** (:func:`flwor_rowfn`): a FLWOR of in-memory
  ``for``/``let``/``where`` nested in a row expression is entered once per
  outer row and flows a handful of tuples, so the same kernels run over
  the same batches, stage by stage, each stage's output collected before
  the next runs.

**Carried columns** (:mod:`repro.runtime.batch`).  A range ``for`` adds
its variable as a column beside the rows it extends — the slices of a
Python ``range``, so no integer is boxed and the range is never built — a
``let`` or ``where`` the column lane answers adds a column or compresses
the batch by its mask, group-by and the ``eq`` index join read their keys
from the columns (the join's build keys its inner sequence as one batch),
and a ``return`` the lane answers yields its column's atoms, or items.  A
``for`` over any other sequence binds rows, as its items are nodes, or
atoms of no one type, that a row function reads.  A row dict is built
only when a row function reads the tuple, once per batch; a batch whose
column the lane cannot answer runs by those rows, so values, errors and
error order are the atom lane's.

**Emit on fill.**  A multiplying operator hands a batch on the moment it
fills and pulls its input — a streamed ``for`` sequence included — only as
far as the open batch has room.  At one row per batch that is exactly
tuple-at-a-time laziness; at n rows a stage is at most one batch ahead.
Batch boundaries depend only on the rows, so the two drivers observe the
same ``batch.rows`` / ``batch.count`` series and ``tuples_flowed``.

Spans open and close at fixed pipeline points: order-by drains its upstream
inside the ``order-by`` span, group-by holds its span open across the groups
it emits.  Per-operator batch shape (the ``batch.*`` instruments and the
profile's rows-per-batch table) is recorded *outside* the span tree, so
profile and trace output do not depend on the batch size.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from ..compiler.algebra import IndexJoinForClause, PPkLetClause, PushedTupleForClause
from ..concurrency import RACE, TrackedRLock, guarded_by
from ..errors import DynamicError, SourceError
from ..sql.ast_nodes import param_order
from ..xml.items import UNTYPED, AtomicValue, Item
from ..xquery import ast_nodes as ast
from .batch import Batch, Env, batched
from .kernels import _as_atomic_value, _coerce, _OrderKey
from .operators.group import clustered_groups, sorted_groups
from .operators.ppk import ppk_extend
from .operators.pushedsql import bind_parameters, render_pushed, template_fn
from .rowcompile import MANY, atomfn, colfn, itemsfn, rangefn, rowfn, streamfn, truthfn

if TYPE_CHECKING:
    from .evaluate import Evaluator


@guarded_by("_lock")
class BatchProbe:
    """Per-query collector of rows-per-batch by operator label.

    Carried by the request :meth:`Platform.profile` opens; one probe
    may be shared by parallel scatter branches, so access is
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


class _Run:
    """Per-FLWOR-invocation state: batch size, probe and entry environment."""

    __slots__ = ("ev", "ctx", "size", "probe", "entry")

    def __init__(self, evaluator: Evaluator, entry: Env):
        self.ev = evaluator
        self.ctx = evaluator.ctx
        self.size = self.ctx.config.batch_size
        self.probe = self.ctx.batch_probe()
        #: the environment the FLWOR was entered with: its scope, and what
        #: a group row extends
        self.entry = entry

    def observe(self, label: str, rows: int) -> None:
        rows_seen, batches_seen = self.ctx.batch_instruments(label)
        rows_seen.observe(rows)
        batches_seen.inc()
        if self.probe is not None:
            self.probe.add(label, rows)

    def instrumented(self, label: str, batches: Iterator[Batch]) -> Iterator[Batch]:
        for batch in batches:
            self.observe(label, len(batch.bases))
            yield batch


class _Stage(NamedTuple):
    """One pipeline stage of a FLWOR, fixed when the plan first runs."""

    #: instrument label, ``<operator>#<ordinal>``
    label: str
    #: the lazy operator: ``(run, stage, batches) -> batches``
    operator: Callable
    #: the clause, or the ``let`` clauses of one scatter group
    clauses: list
    #: the rows reaching this stage were created by the pipeline
    owned: bool
    #: the variables this stage or an earlier one may carry as item columns
    items: frozenset


def _clause_groups(clauses: list[ast.Clause],
                   parallel_regions: bool) -> list[list[ast.Clause]]:
    """Partition a FLWOR's clauses into singleton groups plus runs of
    consecutive clauses sharing a compiler-stamped ``scatter_group`` id
    (empty when scatter execution is administratively disabled)."""
    groups: list[list[ast.Clause]] = []
    for clause in clauses:
        group_id = clause.scatter_group if parallel_regions else None
        if (group_id is not None and groups
                and groups[-1][0].scatter_group == group_id):
            groups[-1].append(clause)
        else:
            groups.append([clause])
    return groups


def _stages(node: ast.FLWOR, parallel_regions: bool) -> list[_Stage]:
    """The FLWOR's pipeline stages, worked out once per node and scatter
    setting (a memo like ``_rowfn``: a plan is never rewritten once it
    runs)."""
    memo = node._batch_stages
    if memo is None:
        memo = node._batch_stages = {}
    stages = memo.get(parallel_regions)
    if stages is None:
        stages = []
        owned = False  # the initial environment is the caller's
        items: frozenset = frozenset()
        for ordinal, group in enumerate(
                _clause_groups(node.clauses, parallel_regions), start=1):
            kind = type(group[0])
            if kind not in _OPERATORS:
                raise DynamicError(f"cannot execute clause {kind.__name__}")
            name, operator = ("scatter", _scatter_batches) if len(group) > 1 \
                else _OPERATORS[kind]
            items = items | {group[0].var} if kind is IndexJoinForClause else items
            stages.append(_Stage(f"{name}#{ordinal}", operator, group, owned, items))
            # where and order-by hand on the rows they were given
            owned = owned or kind not in (ast.WhereClause, ast.OrderByClause)
        memo[parallel_regions] = stages
    return stages


def eval_flwor(evaluator: Evaluator, node: ast.FLWOR, env: Env) -> Iterator[Item]:
    """The lazy driver: ``node``'s items, produced as they are pulled."""
    run = _Run(evaluator, env)
    batches: Iterator[Batch] = iter((Batch([env]),))
    stages = _stages(node, run.ctx.config.parallel_regions)
    for stage in stages:
        batches = run.instrumented(stage.label, stage.operator(run, stage, batches))
    items_fn, column_fn = streamfn(node.return_expr), itemsfn(node.return_expr, stages[-1].items)
    stats = run.ctx.stats
    for batch in batches:
        count = len(batch.bases)
        stats.bump(tuples_flowed=count)
        run.observe("return", count)
        column = column_fn and column_fn(evaluator, batch)
        if column:  # its nodes, or its atoms boxed
            type_name, values = column
            yield from values if type_name is None else map(AtomicValue, values, repeat(type_name))
            continue
        for row in batch.rows:
            yield from items_fn(evaluator, row)


def flwor_rowfn(node: ast.FLWOR) -> Callable:
    """The eager driver: the row function of a FLWOR of ``for``/``let``/
    ``where`` clauses evaluated inside a row expression — what ``<E?>``,
    filters rewritten as FLWORs and view unfolding leave in a ``return``
    (``rowcompile._c_FLWOR`` decides which FLWORs qualify).

    The stages run one after the other over lists of batches, with the
    lazy driver's batch boundaries: every ``batch.rows`` / ``batch.count``
    observation and ``tuples_flowed`` bump is the one it would have made."""
    stages = [(stage, _row_kernel(stage)) for stage in _stages(node, False)]
    ret_fn, column_fn = rowfn(node.return_expr), itemsfn(node.return_expr)

    def call(evaluator, env):
        run = _Run(evaluator, env)
        size = run.size
        batches = [Batch([env])]
        for stage, kernel in stages:
            if type(kernel) is tuple:  # for: every tuple's items, cut into batches
                items_fn, bind = kernel
                pieces = [bind(row, items, 1) for batch in batches for row in batch.rows
                          if (items := items_fn(evaluator, row))]
                whole = _concat(pieces) if pieces else Batch([])
                count = len(whole.bases)
                batches = [whole] if 0 < count <= size else \
                    [whole.slice(start, start + size) for start in range(0, count, size)]
            else:  # let, where: batch in, batch out
                batches = [out for batch in batches if (out := kernel(evaluator, batch)).bases]
            for batch in batches:
                run.observe(stage.label, len(batch.bases))
        items: list = []
        stats = run.ctx.stats
        for batch in batches:
            count = len(batch.bases)
            stats.bump(tuples_flowed=count)
            run.observe("return", count)
            column = column_fn and column_fn(evaluator, batch)
            if column:
                type_name, values = column
                items.extend(values if type_name is None
                             else map(AtomicValue, values, repeat(type_name)))
                continue
            for row in batch.rows:
                items.extend(ret_fn(evaluator, row))
        return items

    return call


# -- the kernels: for, let, where ------------------------------------------------


def _range_bind(var: str, pos_var: str | None) -> Callable:
    """``bind(row, values, position) -> Batch``: the tuples that extend
    ``row`` with each of ``values`` (a slice of a ``range``) bound to
    ``var`` and its position, counted from ``position``, to ``pos_var`` —
    carried as columns, no integer boxed."""

    def bind(row, values, position):
        count = len(values)
        columns = {var: ("xs:integer", values)}
        if pos_var:
            columns[pos_var] = ("xs:integer", range(position, position + count))
        return Batch([row] * count, columns)

    return bind


def _item_bind(var: str, pos_var: str | None) -> Callable:
    """``bind(row, items, position) -> Batch``: one copy of ``row`` per
    item, the item bound to ``var`` (and its position, counted from
    ``position``, to ``pos_var``).  The items of any sequence but a range
    are nodes, or atoms of no one type, that a row function reads: the
    rows are built here, as a row-at-a-time ``for`` builds them."""

    def bind(row, items, position):
        rows = []
        for position, item in enumerate(items, position):
            extended = dict(row)
            extended[var] = [item]
            if pos_var:
                extended[pos_var] = [AtomicValue(position, "xs:integer")]
            rows.append(extended)
        return Batch(rows)

    return bind


def _for_kernel(clause: ast.ForClause, items_fn: Callable) -> tuple[Callable, Callable]:
    """``(items_fn, bind)`` of a ``for`` whose sequence is ``items_fn(evaluator,
    row)``: over a range ``(A to B)`` the bound integers are a ``range``,
    sliced and carried, never boxed; any other sequence's items are bound
    into rows."""
    if type(clause.expr) is ast.RangeTo:
        return rangefn(clause.expr), _range_bind(clause.var, clause.pos_var)
    return items_fn, _item_bind(clause.var, clause.pos_var)


def _row_kernel(stage: _Stage):
    """The kernel of a ``for``/``let``/``where`` stage: for a ``for`` its
    ``(items_fn, bind)``, its sequence the list form; for the other two
    ``(evaluator, batch) -> batch``, empty when no tuple is left."""
    clause = stage.clauses[0]
    if isinstance(clause, ast.ForClause):
        return _for_kernel(clause, rowfn(clause.expr))
    lane = _lane(stage)
    if isinstance(clause, ast.WhereClause):
        condition_fn = truthfn(clause.condition)

        def where(evaluator, batch):
            columns = lane and lane(evaluator, batch)
            if columns:  # the mask: a raw value's truth is its effective boolean value
                return batch.select(columns[0][1])
            return Batch([row for row in batch.rows if condition_fn(evaluator, row)])

        return where
    expr_fn, var, owned = rowfn(clause.expr), clause.var, stage.owned

    def let(evaluator, batch):
        columns = lane and lane(evaluator, batch)
        if columns:
            [(type_name, values)] = columns
            if batch.columns or not owned:
                return batch.with_column(var, type_name, values)
            for row, value in zip(batch.bases, values):  # the pipeline's own rows
                row[var] = [AtomicValue(value, type_name)]
            return batch
        if not (owned or batch.columns):  # the caller's environment: bind into a copy
            batch = Batch([dict(row) for row in batch.bases])
        for row in batch.rows:  # (rows built from columns are the pipeline's own)
            row[var] = expr_fn(evaluator, row)
        return batch

    return let


def _lane(stage: _Stage) -> Callable | None:
    """``(evaluator, batch) -> [(type_name, values), ...] | None``: the
    columns (``rowcompile.colfn``) of a stage's scalar expressions — a
    ``where`` condition, a ``let`` value, the group or order keys, an index
    join's probe key — or None for a batch that leaves the lane, which the
    consumer then runs by rows; None if one of them has no column.  A ``let``
    binds a child step's items; a ``where`` reads no bare child step."""
    clause, column = stage.clauses[0], colfn
    if isinstance(clause, ast.GroupByClause):
        exprs = [expr for expr, _var in clause.keys]
    elif isinstance(clause, ast.OrderByClause):
        exprs = [spec.key for spec in clause.specs]
    elif isinstance(clause, IndexJoinForClause):
        exprs = [clause.outer_key]
    elif isinstance(clause, ast.LetClause):
        exprs, column = [clause.expr], itemsfn
    elif type(clause.condition) is ast.PathExpr:  # a node is true, whatever its atom
        return None
    else:
        exprs = [clause.condition]
    columns = [column(expr, stage.items) for expr in exprs]
    if None in columns:
        return None

    def lane(evaluator, batch):
        found = [column(evaluator, batch) for column in columns]
        return None if None in found else found

    return lane


# -- lazy operators ----------------------------------------------------------------


def _row_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    """``let`` / ``where``: a batch in, a batch out — narrowed, never
    refilled from the next one, and dropped when no tuple is left."""
    kernel, ev = _row_kernel(stage), run.ev
    for batch in batches:
        out = kernel(ev, batch)
        if out.bases:
            yield out


def _multiply(run: _Run, stage: _Stage, batches: Iterator[Batch],
              sequences: Callable, bind: Callable) -> Iterator[Batch]:
    """The lazy driver of a multiplying clause: each input tuple becomes one
    output tuple per element of its sequence (``sequences(evaluator,
    batch)`` yields them in tuple order), made by ``bind(row, chunk,
    position) -> Batch`` (:func:`_range_bind`, :func:`_item_bind`).  A batch goes downstream the
    moment it fills, and a sequence — which may be a stream — is pulled
    only as far as the open batch has room; a ``range`` is sliced.

    ``sequences`` may instead answer a whole batch with the batch of its
    new tuples (an index join whose every probe meets at most one item):
    that is cut into the open batch as it stands, columns and all."""
    ev, size = run.ev, run.size
    pieces: list[Batch] = []
    filled = 0
    for batch in batches:
        expanded = sequences(ev, batch)
        if type(expanded) is Batch:
            start, count = 0, len(expanded)
            while start < count:
                room = size - filled
                piece = expanded if start == 0 and count <= room \
                    else expanded.slice(start, start + room)
                pieces.append(piece)
                filled += len(piece)
                start += len(piece)
                if filled == size:
                    yield _concat(pieces)
                    pieces, filled = [], 0
            continue
        # the tuples the new ones extend are their parents' rows: a column
        # carried on would give each new tuple a binding of its own
        for row, sequence in zip(batch.rows, expanded):
            items = sequence if type(sequence) is range else iter(sequence)
            position = 1
            while True:
                room = size - filled
                chunk = items[position - 1:position - 1 + room] if type(items) is range \
                    else list(islice(items, room))
                if chunk:
                    pieces.append(bind(row, chunk, position))
                    filled += len(chunk)
                if len(chunk) < room:
                    break  # the sequence is exhausted
                yield _concat(pieces)
                pieces, filled = [], 0
                position += room
    if pieces:
        yield _concat(pieces)


def _concat(pieces: list[Batch]) -> Batch:
    """One batch of the tuples of ``pieces``, in order: their columns
    joined where every piece carries the same ones, else their rows."""
    if len(pieces) == 1:
        return pieces[0]
    layout = _layout(pieces[0])
    if any(_layout(piece) != layout for piece in pieces):
        return Batch([row for piece in pieces for row in piece.rows])
    bases: list[Env] = []
    for piece in pieces:
        bases += piece.bases
    columns = {}
    for var, type_name in layout:
        values: list = []
        for piece in pieces:
            values += piece.columns[var][1]
        columns[var] = (type_name, values)
    return Batch(bases, columns)


def _layout(batch: Batch) -> list:
    return [(var, column[0]) for var, column in batch.columns.items()]


def _each_row(items_fn: Callable) -> Callable:
    """The ``sequences`` of :func:`_multiply`: ``items_fn(evaluator, row)``, lazily."""
    return lambda ev, batch: (items_fn(ev, row) for row in batch.rows)


def _for_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    clause = stage.clauses[0]
    items_fn, bind = _for_kernel(clause, streamfn(clause.expr))
    return _multiply(run, stage, batches, _each_row(items_fn), bind)


def _scatter_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    """Evaluate a compiler-stamped scatter group (P-ADAPT): the lets are
    data independent, so their source fetches run as one parallel group
    — the virtual clock charges the max of the branches, not the sum.
    Per-source errors degrade inside each branch exactly as they would
    serially (``execute_pushed`` / table scans absorb their own faults)."""
    clauses = stage.clauses

    def gather(ev, row):
        return (ev.ctx.async_exec.run_parallel(
            [lambda c=clause: ev.eval(c.expr, row) for clause in clauses]),)

    def bind(row, gathered, _position):
        rows = []
        for values in gathered:
            extended = dict(row)
            for clause, value in zip(clauses, values):
                extended[clause.var] = value
            rows.append(extended)
        return Batch(rows)

    return _multiply(run, stage, batches, _each_row(gather), bind)


def _pushed_for_batches(run: _Run, stage: _Stage,
                        batches: Iterator[Batch]) -> Iterator[Batch]:
    """A same-database join pushed as one statement, shipped once per
    outer row: each fetched row binds all of the clause's variables."""
    clause, ctx = stage.clauses[0], run.ctx
    pushed = clause.pushed
    builders = [(var, template_fn(template)) for var, template in clause.var_templates]

    def fetch(ev, row):
        values = bind_parameters(pushed, row, ev)
        params = [values[i] for i in param_order(pushed.select)]
        sql = render_pushed(pushed, ev)
        with ctx.tracer.start("pushed-join", pushed.database, op=clause.op_id) as span:
            try:
                fetched = ctx.connection(pushed.database).execute_query(sql, params)
            except SourceError as exc:
                if ctx.absorb(pushed.database, exc):
                    span.set(degraded=True)
                    return ()  # degraded: this outer row joins to nothing
                raise
            span.set(rows=len(fetched))
        ctx.stats.bump(pushed_queries=1)
        return fetched

    def bind(row, fetched, _position):
        rows = []
        for record in fetched:
            extended = dict(row)
            for var, build in builders:
                extended[var] = build(record, [record])
            rows.append(extended)
        return Batch(rows)

    return _multiply(run, stage, batches, _each_row(fetch), bind)


def _flatten(batches: Iterator[Batch]) -> Iterator[Env]:
    for batch in batches:
        yield from batch.rows


def _ppk_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    """PP-k cuts its input into blocks of k rows, not into batches, and
    prefetches across them (``operators/ppk.py``), so it takes the rows as
    one stream: the one place the pipeline flattens its batches and forms
    them again."""
    rows = ppk_extend(stage.clauses[0], _flatten(batches), run.ev)
    return batched(rows, run.size)


def _index_join_batches(run: _Run, stage: _Stage,
                        batches: Iterator[Batch]) -> Iterator[Batch]:
    """Index nested-loop join (section 5.2): hash the loop-invariant
    inner sequence once, then probe per outer row (order-preserving)."""
    clause, ev, ctx = stage.clauses[0], run.ev, run.ctx
    replan = clause.replan_ppk
    threshold = ctx.config.replan_threshold
    outer = ctx.outer_estimate(clause) \
        if replan is not None and threshold is not None else None
    if outer is not None:
        # Mid-query re-planning (P-COST): the index join was chosen for
        # a large estimated outer.  Hold the build until the outer has
        # produced at least est/threshold rows; if the stream ends
        # first, the estimate was off by more than the threshold and
        # the runner-up PP-k twin serves the buffered rows instead —
        # no source query has been issued yet, so the switch is free.
        commit_at = max(1, math.ceil(outer / threshold))
        held: list[Batch] = []
        rows = 0
        for batch in batches:
            held.append(batch)
            rows += len(batch)
            if rows >= commit_at:
                break
        else:
            if held:
                yield from _replan_index_to_ppk(run, stage, replan, held)
            return
        batches = chain(held, batches)

    var, general = clause.var, clause.general
    probe_fn, inner_fn = atomfn(clause.outer_key), atomfn(clause.inner_key)
    keys_fn = None if general else colfn(clause.inner_key, frozenset((var,)))
    index: dict = {}
    # under ``=`` an untyped atom meets a typed one as the type it is
    # promoted to: untyped inner atoms, by what they promote to
    promoted: dict = {}
    places: dict = {}  # under ``=``: id(item) -> where it occurs in the inner sequence
    built = multi_inner = unique = False
    build_span = None  # counts the rows the join produced, once they are

    def build(row):
        nonlocal multi_inner, build_span
        ctx.stats.bump(index_joins_built=1)
        with ctx.tracer.start("index-join.build", var, op=clause.op_id) as span:
            build_span = span
            inner = ev.iter_eval(clause.expr, row)
            if keys_fn is not None:  # the whole sequence, then its keys
                drained: list = []
                try:
                    for item in inner:
                        drained.append(item)
                except Exception:  # the keys before the failure first, as item by item
                    for item in drained:
                        inner_fn(ev, {var: [item]})
                    raise
                inner = () if _column_index(ev, keys_fn, var, drained, index) else drained
            for place, item in enumerate(inner):
                key = inner_fn(ev, {var: [item]})
                if key is None:
                    continue  # an empty key joins nothing
                if not general:  # ``eq``: a key is its value
                    if type(key) is MANY:
                        multi_inner = True  # the error of the first probe to meet it
                    else:
                        index.setdefault(key.value, []).append(item)
                    continue
                places.setdefault(id(item), []).append(place)
                atoms = key if type(key) is MANY else (key,)
                for value in dict.fromkeys(map(_hashed, atoms)):
                    index.setdefault(value, []).append(item)
                for value in dict.fromkeys(
                        value for atom in atoms for value in _promotions(atom)):
                    promoted.setdefault(value, []).append(item)
            span.set(index_size=sum(len(v) for v in index.values()))

    def probed(batches):
        """Per batch: the build before the first probe, the probe count."""
        nonlocal built, unique
        for batch in batches:
            if not built:
                build(batch.slice(0, 1).rows[0])
                built = True
                unique = all(len(bucket) == 1 for bucket in index.values())
            ctx.stats.bump(middleware_join_probes=len(batch))
            yield batch

    def matches(ev, row):
        key = probe_fn(ev, row)
        if key is None or not (index or multi_inner):
            return ()  # no atom on one side or the other
        if type(key) is not MANY and not multi_inner:
            if not general:
                return index.get(key.value, ())
            if not promoted and key.type_name != UNTYPED:
                return index.get(_hashed(key), ())
        # More than one atom on a side: a value comparison is the nested
        # loop's error; a general comparison joins on any pair of atoms —
        # an untyped one as what the other promotes it to — each
        # occurrence of an inner item once and in inner order.
        if not general:
            raise DynamicError("value comparison over multi-item sequence")
        buckets = [bucket
                   for atom in (key if type(key) is MANY else (key,))
                   for bucket in (index.get(_hashed(atom)), promoted.get(_hashed(atom)),
                                  *map(index.get, _promotions(atom)))
                   if bucket]
        if len(buckets) < 2:  # as it was indexed: in inner order already
            return buckets[0] if buckets else ()
        found = {place: item
                 for bucket in buckets for item in bucket
                 for place in places[id(item)]}
        return [found[place] for place in sorted(found)]

    # under ``eq`` a one-atom key is looked up by its value: a column's at once
    lane = None if general else _lane(stage)

    def sequences(ev, batch):
        columns = lane and not multi_inner and lane(ev, batch)
        if not columns:
            return (matches(ev, row) for row in batch.rows)
        get = index.get
        found = [get(value, ()) for value in columns[0][1]]
        if not unique:
            return found
        # every key meets at most one item, so no outer tuple is joined
        # twice: the outer columns are gathered by match position
        return batch.select(found).with_column(
            var, None, [bucket[0] for bucket in found if bucket])

    joined = 0
    try:
        for batch in _multiply(run, stage, probed(batches), sequences,
                               _item_bind(var, None)):
            joined += len(batch)
            yield batch
    finally:
        if build_span is not None:
            build_span.set(rows=joined)


def _column_index(ev: Evaluator, keys_fn: Callable, var: str, inner: list,
                  index: dict) -> bool:
    """Fill an ``eq`` index join's ``{value: [items]}`` in one pass over its
    inner key's column; False, leaving it empty, if the lane does not answer."""
    keys = inner and keys_fn(ev, Batch([{}] * len(inner), {var: (None, inner)}))
    if not keys:
        return False
    for value, item in zip(keys[1], inner):
        index.setdefault(value, []).append(item)
    return True


def _hashed(atom: AtomicValue):
    """What the index join hashes an atom under for ``=``: its value — a
    boolean kept apart from the numbers Python says it equals."""
    value = atom.value
    return ("xs:boolean", value) if value is True or value is False else value


#: one typed atom of each kind :func:`~repro.runtime.kernels._coerce` tells apart
_PROMOTION_TARGETS = (AtomicValue(True, "xs:boolean"), AtomicValue(0, "xs:integer"))


def _promotions(atom: AtomicValue) -> list:
    """The typed values an untyped atom equals under ``=`` (none for a
    typed one): what ``_coerce`` makes of it against a boolean and against
    a number.  Against a string or another untyped atom it is its text,
    which is what it is hashed under.  Text that is no number meets no
    number: the nested loop raises there, the index skips (XQuery 2.3.4)."""
    values = []
    if atom.type_name == UNTYPED:
        for target in _PROMOTION_TARGETS:
            try:
                values.append(_hashed(_coerce(atom, target)))
            except DynamicError:
                pass
    return values


def _replan_index_to_ppk(run: _Run, stage: _Stage, replan: PPkLetClause,
                         held: list[Batch]) -> Iterator[Batch]:
    """Serve a too-small outer through the region's PP-k twin: one
    disjunctive block instead of a full inner scan.  The twin's output
    (group var bound to matched items, table order per key) unnests to
    exactly the rows the index join would have produced."""
    clause, ctx = stage.clauses[0], run.ctx
    ctx.stats.bump(replans=1)
    with ctx.tracer.start("replan", replan.pushed.database, op=clause.op_id,
                          strategy_from="index-join", strategy_to="ppk"):
        pass
    twin = _ppk_batches(run, stage._replace(clauses=[replan]), iter(held))
    return _multiply(run, stage, twin,
                     _each_row(lambda ev, row: row.pop(replan.var)),  # PP-k's own rows
                     _item_bind(clause.var, None))


# -- blocking clauses ----------------------------------------------------------------


def _order_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    clause, ev = stage.clauses[0], run.ev
    key_fns = [atomfn(spec.key) for spec in clause.specs]
    directions = [(spec.descending, spec.empty_greatest) for spec in clause.specs]

    def sort_key(pair):
        return [_OrderKey(value, descending, empty_greatest)
                for value, (descending, empty_greatest) in zip(pair[1], directions)]

    with ev.ctx.tracer.start("order-by", op=clause.op_id) as span:
        # upstream drains inside the span, before any key is computed
        keyed = [(env, key)
                 for batch, keys in _keyed(ev, list(batches), _lane(stage), key_fns, "order by")
                 for env, key in zip(batch.rows, keys)]
        keyed.sort(key=sort_key)
        span.set(tuples=len(keyed))
    yield from batched([env for env, _values in keyed], run.size)


def _group_batches(run: _Run, stage: _Stage, batches: Iterator[Batch]) -> Iterator[Batch]:
    """The FLWGOR group-by (section 3.1): cluster the tuples by the key
    expressions (sorting first — the generic fallback of section 4.2),
    then emit one row per group.  A member is ``(batch, index, key)``: its
    grouped values are read from the batch's columns, not from a row."""
    clause, ev = stage.clauses[0], run.ev
    key_fns = [atomfn(expr) for expr, _var in clause.keys]
    members = ((batch, index, key)
               for batch, keys in _keyed(ev, batches, _lane(stage), key_fns, "group by")
               for index, key in enumerate(keys))
    grouper = clustered_groups if clause.pre_clustered \
        else sorted_groups
    emitted_before = ev.group_stats.groups_emitted
    span = ev.ctx.tracer.start("group-by", op=clause.op_id)
    try:
        # The span stays open across the groups emitted: the generator
        # suspends inside it.
        yield from batched(
            _grouped_rows(clause, grouper(members, itemgetter(2), ev.group_stats),
                          run.entry),
            run.size)
    finally:
        span.set(groups=ev.group_stats.groups_emitted - emitted_before)
        span.end()


def _keyed(ev: Evaluator, batches: Iterable[Batch], lane: Callable | None,
           key_fns: list, clause: str) -> Iterator[tuple[Batch, Iterator[tuple]]]:
    """Each batch with the values of its keys, per tuple (None for an empty
    key): from its key columns, when the lane answers it, else row by row
    on the atom lane, as they are read."""
    for batch in batches:
        columns = lane and lane(ev, batch)
        if columns:  # the raw values are the key
            yield batch, zip(*[values for _type, values in columns])
        else:
            yield batch, _row_keys(ev, batch.rows, key_fns, clause)


def _row_keys(ev: Evaluator, rows: list[Env], key_fns: list, clause: str) -> Iterator[tuple]:
    for env in rows:
        key_values = []
        for key_fn in key_fns:
            atom = key_fn(ev, env)
            if type(atom) is MANY:
                raise DynamicError(f"{clause} key with more than one item")
            key_values.append(None if atom is None else atom.value)
        yield tuple(key_values)


def _grouped_rows(clause: ast.GroupByClause, groups: Iterable,
                  entry: Env) -> Iterator[Env]:
    """One row per group, of the scope after the clause (``xquery.scope``):
    the FLWOR's entry environment, then the key and grouped variables —
    so every group row has one schema."""
    for key, members in groups:
        result: Env = dict(entry)
        for (_expr, var), value in zip(clause.keys, key):
            result[var] = [] if value is None else [_as_atomic_value(value)]
        for source, target in clause.grouped:
            collected: list[Item] = []
            for batch, index, _key in members:
                carried = batch.columns.get(source)
                if carried is None:
                    collected.extend(batch.bases[index].get(source, ()))
                elif carried[0] is None:
                    collected.append(carried[1][index])
                else:
                    collected.append(AtomicValue(carried[1][index], carried[0]))
            result[target] = collected
        yield result


#: clause type -> (instrument label, lazy operator)
_OPERATORS: dict[type, tuple[str, Callable]] = {
    ast.ForClause: ("for", _for_batches),
    ast.LetClause: ("let", _row_batches),
    ast.WhereClause: ("where", _row_batches),
    ast.OrderByClause: ("order-by", _order_batches),
    ast.GroupByClause: ("group-by", _group_batches),
    PPkLetClause: ("ppk", _ppk_batches),
    PushedTupleForClause: ("pushed-join", _pushed_for_batches),
    IndexJoinForClause: ("index-join", _index_join_batches),
}
