"""The PP-k distributed join operator (section 4.2).

"k tuples are fetched from source A, a request is issued to fetch from B
all those tuples that would join with any of the k tuples from A, and then
a middleware join is performed between the k tuples from A and the tuples
fetched from B. ... The request for B tuples takes the form of a
parameterized disjunctive SQL query with k parameters ... A small value of
k means many roundtrips, while large k approximates a full middleware
index join."

Implemented as a tuple-stream transformer: it consumes the incoming
binding-tuple stream in blocks of ``k``, issues one disjunctive query per
block, hash-partitions the fetched rows by the correlation column, and
extends each tuple with its (possibly empty — left-outer semantics)
sequence of reconstructed items.

Two roundtrip-path optimizations ride on top of the paper's operator:

* **Bucketed statement reuse** — the disjunctive select is built and
  rendered once per *bucket* (key counts padded up to the next power of
  two, capped at ``k``) and memoized on the pushed region, so the
  per-database statement cache sees one SQL text per (region, bucket)
  instead of one per block.  Padding parameters are bound to NULL, which
  can never satisfy ``col = ?`` under three-valued logic, so padded
  queries return exactly the unpadded rows.
* **Block pipelining** — block N+1's source query is prefetched through
  the :class:`~repro.runtime.asyncexec.AsyncExecutor` while the
  middleware joins block N: physically overlapped under a wall clock, and
  accounted as overlap (the join advances by the *maximum* branch charge)
  under the virtual clock, so benchmarks show the win deterministically.

Two adaptive behaviours generalize that further (P-ADAPT):

* **Adaptive block sizing** — when ``EngineConfig.adaptive_ppk`` is on, each
  block's capacity is re-derived from
  :meth:`~repro.runtime.observed.ObservedStatistics.recommend_ppk` as
  roundtrip observations accumulate: each block's elapsed feeds the model
  that sizes the next, with the compiler's static ``k`` as the cold-start
  value.  The chosen capacity is recorded per block as a tracer span fact
  (``k=``) and in the ``ppk.chosen_k`` histogram; re-sizes count on the
  source's ``ppk_k_adjustments``.
* **Deep prefetch window** — ``EngineConfig.ppk_prefetch_window`` (W, clamped to
  the executor's worker pool) keeps W block fetches in flight while the
  pending window joins.  Rounds execute as one parallel group — one
  branch joining the W pending blocks, W branches fetching the next
  window — so the virtual clock charges ``max(W·join, fetch)`` per round
  (per block: ``max(join, fetch/W)``) and blocks still yield strictly in
  arrival order, degraded blocks included (left-outer semantics).
  ``W == 1`` is exactly the single-block pipelining above.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Iterator

from ...compiler.algebra import PPkLetClause, PushedSQL
from ...errors import DynamicError, SourceError
from ...sql.ast_nodes import BinOp, Param, Select, param_order
from ...xml.items import Item
from ..rowcompile import MANY, atomfn, many_values
from .pushedsql import bind_parameters, template_fn

if TYPE_CHECKING:
    from ..evaluate import Evaluator

#: the adaptive loop's bounds on a block's capacity
ADAPTIVE_K_MIN, ADAPTIVE_K_MAX = 1, 200
#: the share of the per-tuple cost the adaptive loop lets roundtrip
#: overhead take: far stricter than the diagnostic default (0.5), because
#: the loop *acts* on the recommendation rather than merely reporting it
ADAPTIVE_OVERHEAD_TARGET = 0.05


def ppk_extend(
    clause: PPkLetClause,
    tuples: Iterator[dict],
    evaluator: "Evaluator",
) -> Iterator[dict]:
    """Extend each incoming tuple with ``clause.var`` bound via PP-k."""
    assert clause.pushed.correlation is not None
    ctx = evaluator.ctx
    blocks = _blocks(tuples, _block_sizer(clause, ctx))
    config = ctx.config
    threshold = config.replan_threshold
    if (threshold is not None
            and clause.est_replan_scan
            and clause.est_outer is not None):
        # Mid-query re-planning is armed for this region (P-COST).  Blocks
        # run sequentially — the block boundary is the safe switch point,
        # and the decision must see every tuple the operator consumed.
        yield from _extend_with_replan(clause, blocks, threshold, evaluator)
        return
    if not config.ppk_pipelining:
        for block, capacity in blocks:
            fetched = _fetch_block(clause, block, capacity, evaluator)
            yield from _join_block(clause, block, fetched, evaluator)
        return

    # Pipelined: while the pending window's rows are hash-joined in the
    # middleware, the next W disjunctive queries are already in flight.
    window = max(1, min(config.ppk_prefetch_window, ctx.async_exec.max_workers))
    pending = _take(blocks, window)
    if not pending:
        return
    fetched = ctx.async_exec.run_parallel(
        [_fetch_thunk(clause, block, capacity, evaluator)
         for block, capacity in pending]
    )
    while True:
        upcoming = _take(blocks, window)
        if not upcoming:
            break
        outcomes = ctx.async_exec.run_parallel(
            [_join_thunk(clause, pending, fetched, evaluator)]
            + [_fetch_thunk(clause, block, capacity, evaluator)
               for block, capacity in upcoming]
        )
        yield from outcomes[0]
        pending, fetched = upcoming, outcomes[1:]
    for (block, _capacity), fetch in zip(pending, fetched):
        yield from _join_block(clause, block, fetch, evaluator)


def _extend_with_replan(clause: PPkLetClause, blocks, threshold: float,
                        evaluator: "Evaluator") -> Iterator[dict]:
    """PP-k with a mid-query escape hatch: once the consumed outer tuples
    exceed ``threshold``× the costed estimate, abandon the per-block
    disjunctive queries at the block boundary and switch to the runner-up
    — one full scan of the region's base select, hash-joined against all
    remaining tuples.  The first block always runs as PP-k (the trigger
    compares consumption against the estimate, so the decision is
    deterministic in tuple counts, not in time)."""
    ctx = evaluator.ctx
    budget = threshold * max(clause.est_outer, 1.0)
    seen = 0
    for block, capacity in blocks:
        if seen > 0 and seen + len(block) > budget:
            rows_by_key = _replan_fetch_scan(clause, block[0], evaluator)
            yield from _join_scan(clause, block, rows_by_key, evaluator)
            for later, _capacity in blocks:
                yield from _join_scan(clause, later, rows_by_key, evaluator)
            return
        seen += len(block)
        fetched = _fetch_block(clause, block, capacity, evaluator)
        yield from _join_block(clause, block, fetched, evaluator)


def _replan_fetch_scan(clause: PPkLetClause, env: dict,
                       evaluator: "Evaluator") -> "_Partition":
    """Fetch the region's base select once (the correlation disjunction is
    added per block, so the base select *is* the full scan) and partition
    the rows by the correlation column — the index-join build, done as a
    re-plan."""
    from .pushedsql import render_pushed

    pushed = clause.pushed
    correlation = pushed.correlation
    ctx = evaluator.ctx
    ctx.stats.bump(replans=1)
    with ctx.tracer.start("replan", pushed.database, op=clause.op_id,
                          strategy_from="ppk", strategy_to="scan") as span:
        sql = render_pushed(pushed, evaluator)
        values = bind_parameters(pushed, env, evaluator)
        params = [values[i] for i in param_order(pushed.select)]
        try:
            rows = ctx.connection(pushed.database).execute_query(sql, params)
        except SourceError as exc:
            if not ctx.absorb(pushed.database, exc):
                raise
            # degraded scan: every remaining tuple left-outer joins to
            # nothing, exactly like a degraded PP-k block
            span.set(degraded=True)
            rows = []
        else:
            ctx.stats.bump(pushed_queries=1)
            span.set(rows=len(rows))
        return _Partition(rows, correlation.column_alias)


def _join_scan(clause: PPkLetClause, block: list[dict], rows_by_key: "_Partition",
               evaluator: "Evaluator") -> Iterator[dict]:
    """Join one block of tuples against the re-plan scan's partitioned
    rows — key computation and per-key row order match the PP-k blocks,
    so the output stream is item-identical to the abandoned strategy."""
    keys = _outer_keys(clause, block, evaluator)
    yield from _join_block(clause, block, (keys, rows_by_key), evaluator)


def _outer_keys(clause: PPkLetClause, block: list[dict],
                evaluator: "Evaluator") -> list:
    """Each tuple's join key, computed in the middleware on the row
    compiler's atom lane: ``None`` for the empty sequence, the atom's
    value, or — several atoms under a general comparison, which joins on
    any of them — a tuple of values.  Several atoms under a value
    comparison raise the nested loop's error (the nested loop would need
    a row of the inner table with a non-NULL key to get that far)."""
    correlation = clause.pushed.correlation
    key_fn = atomfn(correlation.outer_key)
    keys = []
    for env in block:
        atom = key_fn(evaluator, env)
        if type(atom) is MANY:
            keys.append(many_values(atom, correlation.general))
        else:
            keys.append(None if atom is None else atom.value)
    return keys


def _block_sizer(clause: PPkLetClause, ctx):
    """``next_k()`` callback deciding the next block's capacity.

    With adaptation off this is the compiler's static ``clause.k``.  With
    it on, each call consults the observed-statistics fit — by construction
    *after* the previous round's fetches were recorded, which closes the
    observe→decide loop at block granularity."""
    batch_size = ctx.config.batch_size
    if not ctx.config.adaptive_ppk:
        return lambda: clause.k
    pushed = clause.pushed
    state = {"last": None}

    def next_k() -> int:
        recommended = ctx.observed.recommend_ppk(
            pushed.database, k_min=ADAPTIVE_K_MIN, k_max=ADAPTIVE_K_MAX,
            overhead_target=ADAPTIVE_OVERHEAD_TARGET,
        )
        chosen = recommended if recommended is not None else clause.k
        chosen = max(ADAPTIVE_K_MIN, min(ADAPTIVE_K_MAX, chosen))
        if batch_size > 1:
            # Batching delivers tuples upstream in batch_size chunks.  An
            # adaptive block larger than one batch cannot fill without
            # draining several upstream batches first, which stalls the
            # prefetch pipeline and defeats batch-granularity laziness —
            # the two knobs fight.  Cap k at the batch size (never below
            # the floor); with the default batch of 256 and k_max 200 the
            # cap is inert.
            chosen = min(chosen, max(ADAPTIVE_K_MIN, batch_size))
        if state["last"] is not None and chosen != state["last"]:
            database = ctx.databases.get(pushed.database)
            if database is not None:
                database.stats.bump(ppk_k_adjustments=1)
        state["last"] = chosen
        ctx.metrics.histogram("ppk.chosen_k", source=pushed.database).observe(chosen)
        return chosen

    return next_k


def _blocks(tuples: Iterator[dict], next_k) -> Iterator[tuple[list[dict], int]]:
    """Chop the tuple stream into ``(block, capacity)`` pairs, asking
    ``next_k`` for each new block's capacity as the previous one closes."""
    block: list[dict] = []
    capacity = next_k()
    for env in tuples:
        block.append(env)
        if len(block) >= capacity:
            yield block, capacity
            block = []
            capacity = next_k()
    if block:
        yield block, capacity


def _take(blocks: Iterator[tuple[list[dict], int]], n: int) -> list[tuple[list[dict], int]]:
    taken: list[tuple[list[dict], int]] = []
    for entry in blocks:
        taken.append(entry)
        if len(taken) >= n:
            break
    return taken


def _fetch_thunk(clause: PPkLetClause, block: list[dict], capacity: int,
                 evaluator: "Evaluator"):
    return lambda: _fetch_block(clause, block, capacity, evaluator)


def _join_thunk(clause: PPkLetClause, pending: list[tuple[list[dict], int]],
                fetched: list, evaluator: "Evaluator"):
    """One branch joining the whole pending window in block order, so the
    round's virtual-clock charge is max(sum-of-joins, slowest fetch)."""

    def join_all() -> list[dict]:
        joined: list[dict] = []
        for (block, _capacity), fetch in zip(pending, fetched):
            joined.extend(_join_block(clause, block, fetch, evaluator))
        return joined

    return join_all


def _fetch_block(clause: PPkLetClause, block: list[dict], capacity: int,
                 evaluator: "Evaluator") -> "tuple[list, _Partition]":
    """Issue the block's disjunctive query; returns the per-tuple join keys
    and the fetched rows hash-partitioned by the correlation column."""
    pushed = clause.pushed
    correlation = pushed.correlation
    assert correlation is not None
    ctx = evaluator.ctx
    ctx.stats.bump(ppk_blocks=1, ppk_tuples=len(block))

    with ctx.tracer.start("ppk.fetch", pushed.database, op=clause.op_id,
                          tuples=len(block), k=capacity) as span:
        keys = _outer_keys(clause, block, evaluator)
        distinct_keys = list(dict.fromkeys(
            value for key in keys if key is not None
            for value in (key if type(key) is tuple else (key,))))
        rows: list[dict] = []
        if distinct_keys:
            bucket = _bucket_size(len(distinct_keys), capacity)
            sql, order = _bucketed_sql(pushed, correlation, bucket, evaluator)
            # Non-correlation parameters are constant across the block
            # (otherwise the rewriter forced k=1); pad the key list with NULLs
            # up to the bucket size — NULL never equals anything, so padding
            # cannot match rows.
            values = (bind_parameters(pushed, block[0], evaluator)
                      + distinct_keys + [None] * (bucket - len(distinct_keys)))
            params = [values[i] for i in order]
            try:
                rows = ctx.connection(pushed.database).execute_query(sql, params)
            except SourceError as exc:
                if not ctx.absorb(pushed.database, exc):
                    raise
                # Degraded block: every tuple left-outer joins to nothing.
                span.set(degraded=True)
                rows = []
            else:
                ctx.stats.bump(pushed_queries=1)
                span.set(rows=len(rows))
        return keys, _Partition(rows, correlation.column_alias)


class _Partition(dict):
    """The hash join's build side: fetched rows partitioned by the
    correlation column (key value -> rows, each list in fetch order)."""

    def __init__(self, rows: list[dict], alias: str):
        super().__init__()
        self.rows, self.alias = rows, alias
        for row in rows:
            if alias not in row:
                raise DynamicError(
                    f"PP-k correlation alias {alias!r} missing "
                    f"from fetched row (columns: {sorted(row)})"
                )
            self.setdefault(row[alias], []).append(row)

    def any_of(self, keys: tuple) -> list[dict]:
        """The rows matching any value of a multi-atom key: each row once
        (it has one key), in fetch order."""
        alias = self.alias
        return [row for row in self.rows if row[alias] in keys]


def _join_block(clause: PPkLetClause, block: list[dict],
                fetched: tuple[list, dict],
                evaluator: "Evaluator") -> Iterator[dict]:
    keys, rows_by_key = fetched
    ctx = evaluator.ctx
    # The span covers only the middleware join charge, not the downstream
    # consumption of the joined tuples, so its elapsed time is exactly the
    # operator's own work.
    with ctx.tracer.start("ppk.join", op=clause.op_id,
                          tuples=len(block)):
        ctx.clock.charge_ms(ctx.middleware.ppk_join_ms_per_tuple * len(block))
    build = template_fn(clause.pushed.template)
    for env, key in zip(block, keys):
        if type(key) is tuple:
            matches = rows_by_key.any_of(key)
        else:
            matches = rows_by_key.get(key, [])
        items: list[Item] = []
        for row in matches:
            items.extend(build(row, [row]))
        extended = dict(env)
        extended[clause.var] = items
        yield extended


def _bucket_size(key_count: int, k: int) -> int:
    """Pad ``key_count`` up to the next power of two, capped at the block
    size ``k`` (a full block is its own bucket)."""
    size = 1
    while size < key_count:
        size <<= 1
    return max(min(size, k), key_count)


def _bucketed_sql(pushed: PushedSQL, correlation, bucket: int,
                  evaluator: "Evaluator") -> tuple[str, list[int]]:
    """The rendered disjunctive SQL and its parameter permutation for one
    bucket size, memoized on the pushed region so repeated blocks reuse
    both the rendering work and the source's statement cache."""
    cache = pushed._ppk_sql_cache
    if cache is None:
        cache = {}
        pushed._ppk_sql_cache = cache
    entry = cache.get(bucket)
    if entry is None:
        select = _disjunctive_select(pushed, correlation, bucket)
        sql = evaluator.ctx.renderer(pushed.vendor).render(select)
        entry = (sql, param_order(select))
        cache[bucket] = entry
    return entry


def _disjunctive_select(pushed: PushedSQL, correlation, key_count: int) -> Select:
    """Clone the base select and add ``(col = ?) OR (col = ?) ...`` with
    ``key_count`` parameters after the base parameters."""
    select = copy.deepcopy(pushed.select)
    base_param_count = len(pushed.param_exprs)
    disjunction = None
    for i in range(key_count):
        clause = BinOp("=", copy.deepcopy(correlation.column_expr),
                       Param(base_param_count + i))
        disjunction = clause if disjunction is None else BinOp("OR", disjunction, clause)
    assert disjunction is not None
    if select.where is None:
        select.where = disjunction
    else:
        select.where = BinOp("AND", select.where, disjunction)
    return select
