"""Function-level view of one layered-benchmark workload.

The layered benchmark's trace stops at layer boundaries (``rebuild``,
``Executor.execute``, ``serialize``).  This replays the same seeded
operations in one process — importing, never editing, the benchmark's own
federation, workloads, oracle and request driver, so every result is still
compared with the oracle — and prints the median wall time of each request
shape, then a ``cProfile`` top 30 by self time over a second replay
(``--sort cumulative``: by time under the function, callees included — the
view that answers "under what" when a cost is spread over many small
callees).

    make profile W=pushed_scan          # every shape of the workload
    make profile W=pushed_scan R=1      # only its second request shape
    make profile W=midtier_flwor R=3 SORT=cumulative
    python3 benchmarks/profile_workload.py --workload cold_compile --phases

``--phases`` splits each shape's time instead of profiling it: median ms
of ``Platform.prepare`` on the request's text, of the first
``stream`` + ``serialize`` on the plan that produced, and of the same
request run again at once (compile / first run / steady state), beside
how many compiler runs and how many plan-cache *shape hits* (an unseen text
served by a cached shape: scan, lookup, bind) the shape's prepares cost over
the replay.  On a workload whose texts repeat, only the first operation
compiles anything; on ``cold_compile`` the warm-up compiles each shape
twice and every later text is a shape hit.

``--builds`` counts trees instead: per shape, how many row-backed elements
(``DeferredElement``s: a pushed region's, a table scan's or a delimited
file's records, and their children) had their tree built per operation,
split into *root* (no row-backed parent: a result's own element) and
*nested* (a child of one that was built first).  Every other element is
an ordinary tree and not counted.

    make profile W=cold_compile BUILDS=1

``--lanes`` counts batches instead: per shape and FLWOR stage label
(``where#3``, ``group-by#2``, ``index-join#2`` …), how many batches per
operation the column lane answered and how many it handed back to be run
row by row — every batch of a stage with no column at all counts as by
rows.  Only the stages that offer the lane a batch appear: ``where``,
``let``, group and order keys, an ``eq`` index-join probe; and two more
rows: ``return``, the batches a ``return``'s column answered (``batchexec``'s
``itemsfn``, or ``colfn`` at a commit from before it) or that ran by rows,
and ``index-join.build``, the index builds its inner key's column answered
(``batchexec._column_index``) or that keyed item by item.  Beside them,
per shape, the *rows built* per operation: the environment dicts the FLWOR
pipeline created — a batch's rows built from its carried columns
(``batch.materialise``), group rows (``batchexec._grouped_rows``) and the
rows a ``for`` over any sequence but a range, or an index join, bound
(``batchexec._item_bind``; at a commit from before carried columns,
``batchexec._for_kernel``), so the same script counts both sides of that
change.  A scatter group's, a pushed join's and PP-k's rows are not
counted.

    make profile W=midtier_flwor LANES=1

Times here are raw (one process, profiler off for the medians, no
calibration loop): use them to find *where* time goes, and the benchmark
itself to claim *how much* it changed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "layered")]

from child import OUT, Driver  # noqa: E402
from federation import SIZES, build_federation  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.runtime import batch as batch_module  # noqa: E402
from repro.runtime import batchexec  # noqa: E402
from repro.runtime.context import RuntimeStats  # noqa: E402
from repro.xml.items import DeferredElement, ElementNode  # noqa: E402


def replay(driver: Driver, ops: range, only: int | None, timings: dict | None,
           phases: bool = False, tally: Counter | None = None) -> None:
    """Execute operations ``ops``; a mismatch with the oracle raises.

    ``timings`` is keyed by request position (a workload may put a fresh
    literal in every text) and holds the first text seen there as the
    label, then one sample per operation: the request's ms, with ``phases``
    (prepare ms, first run ms, warm re-run ms, compiler runs, shape hits),
    or with a ``tally`` that a ``wrap_*`` function fills, a copy of what the
    request added to it."""
    cache = driver.platform.plan_cache
    for i in ops:
        for position, request in enumerate(driver.workload.requests(i)):
            if only is not None and position != only:
                continue
            if tally is not None:
                tally.clear()
            start = time.perf_counter()
            if phases:
                compiles, shape_hits = cache.compiles, cache.shape_hits
                driver.platform.prepare(request.text, request.variables)
                prepared = time.perf_counter()
                compiles, shape_hits = (cache.compiles - compiles,
                                        cache.shape_hits - shape_hits)
                driver.execute(request)
                first = time.perf_counter()
                driver.execute(request)
                sample = ((prepared - start) * 1000.0, (first - prepared) * 1000.0,
                          (time.perf_counter() - first) * 1000.0, compiles, shape_hits)
            else:
                driver.execute(request)
                sample = (Counter(tally) if tally is not None
                          else (time.perf_counter() - start) * 1000.0)
            if timings is not None:
                label = request.text[:70] or "read_for_update / set / submit"
                timings.setdefault(position, (label, []))[1].append(sample)


def built_nodes(element) -> int:
    """The nodes a build created under ``element``: its attributes and
    children, and the content of every child built with it (a child left
    unread counts once)."""
    count = len(element.attributes)
    for child in element.children():
        count += 1
        if isinstance(child, ElementNode) and child._source is None:
            count += built_nodes(child)
    return count


def wrap_builds(tally: Counter):
    """Count the first read of every row-backed element: ``tally[0]`` root
    builds, ``tally[1]`` nested builds, ``tally[2]`` the nodes those builds
    created.  Returns the function that unwraps it."""
    materialise = DeferredElement._materialise

    def counted(element):
        unread = element._source is not None
        materialise(element)
        if unread:
            tally[isinstance(element.parent, DeferredElement)] += 1
            tally[2] += built_nodes(element)

    DeferredElement._materialise = counted

    def unwrap() -> None:
        DeferredElement._materialise = materialise

    return unwrap


#: the ``--lanes`` tally's key for rows built
BUILT = "rows built"


def wrap_lanes(tally: Counter):
    """Wrap ``batchexec._lane``, the column lane of a stage, so that each
    batch offered to it is counted in ``tally[stage label, ran by rows]``,
    and every maker of a pipeline row (the module docstring's list) that
    this commit has, so that each row is counted in ``tally[BUILT]``.
    Returns the function that unwraps them.  Wrap before the first compile:
    the eager driver keeps the lanes and binds its FLWOR was built with."""

    making_lane: list = []  # a stage's lane is being made: its columns are not a return's

    def counted_lanes(lane):
        def wrapped(stage):
            making_lane.append(stage)
            try:
                stage_lane = lane(stage)
            finally:
                making_lane.pop()

            def call(evaluator, batch):
                result = None if stage_lane is None else stage_lane(evaluator, batch)
                tally[stage.label, result is None] += 1
                return result

            return call

        return wrapped

    def counted_rows(materialise):
        def wrapped(*args):
            rows = materialise(*args)
            tally[BUILT] += len(rows)
            return rows

        return wrapped

    def counted_groups(grouped_rows):
        def wrapped(*args):
            for row in grouped_rows(*args):
                tally[BUILT] += 1
                yield row

        return wrapped

    def counted_binds(item_bind):
        def wrapped(*args):
            bind = item_bind(*args)

            def counted(row, items, position):
                batch = bind(row, items, position)
                tally[BUILT] += len(batch.bases)
                return batch

            return counted

        return wrapped

    def answered(label: str) -> None:  # the batch or build counted as by rows was not
        tally[label, True] -= 1
        tally[label, False] += 1

    def counted_observe(observe):
        def wrapped(run, label, rows):
            if label == "return":
                tally["return", True] += 1
            return observe(run, label, rows)

        return wrapped

    def counted_returns(make_column):
        def wrapped(*args):
            column = make_column(*args)
            if making_lane or column is None:
                return column

            def call(evaluator, batch):
                result = column(evaluator, batch)
                if result is not None:
                    answered("return")
                return result

            return call

        return wrapped

    def counted_bumps(bump):
        def wrapped(stats, **deltas):
            if "index_joins_built" in deltas:
                tally["index-join.build", True] += 1
            return bump(stats, **deltas)

        return wrapped

    def counted_indexes(column_index):
        def wrapped(*args):
            keyed = column_index(*args)
            if keyed:
                answered("index-join.build")
            return keyed

        return wrapped

    def counted_kernels(for_kernel):  # a commit from before carried columns
        def wrapped(*args):
            kernel = for_kernel(*args)
            if not callable(kernel):  # ``(items_fn, bind)``: counted by ``_item_bind``
                return kernel

            def bind(row, items, position, out):
                before = len(out)
                kernel(row, items, position, out)
                tally[BUILT] += len(out) - before

            return bind

        return wrapped

    originals = []
    for module, name, wrap in [(batchexec, "_lane", counted_lanes),
                               (batch_module, "materialise", counted_rows),
                               (batchexec, "_grouped_rows", counted_groups),
                               (batchexec, "_item_bind", counted_binds),
                               (batchexec, "_for_kernel", counted_kernels),
                               (batchexec._Run, "observe", counted_observe),
                               (RuntimeStats, "bump", counted_bumps),
                               (batchexec, "_column_index", counted_indexes),
                               (batchexec, "itemsfn" if hasattr(batchexec, "itemsfn")
                                else "colfn", counted_returns)]:
        if hasattr(module, name):
            originals.append((module, name, getattr(module, name)))
            setattr(module, name, wrap(getattr(module, name)))

    def unwrap() -> None:
        for module, name, original in originals:
            setattr(module, name, original)

    return unwrap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--request", type=int, default=None,
                        help="index of the one request shape to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=30,
                        help="operations per replay (default 30)")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime",
                        help="order of the cProfile table: self time (default) or "
                             "time under the function, callees included")
    view = parser.add_mutually_exclusive_group()
    view.add_argument("--phases", action="store_true",
                      help="per shape: median ms of prepare, first run and warm "
                           "re-run, in place of the cProfile table")
    view.add_argument("--builds", action="store_true",
                      help="per shape: row-backed elements whose tree was built, per "
                           "operation (root / nested), in place of the cProfile table")
    view.add_argument("--lanes", action="store_true",
                      help="per shape and stage: batches per operation the column lane "
                           "answered / ran by rows, in place of the cProfile table")
    args = parser.parse_args(argv)
    if args.workload == "read_write_mix" and (args.request is not None or args.phases):
        parser.error("read_write_mix reads what its own writes renamed: "
                     "run every shape, once each")

    fed = build_federation(args.seed, SIZES[args.sizes], OUT)
    tally: Counter | None = None
    unwrap = None
    if args.builds or args.lanes:
        tally = Counter()
        unwrap = (wrap_builds if args.builds else wrap_lanes)(tally)
    try:
        workload = WORKLOADS[args.workload](fed, Oracle(fed.rows), args.seed)
        driver = Driver(fed, workload, None)
        replay(driver, range(0, 1), args.request, None)  # warm the caches
        gc.collect()
        gc.freeze()
        timings: dict[int, tuple[str, list]] = {}
        replay(driver, range(1, args.ops + 1), args.request, timings, args.phases, tally)
        print(f"{args.workload}, seed {args.seed}, {args.ops} operations, "
              "every result checked against the oracle")
        if args.builds:
            print(f"{'request':>7}  {'root/op':>8}  {'nested/op':>9}  {'nodes/op':>8}  shape")
            totals: Counter = Counter()
            for position, (label, samples) in sorted(timings.items()):
                total = sum(samples, Counter())
                root, nested, nodes = (total[n] / args.ops for n in range(3))
                print(f"{position:>7}  {root:>8.1f}  {nested:>9.1f}  {nodes:>8.1f}  {label}")
                totals += total
            root, nested, nodes = (totals[n] / args.ops for n in range(3))
            print(f"{'total':>7}  {root:>8.1f}  {nested:>9.1f}  {nodes:>8.1f}")
        elif args.lanes:
            print(f"{'request':>7}  {'built/op':>8}  {'stage':<16}  {'column/op':>9}  "
                  f"{'rows/op':>7}  shape (built: rows built; rows: batches, or builds, by rows)")
            for position, (label, samples) in sorted(timings.items()):
                total = sum(samples, Counter())
                built = f"{total[BUILT] / args.ops:>8.1f}"
                stages = [key[0] for key in total if key != BUILT]
                for stage in dict.fromkeys(stages) or ["-"]:  # first offered, first
                    print(f"{position:>7}  {built:>8}  {stage:<16}  "
                          f"{total[stage, False] / args.ops:>9.1f}  "
                          f"{total[stage, True] / args.ops:>7.1f}  {label}")
                    label = built = ""
        elif args.phases:
            print(f"{'request':>7}  {'prepare':>8}  {'first run':>9}  {'warm run':>8}  "
                  f"{'compiles':>8}  {'shape hits':>10}  shape (median ms; totals)")
            for position, (label, samples) in sorted(timings.items()):
                *times, compiles, shape_hits = zip(*samples)
                prepare, first, warm = (statistics.median(column) for column in times)
                print(f"{position:>7}  {prepare:>8.2f}  {first:>9.2f}  {warm:>8.2f}  "
                      f"{sum(compiles):>8}  {sum(shape_hits):>10}  {label}")
        else:
            print(f"{'request':>7}  {'median ms':>9}  {'min ms':>8}  shape")
            for position, (label, values) in sorted(timings.items()):
                print(f"{position:>7}  {statistics.median(values):>9.2f}  "
                      f"{min(values):>8.2f}  {label}")

        profile = None
        if not (args.phases or args.builds or args.lanes):
            profile = cProfile.Profile()
            profile.enable()
            replay(driver, range(args.ops + 1, 2 * args.ops + 1), args.request, None)
            profile.disable()
        mismatched = workload.final_mismatches()
    finally:
        if unwrap is not None:
            unwrap()
        fed.close()
    if mismatched:
        raise SystemExit(f"{args.workload}: end-of-run state differs from the oracle's")
    if profile is not None:
        pstats.Stats(profile).sort_stats(args.sort).print_stats(30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
