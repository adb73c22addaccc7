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
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "layered")]

from child import OUT, Driver  # noqa: E402
from federation import SIZES, build_federation  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.xml.items import DeferredElement, ElementNode  # noqa: E402


def replay(driver: Driver, ops: range, only: int | None, timings: dict | None,
           phases: bool = False) -> None:
    """Execute operations ``ops``; a mismatch with the oracle raises.

    ``timings`` is keyed by request position (a workload may put a fresh
    literal in every text) and holds the first text seen there as the
    label, then one sample per operation: the request's ms, or with
    ``phases`` (prepare ms, first run ms, warm re-run ms, compiler runs,
    shape hits)."""
    cache = driver.platform.plan_cache
    for i in ops:
        for position, request in enumerate(driver.workload.requests(i)):
            if only is not None and position != only:
                continue
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
                sample = (time.perf_counter() - start) * 1000.0
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


def count_builds(driver: Driver, ops: range, only: int | None) -> dict:
    """Replay ``ops`` with the first read of every row-backed element
    counted: request position -> (label, [root builds, nested builds,
    nodes those builds created])."""
    materialise = DeferredElement._materialise
    counts: dict[int, tuple[str, list[int]]] = {}
    current = [0, 0, 0]

    def counted(element):
        unread = element._source is not None
        materialise(element)
        if unread:
            current[isinstance(element.parent, DeferredElement)] += 1
            current[2] += built_nodes(element)

    DeferredElement._materialise = counted
    try:
        for i in ops:
            for position, request in enumerate(driver.workload.requests(i)):
                if only is not None and position != only:
                    continue
                current[:] = [0, 0, 0]
                driver.execute(request)
                label = request.text[:70] or "read_for_update / set / submit"
                total = counts.setdefault(position, (label, [0, 0, 0]))[1]
                for n, value in enumerate(current):
                    total[n] += value
    finally:
        DeferredElement._materialise = materialise
    return counts


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
    parser.add_argument("--phases", action="store_true",
                        help="per shape: median ms of prepare, first run and warm "
                             "re-run, in place of the cProfile table")
    parser.add_argument("--builds", action="store_true",
                        help="per shape: row-backed elements whose tree was built, per "
                             "operation (root / nested), in place of the cProfile table")
    args = parser.parse_args(argv)
    if args.workload == "read_write_mix" and (args.request is not None or args.phases):
        parser.error("read_write_mix reads what its own writes renamed: "
                     "run every shape, once each")

    fed = build_federation(args.seed, SIZES[args.sizes], OUT)
    try:
        workload = WORKLOADS[args.workload](fed, Oracle(fed.rows), args.seed)
        driver = Driver(fed, workload, None)
        replay(driver, range(0, 1), args.request, None)  # warm the caches
        gc.collect()
        gc.freeze()
        timings: dict[int, tuple[str, list]] = {}
        if args.builds:
            counts = count_builds(driver, range(1, args.ops + 1), args.request)
        else:
            replay(driver, range(1, args.ops + 1), args.request, timings, args.phases)
        print(f"{args.workload}, seed {args.seed}, {args.ops} operations, "
              "every result checked against the oracle")
        if args.builds:
            print(f"{'request':>7}  {'root/op':>8}  {'nested/op':>9}  {'nodes/op':>8}  shape")
            totals = [0, 0, 0]
            for position, (label, total) in sorted(counts.items()):
                root, nested, nodes = (value / args.ops for value in total)
                print(f"{position:>7}  {root:>8.1f}  {nested:>9.1f}  {nodes:>8.1f}  {label}")
                totals = [a + b for a, b in zip(totals, total)]
            root, nested, nodes = (value / args.ops for value in totals)
            print(f"{'total':>7}  {root:>8.1f}  {nested:>9.1f}  {nodes:>8.1f}")
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
        if not (args.phases or args.builds):
            profile = cProfile.Profile()
            profile.enable()
            replay(driver, range(args.ops + 1, 2 * args.ops + 1), args.request, None)
            profile.disable()
        mismatched = workload.final_mismatches()
    finally:
        fed.close()
    if mismatched:
        raise SystemExit(f"{args.workload}: end-of-run state differs from the oracle's")
    if profile is not None:
        pstats.Stats(profile).sort_stats(args.sort).print_stats(30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
