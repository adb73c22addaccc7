"""Function-level view of one layered-benchmark workload.

The layered benchmark's trace stops at layer boundaries (``rebuild``,
``Executor.execute``, ``serialize``).  This replays the same seeded
operations in one process — importing, never editing, the benchmark's own
federation, workloads, oracle and request driver, so every result is still
compared with the oracle — and prints the median wall time of each request
shape, then a ``cProfile`` top 30 by self time over a second replay.

    make profile W=pushed_scan          # every shape of the workload
    make profile W=pushed_scan R=1      # only its second request shape

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


def replay(driver: Driver, ops: range, only: int | None, timings: dict | None) -> None:
    """Execute operations ``ops``; a mismatch with the oracle raises."""
    for i in ops:
        for position, request in enumerate(driver.workload.requests(i)):
            if only is not None and position != only:
                continue
            start = time.perf_counter()
            driver.execute(request)
            if timings is not None:
                label = request.text[:70] or "read_for_update / set / submit"
                timings.setdefault((position, label), []).append(
                    (time.perf_counter() - start) * 1000.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--request", type=int, default=None,
                        help="index of the one request shape to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=30,
                        help="operations per replay (default 30)")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.request is not None and args.workload == "read_write_mix":
        parser.error("read_write_mix reads what its own writes renamed: run every shape")

    fed = build_federation(args.seed, SIZES[args.sizes], OUT)
    try:
        workload = WORKLOADS[args.workload](fed, Oracle(fed.rows), args.seed)
        driver = Driver(fed, workload, None)
        replay(driver, range(0, 1), args.request, None)  # warm the caches
        gc.collect()
        gc.freeze()

        timings: dict[tuple[int, str], list[float]] = {}
        replay(driver, range(1, args.ops + 1), args.request, timings)
        print(f"{args.workload}, seed {args.seed}, {args.ops} operations, "
              "every result checked against the oracle")
        print(f"{'request':>7}  {'median ms':>9}  {'min ms':>8}  shape")
        for (position, label), values in sorted(timings.items()):
            print(f"{position:>7}  {statistics.median(values):>9.2f}  "
                  f"{min(values):>8.2f}  {label}")

        profile = cProfile.Profile()
        profile.enable()
        replay(driver, range(args.ops + 1, 2 * args.ops + 1), args.request, None)
        profile.disable()
        mismatched = workload.final_mismatches()
    finally:
        fed.close()
    if mismatched:
        raise SystemExit(f"{args.workload}: end-of-run state differs from the oracle's")
    pstats.Stats(profile).sort_stats("tottime").print_stats(30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
