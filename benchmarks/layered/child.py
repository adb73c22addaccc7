"""One repetition of one workload, in a process of its own.

``run.py`` spawns this file; it prints one JSON object on its last line.
A repetition is: set-up (import the engine, build + load + deploy the
federation, one warm-up operation) -> a *count window* of ``COUNT_OPS``
operations between two counter snapshots (the exact per-operation counts
and the result digest come from here, so they do not depend on how many
operations the clock later allows) -> the *timed window*, operations until
the deadline.

Every time is reported at *reference speed*.  The reference box drifts by
10-15% over seconds (a shared 2-core VM), which would drown any bound
worth gating on; a fixed pure-Python loop run right before each timed
operation drifts with it.  So each timing is divided by ``loop time /
REFERENCE_LOOP_MS`` of the loop beside it: a time in "ms" is what the
operation would take on a machine that runs the loop in exactly
``REFERENCE_LOOP_MS``.  The loop never touches the engine, so an engine
change moves the metric and a machine change does not.

Modes: ``plain`` (tracing off: every end-to-end number), ``traced``
(:mod:`trace` wrappers installed: per-layer self times) and ``virtual``
(virtual clock, default latency model, count window only).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: operations in the count window
COUNT_OPS = 2
#: the timed window never stops before this many operations
MIN_TIMED_OPS = 3
#: every request carries this deadline budget; nothing comes near it
BUDGET_MS = 30_000.0


#: the calibration loop's time on the quiet reference box, by definition
REFERENCE_LOOP_MS = 1.0
#: loops timed back to back before and after set-up
CALIBRATION_BURST = 15


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


#: what the calibration loop walks: small dicts, like the rows and tuples
#: the engine spends its time on
_ROWS = [{"a": i, "b": str(i), "c": 3 * i} for i in range(7000)]


def speed() -> float:
    """How slow the machine is right now, as a multiple of the reference:
    the time of a fixed pure-Python loop (about 1 ms) over
    ``REFERENCE_LOOP_MS``.  Its time moves with the machine, never with
    the engine.  The loop looks up, compares and copies dicts because that
    is what the engine does: when the box slowed down by 70%, operations
    over this loop stayed within 15%, over an arithmetic loop within 32%."""
    start = time.perf_counter()
    total = 0
    for row in _ROWS:
        if row["a"] % 3 == 1 and row["b"] != "7":
            total += row["c"]
        copy = dict(row)
        copy["d"] = total
    return (time.perf_counter() - start) * 1000.0 / REFERENCE_LOOP_MS


def speed_burst() -> float:
    return statistics.median(speed() for _ in range(CALIBRATION_BURST))


class Failure(Exception):
    """An operation's output differed from the oracle's."""


class Driver:
    """Executes planned requests the one way every workload does: stream,
    serialize, compare with the oracle."""

    def __init__(self, fed, workload, tracer):
        self.platform = fed.platform
        self.workload = workload
        self.tracer = tracer
        # looked up on the module at each call, so the traced child's
        # wrapper around ``serialize`` is the one that runs (the package
        # attribute ``repro.xml.serialize`` is the function, not the module)
        self._xml = importlib.import_module("repro.xml.serialize")
        self.server = None
        self.sessions: dict[str, str] = {}
        self.digest = hashlib.sha256()
        self.bytes_out = 0
        self.submits = 0
        self.submit_statements = 0
        self.failures = {"error": 0, "shed": 0, "deadline": 0, "mismatch": 0}
        self.first_failure: str | None = None
        self._lock = threading.Lock()
        if workload.threaded:
            self._build_server()

    def _build_server(self) -> None:
        from repro.server import AdmissionController, DataServer

        from workloads import TENANTS

        self._tenants = TENANTS
        self.platform.security.protect_element(
            ("PROFILE", "CREDIT_CARDS"),
            {role for _secret, roles, visible in TENANTS.values() if visible
             for role in roles})
        # max_concurrent covers every client, so nothing sheds by design
        admission = AdmissionController(self.platform.clock, max_concurrent=4)
        self.server = DataServer(self.platform, admission=admission,
                                 default_budget_ms=BUDGET_MS)
        for tenant, (secret, roles, _visible) in TENANTS.items():
            self.server.register_tenant(tenant, secret, roles=roles)
        self.sessions = self.open_sessions()

    def open_sessions(self) -> dict[str, str]:
        return {tenant: self.server.open_session(tenant, secret).session_id
                for tenant, (secret, _roles, _visible) in self._tenants.items()}

    # -- one request ------------------------------------------------------------

    def execute(self, request, sessions: dict[str, str] | None = None):
        """Run one request to its last item, serialized and checked.
        Returns (seconds to its first item or None, serialized output)."""
        first = None
        if request.update is not None:
            cid, last_name = request.update
            [obj] = self.platform.read_for_update(
                "ProfileService", "getProfileByID", cid)
            obj.setLAST_NAME(last_name)
            result = self.platform.submit(obj)
            self.submits += 1
            self.submit_statements += len(result.statements)
            out = (f"submit:{result.rows_updated}:"
                   f"{','.join(result.affected_databases)}:{len(result.statements)}")
        elif request.tenant:
            response = self.server.execute(
                (sessions or self.sessions)[request.tenant], request.text,
                request.variables)
            out = self._xml.serialize(response.items)
        else:
            start = time.perf_counter()
            items = []
            for item in self.platform.stream(request.text, request.variables,
                                             budget_ms=BUDGET_MS):
                if first is None:
                    first = time.perf_counter() - start
                items.append(item)
            out = self._xml.serialize(items)
        if out != request.expected:
            raise Failure(f"{self.workload.name}: {request.text[:60]!r} returned "
                          f"{out[:120]!r}, oracle says {request.expected[:120]!r}")
        return first, out

    def run_op(self, op_id, requests, sessions=None, record: bool = False):
        """One operation under one root span.  Returns (ok, ttfi)."""
        from repro.errors import AdmissionError, DeadlineExceededError

        ttfi = None
        root = self.tracer.op(op_id) if self.tracer is not None else nullcontext()
        try:
            with root:
                for request in requests:
                    first, out = self.execute(request, sessions)
                    if request.ttfi:
                        ttfi = first
                    if record:
                        self.digest.update(out.encode())
                        self.bytes_out += len(out)
            return True, ttfi
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            kind = ("shed" if isinstance(exc, AdmissionError)
                    else "deadline" if isinstance(exc, DeadlineExceededError)
                    else "mismatch" if isinstance(exc, Failure) else "error")
            with self._lock:
                self.failures[kind] += 1
                if self.first_failure is None:
                    self.first_failure = traceback.format_exc(limit=6)
            return False, None

    # -- counters ---------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        platform = self.platform
        snap = platform.metrics_snapshot()

        def family(prefix: str) -> float:
            return sum(value for key, value in snap.items()
                       if key.startswith(prefix + "{"))

        admission = self.server.admission.snapshot() if self.server else {}
        return {
            "roundtrips": family("source.roundtrips"),
            "rows_shipped": family("source.rows_shipped"),
            "statements": sum(len(db.stats.statements)
                              for db in platform.ctx.databases.values()),
            "ws_calls": snap["runtime.service_calls"],
            "ppk_blocks": snap["runtime.ppk_blocks"],
            "tuples_flowed": snap["runtime.tuples_flowed"],
            "index_join_probes": snap["runtime.middleware_join_probes"],
            "batch_rows": sum(value["sum"] for key, value in snap.items()
                              if key.startswith("batch.rows{")),
            "batch_count": family("batch.count"),
            "group_peak_resident": snap["group.peak_resident"],
            "plan_hits": snap["plan_cache.hits"],
            "plan_misses": snap["plan_cache.misses"],
            "view_hits": platform.view_cache.hits,
            "view_misses": platform.view_cache.misses,
            "stmt_hits": family("source.stmt_cache_hits"),
            "stmt_misses": family("source.stmt_cache_misses"),
            "retries": family("source.retries"),
            "elements_removed": sum(record.decision == "remove"
                                    for record in platform.security.audit_log),
            "shed": sum(admission.get(key, 0) for key in
                        ("shed_quota", "shed_overload", "shed_cost")),
            "bytes_out": self.bytes_out,
            "submits": self.submits,
            "submit_statements": self.submit_statements,
        }

    # -- the timed window ---------------------------------------------------------

    def timed_single(self, seconds: float, ops: int | None, first_op: int) -> dict:
        """Operations until the deadline, each beside its own calibration
        loop; latencies and CPU are at reference speed."""
        latencies, raw, ttfis, op_ids, speeds = [], [], [], [], []
        cpu_ms = 0.0
        deadline = time.perf_counter() + seconds
        i = first_op
        while True:
            requests = self.workload.requests(i)
            now = speed()
            c0 = time.process_time()
            t0 = time.perf_counter()
            ok, ttfi = self.run_op(i, requests)
            t1 = time.perf_counter()
            cpu = time.process_time() - c0
            if ok:
                speeds.append(now)
                raw.append((t1 - t0) * 1000.0)
                latencies.append((t1 - t0) * 1000.0 / now)
                cpu_ms += cpu * 1000.0 / now
                op_ids.append(i)
                if ttfi is not None:
                    ttfis.append(ttfi * 1000.0 / now)
            i += 1
            done = i - first_op
            if ops is not None:
                if done >= ops:
                    break
            elif t1 >= deadline and done >= MIN_TIMED_OPS:
                break
        return {"attempted": i - first_op, "latencies": latencies, "raw": raw,
                "ttfis": ttfis, "op_ids": op_ids, "cpu_ms": cpu_ms,
                "busy_ms": sum(latencies), "speed": statistics.median(speeds or [1.0])}

    def timed_threads(self, seconds: float, ops: int | None, first_op: int) -> dict:
        """Closed-loop clients, one thread each; an operation is a request.
        Client c sends rounds ``first_op + c, + clients, ...``.  A loop
        timed inside a client is sometimes stretched by a GIL hand-over,
        which is the contention the workload is there to measure and must
        not be divided away; most loops (about 1 ms against a 5 ms switch
        interval) run undisturbed, so the stage as a whole is scaled by
        the *median* loop instead of each request by its own."""
        clients = min(os.cpu_count() or 1, 4)
        results = [{"attempted": 0, "raw": [], "speeds": [], "op_ids": []}
                   for _ in range(clients)]
        barrier = threading.Barrier(clients + 1)
        deadline = [0.0]

        def client(index: int) -> None:
            mine = results[index]
            sessions = self.open_sessions()
            barrier.wait()
            round_ = first_op + index
            while True:
                for position, request in enumerate(self.workload.requests(round_)):
                    op_id = f"{round_}.{position}"
                    mine["speeds"].append(speed())
                    t0 = time.perf_counter()
                    ok, _ttfi = self.run_op(op_id, [request], sessions)
                    t1 = time.perf_counter()
                    mine["attempted"] += 1
                    if ok:
                        mine["raw"].append((t1 - t0) * 1000.0)
                        mine["op_ids"].append(op_id)
                    if ops is None and t1 >= deadline[0] \
                            and mine["attempted"] >= MIN_TIMED_OPS:
                        return
                round_ += clients
                if ops is not None and mine["attempted"] >= ops:
                    return

        threads = [threading.Thread(target=client, args=(index,), name=f"client-{index}")
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        deadline[0] = t0 + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        wall_ms = (time.perf_counter() - t0) * 1000.0
        cpu_ms = (time.process_time() - c0) * 1000.0

        def merged(key: str) -> list:
            return [x for r in results for x in r[key]]

        now = statistics.median(merged("speeds"))
        return {"attempted": sum(r["attempted"] for r in results),
                "latencies": [x / now for x in merged("raw")], "raw": merged("raw"),
                "ttfis": [],
                "op_ids": merged("op_ids"), "cpu_ms": cpu_ms / now,
                "busy_ms": wall_ms / now, "speed": now}


def run(args) -> dict:
    if args.ops is None and hasattr(os, "sched_setaffinity"):
        # One CPU per (timed) child.  The GIL runs one thread at a time anyway, and
        # on a shared 2-vCPU box a hand-over to a thread whose vCPU the
        # neighbour holds stalls both: unpinned, serving_mix swung 10%
        # from run to run, pinned 3%.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed_before = speed_burst()
    started = time.perf_counter()
    tracer = None
    if args.mode == "traced":
        from trace import Tracer, leftover_patches

        tracer = Tracer()
        tracer.install()
    from federation import SIZES, build_federation
    from oracle import Oracle
    from workloads import WORKLOADS

    virtual = args.mode == "virtual"
    fed = build_federation(args.seed, SIZES[args.sizes], OUT, virtual=virtual)
    try:
        workload = WORKLOADS[args.workload](fed, Oracle(fed.rows), args.seed)
        driver = Driver(fed, workload, tracer)
        driver.run_op(0, workload.requests(0), record=True)
        # The loaded tables stand for *remote* databases; left in the
        # collected heap they make every full collection walk ~10^5 row
        # dicts, a ~10 ms pause every few operations that belongs to the
        # simulation, not to the mid-tier.  Freeze what set-up built.
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - started
        # set-up has no operations to calibrate beside: bracket it
        setup_speed = (speed_before + speed_burst()) / 2.0

        # -- count window ------------------------------------------------------
        if tracer is not None:
            fed.platform.security.enable_auditing()
        fed.platform.reset_stats()
        before = driver.counters()
        clock_before = fed.platform.clock.now_ms()
        for i in range(1, COUNT_OPS + 1):
            driver.run_op(i, workload.requests(i), record=True)
        virtual_ms = (fed.platform.clock.now_ms() - clock_before) / COUNT_OPS
        after = driver.counters()
        delta = {key: after[key] - before[key] for key in after}
        ir = dict(tracer.ir) if tracer is not None else None

        # -- timed window ------------------------------------------------------
        timed = {"attempted": 0, "latencies": [], "raw": [], "ttfis": [], "op_ids": [],
                 "cpu_ms": 0.0, "busy_ms": 0.0, "speed": setup_speed}
        if not virtual:
            window = driver.timed_threads if workload.threaded else driver.timed_single
            timed = window(args.seconds, args.ops, COUNT_OPS + 1)
        mismatched_state = workload.final_mismatches()
    finally:
        fed.close()

    latencies = sorted(timed["latencies"])
    completed = len(latencies)
    failed = sum(driver.failures.values()) + mismatched_state
    result = {
        "mode": args.mode,
        "setup_s": setup_s / setup_speed,
        "raw": {"setup_s": setup_s,
                "latency_p50_ms": statistics.median(timed["raw"]) if timed["raw"] else None},
        "calibration_ms": timed["speed"] * REFERENCE_LOOP_MS,
        "attempted": 1 + COUNT_OPS + timed["attempted"],
        "failed": failed,
        "failures": dict(driver.failures, state=mismatched_state),
        "first_failure": driver.first_failure,
        "completed": completed,
        "ttfi_p50_ms": statistics.median(timed["ttfis"]) if timed["ttfis"] else None,
        "digest": driver.digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": exact_counts(delta, after),
        "ratios": ratios(delta, 1 + COUNT_OPS + timed["attempted"],
                         after["shed"]),
        "virtual_ms_per_op": virtual_ms if virtual else None,
    }
    if completed:
        result.update(
            latency_p50_ms=percentile(latencies, 50),
            latency_p95_ms=percentile(latencies, 95),
            throughput_ops_s=completed * 1000.0 / timed["busy_ms"],
            cpu_ms_per_op=timed["cpu_ms"] / completed,
        )
    if tracer is not None:
        result["exact"].update(
            {"xquery.ast_nodes": ir["ast_nodes"] / max(1, ir["parses"]),
             "compiler.plan_nodes": ir["plan_nodes"] / max(1, ir["plans"]),
             "sql.pushed_regions": ir["pushed_regions"] / max(1, ir["plans"]),
             "security.elements_removed": delta["elements_removed"] / COUNT_OPS})
        result["spans"] = span_metrics(tracer, set(timed["op_ids"]),
                                       sum(timed["raw"]), timed["speed"])
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}.json")
        tracer.uninstall()
        leftovers = leftover_patches()
        if leftovers:
            raise RuntimeError(f"trace wrappers left installed: {leftovers}")
    return result


def exact_counts(delta: dict, after: dict) -> dict[str, float]:
    """Per-operation counts over the count window (repeat exactly)."""
    per_op = {key: value / COUNT_OPS for key, value in delta.items()}
    return {
        "sources.roundtrips": per_op["roundtrips"],
        "sources.rows_shipped": per_op["rows_shipped"],
        "sources.statements": per_op["statements"],
        "sources.ws_calls": per_op["ws_calls"],
        "runtime.ppk_blocks": per_op["ppk_blocks"],
        "runtime.tuples_flowed": per_op["tuples_flowed"],
        "runtime.index_join_probes": per_op["index_join_probes"],
        "runtime.rows_per_batch": (delta["batch_rows"] / delta["batch_count"]
                                   if delta["batch_count"] else 0.0),
        # a high-water mark, not a sum: reset_stats() zeroed it before the window
        "runtime.group_peak_resident": after["group_peak_resident"],
        "xml.bytes_out": per_op["bytes_out"],
        "sdo.statements_per_submit": (delta["submit_statements"] / delta["submits"]
                                      if delta["submits"] else 0.0),
        "resilience.retries": per_op["retries"],
    }


def ratios(delta: dict, attempted: int, shed: float) -> dict[str, float]:
    def hit_ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "compiler.plan_cache_hit_ratio": hit_ratio(delta["plan_hits"], delta["plan_misses"]),
        "compiler.view_cache_hit_ratio": hit_ratio(delta["view_hits"], delta["view_misses"]),
        "relational.stmt_cache_hit_ratio": hit_ratio(delta["stmt_hits"], delta["stmt_misses"]),
        "server.shed_ratio": shed / attempted,
    }


def span_metrics(tracer, op_ids: set, wall_ms: float, now: float) -> dict[str, float]:
    """Self CPU ms per operation by per-layer metric, over the timed window,
    at reference speed (``now`` is the window's median speed)."""
    from spec import SPAN_METRICS
    from trace import ROOT

    self_cpu = tracer.self_cpu(op_ids)
    ops = max(1, len(op_ids))
    metrics = {metric: self_cpu.get(span, 0.0) * 1000.0 / ops / now
               for span, metric in SPAN_METRICS.items()}
    attributed = sum(value for name, value in self_cpu.items() if name != ROOT)
    backend = sum(value for name, value in self_cpu.items()
                  if name.startswith("relational."))
    metrics["relational.backend_share"] = backend / attributed if attributed else 0.0
    metrics["harness.attributed_share"] = \
        attributed * 1000.0 / wall_ms if wall_ms else 0.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "virtual"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="length of the timed window")
    parser.add_argument("--ops", type=int, default=None,
                        help="timed operations, in place of --seconds (smoke)")
    parser.add_argument("--sizes", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
