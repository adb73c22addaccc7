"""Command-line interface: explore the engine against the demo federation.

    python -m repro demo                 # run the running example
    python -m repro query  "<xquery>"    # execute against the demo platform
    python -m repro explain "<xquery>"   # show the distributed plan
    python -m repro lint "<xquery>"      # static analysis: all diagnostics
    python -m repro lint --concurrency   # lint engine source for races
    python -m repro sql "<xquery>"       # show the SQL shipped to sources
    python -m repro trace "<xquery>"     # Chrome trace JSON for a query
    python -m repro stats ["<xquery>"]   # unified metrics snapshot
    python -m repro lineage              # lineage map of the profile service
    python -m repro serve                # serving demo: sessions + admission
    python -m repro bench-serve          # closed-loop overload ramp
    python -m repro flight               # request flight recorder (O-CONT)

All subcommands build the Figure-3 federation of :mod:`repro.demo`
(``--customers`` controls its size).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import EngineConfig
from .demo import build_demo_platform
from .xml import serialize


def _build(args) -> object:
    platform = build_demo_platform(
        customers=args.customers,
        orders_per_customer=args.orders,
        ws_latency_ms=args.ws_latency,
    )
    platform.configure(**dict(args.set))
    return platform


#: how ``--set`` reads a value, per scalar field type of EngineConfig
_PARSERS = {
    "bool": lambda raw: {"true": True, "false": False}[raw.lower()],
    "int": int,
    "float | None": lambda raw: None if raw.lower() == "none" else float(raw),
    "str | None": lambda raw: None if raw.lower() == "none" else raw,
}


def _setting(text: str) -> tuple[str, object]:
    """``--set NAME=VALUE``: one scalar :class:`EngineConfig` field, its
    value parsed by the field's type and validated as ``configure`` would."""
    name, sep, raw = text.partition("=")
    parsers = {f.name: _PARSERS[f.type] for f in dataclasses.fields(EngineConfig)
               if f.type in _PARSERS}
    if not sep or name not in parsers:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE with NAME one of {', '.join(parsers)}")
    try:
        value = parsers[name](raw)
        dataclasses.replace(EngineConfig(), **{name: value})
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad value for {name}: {raw!r} ({exc})")
    return name, value


def _cmd_demo(args) -> int:
    platform = _build(args)
    for profile in platform.call("getProfile"):
        print(serialize(profile, indent=2))
        print()
    stats = platform.ctx.stats
    print(f"pushed SQL queries: {stats.pushed_queries}  "
          f"PP-k blocks: {stats.ppk_blocks}  "
          f"web-service calls: {stats.service_calls}")
    print(f"simulated time: {platform.clock.now_ms():.1f} ms")
    return 0


def _cmd_query(args) -> int:
    platform = _build(args)
    try:
        for item in platform.stream(args.xquery):
            print(serialize(item))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args) -> int:
    platform = _build(args)
    try:
        print(platform.explain(args.xquery))
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    """Run every plan-verifier pass and print the diagnostics.

    With ``--concurrency`` the engine's own source is linted instead
    (ALDSP-C4xx: unguarded shared-state mutations); no query or demo
    platform is involved.  Exit status is 1 iff any error-severity
    diagnostic was found (warnings and notes are informational).
    """
    if args.concurrency:
        from .analysis import run_concurrency_lint

        report = run_concurrency_lint(strict=args.strict)
    elif args.xquery is None:
        print("error: provide an XQuery to lint, or --concurrency "
              "to lint the engine source", file=sys.stderr)
        return 2
    else:
        platform = _build(args)
        report = platform.lint(args.xquery)
    if args.json:
        print(report.render_json())
    elif len(report):
        print(report.render_text())
        print(report.summary())
    else:
        print("clean: no diagnostics")
    return 1 if report.has_errors else 0


def _cmd_sql(args) -> int:
    platform = _build(args)
    try:
        platform.execute(args.xquery)
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, database in sorted(platform.ctx.databases.items()):
        for statement in database.stats.statements:
            print(f"[{name}] {statement}")
    return 0


def _find_adaptor(platform, name: str):
    for definition in platform.registry.functions():
        adaptor = definition.adaptor
        if adaptor is not None and adaptor.name == name:
            return adaptor
    return None


def _cmd_health(args) -> int:
    """Run the running example in partial-results mode under scripted
    faults and report per-source health (R-RESIL observability)."""
    import json

    from .resilience import FaultInjector

    platform = _build(args)
    platform.configure(partial_results=True)
    if args.retry or args.breaker or args.timeout:
        platform.set_source_policy(
            "*", retry=args.retry or None, breaker=args.breaker or None,
            timeout_ms=args.timeout or None,
        )
    for name in args.kill:
        if name in platform.ctx.databases:
            platform.ctx.databases[name].available = False
        else:
            adaptor = _find_adaptor(platform, name)
            if adaptor is None:
                print(f"error: no source named {name}", file=sys.stderr)
                return 1
            adaptor.available = False
    for name in args.flaky:
        injector = FaultInjector(seed=args.seed).fail_with_probability(0.5)
        if name in platform.ctx.databases:
            injector.attach(platform.ctx.databases[name])
        else:
            adaptor = _find_adaptor(platform, name)
            if adaptor is None:
                print(f"error: no source named {name}", file=sys.stderr)
                return 1
            injector.attach(adaptor)
    results = platform.call("getProfile")
    health = platform.source_health()
    degradations = [record.to_dict() for record in platform.last_degradations]
    if args.json:
        print(json.dumps({
            "results": len(results),
            "elapsed_ms": round(platform.clock.now_ms(), 3),
            "sources": health,
            "degradations": degradations,
        }, indent=2))
        return 0
    print(f"profiles returned: {len(results)}   "
          f"simulated time: {platform.clock.now_ms():.1f} ms")
    print()
    for name, entry in sorted(health.items()):
        state = "up" if entry["available"] else "DOWN"
        breaker = entry["breaker"] or "-"
        print(f"{name:30s} {entry['kind']:11s} {state:5s} "
              f"breaker={breaker:9s} attempts={entry['attempts']:<4d} "
              f"retries={entry['retries']:<3d} failures={entry['failures']:<3d} "
              f"degraded={entry['degraded']}")
    if degradations:
        print()
        print("degradations (partial results):")
        for record in degradations:
            print(f"  {record['source']}: {record['error']} "
                  f"(attempts={record['attempts']}, "
                  f"elapsed={record['elapsed_ms']}ms)")
    return 0


def _cmd_trace(args) -> int:
    """Execute a query with tracing on and emit the trace (O-OBS).

    Default output is Chrome ``trace_event`` JSON (load it in
    ``chrome://tracing`` / Perfetto); ``--tree`` prints the span tree and
    ``--profile`` the plan annotated with per-operator actuals.
    """
    from .observability import TRACE_ALL, chrome_trace_json, render_span_tree

    platform = _build(args)
    try:
        if args.profile:
            print(platform.profile(args.xquery).text)
            return 0
        platform.configure(continuous=TRACE_ALL)
        platform.execute(args.xquery)
        if args.tree:
            for root in platform.tracer.roots:
                print(render_span_tree(root))
        else:
            print(chrome_trace_json(platform.tracer.roots))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args) -> int:
    """Run a query (default: the running example) and render the unified
    metrics snapshot — runtime, per-source, cache, resilience and trace
    series in one plane (O-OBS).  With ``--window`` the rolling-window
    plane is rendered instead: rates and percentiles over the last N
    seconds of the clock (O-CONT), fed by continuous sampled tracing."""
    import json

    from .observability import TRACE_ALL, render_metrics, render_window

    platform = _build(args)
    try:
        platform.configure(continuous=TRACE_ALL)
        if args.xquery:
            platform.execute(args.xquery)
        else:
            platform.call("getProfile")
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.window:
        snapshot = platform.window_snapshot()
        renderer = render_window
    else:
        snapshot = platform.metrics_snapshot()
        renderer = render_metrics
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(renderer(snapshot))
    return 0


def _serving_world(args):
    """A wall-clock demo federation fronted by a DataServer (R-SERVE):
    zero simulated source latencies so concurrency is real, two tenants,
    a small worker bound so overload is reachable."""
    from .clock import WallClock
    from .relational.database import LatencyModel
    from .server import AdmissionController, DataServer, TenantQuota

    zero = LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=0.0,
                        connect_timeout_ms=0.0)
    platform = build_demo_platform(
        customers=args.customers, orders_per_customer=args.orders,
        ws_latency_ms=0.0, clock=WallClock(), db_latency=zero,
    )
    admission = AdmissionController(
        platform.clock, max_concurrent=args.max_concurrent,
        queue_soft=args.queue_soft, queue_hard=args.queue_hard,
    )
    server = DataServer(platform, admission=admission,
                        default_budget_ms=args.budget)
    server.register_tenant("acme", "acme-secret", roles=("analyst",),
                           quota=TenantQuota(capacity=args.quota,
                                             refill_per_s=args.quota))
    server.register_tenant("globex", "globex-secret", roles=("analyst",),
                           quota=TenantQuota(capacity=args.quota,
                                             refill_per_s=args.quota))
    return platform, server


_SERVE_QUERIES = [
    # cheap keyed lookup: one pushed parameterized statement
    ("for $c in CUSTOMER() where $c/CID eq $id return $c/LAST_NAME",
     "lookup"),
    # expensive scan: the full federation join
    ("getProfile()", "scan"),
]


def _cmd_serve(args) -> int:
    """In-process serving demo: open sessions for both tenants, serve a
    small mixed workload and print the serving-plane snapshot."""
    import json

    from .errors import AdmissionError
    from .xml.items import AtomicValue

    platform, server = _serving_world(args)
    try:
        outcomes = {"completed": 0, "shed": 0}
        for tenant, secret in (("acme", "acme-secret"),
                               ("globex", "globex-secret")):
            session = server.open_session(tenant, secret)
            for i in range(args.requests):
                query, kind = _SERVE_QUERIES[i % len(_SERVE_QUERIES)]
                variables = (
                    {"id": [AtomicValue(f"C{1 + i % args.customers}",
                                        "xs:string")]}
                    if kind == "lookup" else None)
                try:
                    response = server.execute(session.session_id, query,
                                              variables)
                    outcomes["completed"] += 1
                    print(f"[{tenant}] {kind:6s} cost={response.cost:<5g} "
                          f"items={len(response.items):<3d} "
                          f"{response.elapsed_ms:.2f}ms")
                except AdmissionError as exc:
                    outcomes["shed"] += 1
                    print(f"[{tenant}] {kind:6s} SHED ({exc.reason}, "
                          f"retry after {exc.retry_after_ms:.1f}ms)")
        print()
        print(json.dumps(server.snapshot(), indent=2))
        print(f"completed={outcomes['completed']} shed={outcomes['shed']}")
        return 0
    finally:
        platform.close()


def _cmd_bench_serve(args) -> int:
    """Closed-loop overload ramp against the serving layer; writes the
    per-stage QPS/latency/shed report to ``BENCH_serving.json``."""
    import json

    from .server import WorkloadDriver
    from .xml.items import AtomicValue

    platform, server = _serving_world(args)
    try:
        lookup, _ = _SERVE_QUERIES[0]
        scan, _ = _SERVE_QUERIES[1]
        shapes = [
            (lookup, {"id": [AtomicValue(f"C{1 + i}", "xs:string")]})
            for i in range(min(4, args.customers))
        ] + [(scan, None)]
        driver = WorkloadDriver(
            server,
            [("acme", "acme-secret"), ("globex", "globex-secret")],
            shapes, budget_ms=args.budget,
        )
        stages = [int(n) for n in args.stages.split(",")]
        results = driver.ramp(stages, stage_duration_s=args.stage_seconds)
        report = {
            "benchmark": "serving-overload-ramp",
            "config": {
                "max_concurrent": args.max_concurrent,
                "queue_soft": args.queue_soft,
                "queue_hard": args.queue_hard,
                "quota_per_s": args.quota,
                "budget_ms": args.budget,
                "stage_seconds": args.stage_seconds,
            },
            "stages": [result.to_dict() for result in results],
            "serving": server.snapshot(),
        }
        with open(args.output, "w") as sink:
            json.dump(report, sink, indent=2)
            sink.write("\n")
        for result in results:
            stage = result.to_dict()
            print(f"clients={stage['clients']:<5d} "
                  f"offered={stage['offered_qps']:<8g} "
                  f"goodput={stage['goodput_qps']:<8g} "
                  f"shed={stage['shed_rate']:<7.2%} "
                  f"p50={stage['p50_ms']}ms p99={stage['p99_ms']}ms")
        print(f"wrote {args.output}")
        return 0
    finally:
        platform.close()


def _cmd_flight(args) -> int:
    """Serve a mixed workload with continuous tracing on, then query the
    request flight recorder (O-CONT): one structured record per request —
    admitted, shed or failed — with its per-phase latency breakdown, and
    the ledger that reconciles against the admission counters."""
    import json

    from .errors import AdmissionError
    from .observability import ContinuousConfig
    from .xml.items import AtomicValue

    platform, server = _serving_world(args)
    try:
        platform.configure(continuous=ContinuousConfig(
            sample_rate=args.sample_rate, seed=args.seed, slow_ms=args.slow_ms))
        for tenant, secret in (("acme", "acme-secret"),
                               ("globex", "globex-secret")):
            session = server.open_session(tenant, secret)
            for i in range(args.requests):
                query, kind = _SERVE_QUERIES[i % len(_SERVE_QUERIES)]
                variables = (
                    {"id": [AtomicValue(f"C{1 + i % args.customers}",
                                        "xs:string")]}
                    if kind == "lookup" else None)
                try:
                    server.execute(session.session_id, query, variables)
                except AdmissionError:
                    pass  # shed: recorded in the flight ledger
        records = server.flight(tenant=args.tenant, outcome=args.outcome,
                                limit=args.limit)
        if args.json:
            print(json.dumps({
                "records": [record.to_dict() for record in records],
                "flight": server.flight_recorder.snapshot(),
                "admission": server.admission.snapshot(),
                "continuous": platform.tracer.snapshot(),
            }, indent=2, sort_keys=True))
            return 0
        for record in records:
            phases = " ".join(f"{name}={ms:.2f}" for name, ms
                              in sorted(record.phases.items()))
            flags = ("S" if record.sampled else "-") + \
                ("R" if record.retained else "-")
            print(f"#{record.seq:<4d} [{record.tenant}] "
                  f"{record.outcome:9s} {record.admission:13s} "
                  f"cost={record.cost:<6g} {record.elapsed_ms:8.2f}ms "
                  f"{flags} fp={record.fingerprint} {phases}")
        print()
        print(json.dumps(server.flight_recorder.snapshot(), indent=2))
        return 0
    finally:
        platform.close()


def _cmd_lineage(args) -> int:
    platform = _build(args)
    lineage = platform.lineage("ProfileService")
    for path, entry in sorted(lineage.entries.items()):
        origin = f"{entry.database}.{entry.table}.{entry.column}"
        note = f" (via {entry.transform})" if entry.transform else ""
        print(f"{'/'.join(path):45s} <- {origin}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ALDSP reproduction: query the demo federation "
                    "(two databases + a credit-rating web service).",
    )
    parser.add_argument("--customers", type=int, default=4)
    parser.add_argument("--orders", type=int, default=3,
                        help="orders per customer")
    parser.add_argument("--ws-latency", type=float, default=30.0,
                        help="web-service latency in simulated ms")
    parser.add_argument("--set", type=_setting, action="append", default=[],
                        metavar="NAME=VALUE",
                        help="set one engine configuration field (repeatable; "
                             "see README \"Configuration\"), e.g. "
                             "batch_size=1, force_strategy=ppk, "
                             "replan_threshold=none")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the Figure-3 running example") \
        .set_defaults(fn=_cmd_demo)
    query = commands.add_parser("query", help="execute an XQuery")
    query.add_argument("xquery")
    query.set_defaults(fn=_cmd_query)
    explain = commands.add_parser("explain", help="show the distributed plan")
    explain.add_argument("xquery")
    explain.set_defaults(fn=_cmd_explain)
    lint = commands.add_parser(
        "lint", help="run the plan verifier and print all diagnostics")
    lint.add_argument("xquery", nargs="?", default=None,
                      help="query to lint (omit with --concurrency)")
    lint.add_argument("--concurrency", action="store_true",
                      help="lint the engine source for unguarded shared-state "
                           "mutations (ALDSP-C4xx) instead of a query")
    lint.add_argument("--strict", action="store_true",
                      help="with --concurrency, also flag unguarded reads")
    lint.add_argument("--json", action="store_true",
                      help="render the diagnostic report as JSON")
    lint.set_defaults(fn=_cmd_lint)
    sql = commands.add_parser("sql", help="show the SQL shipped to the sources")
    sql.add_argument("xquery")
    sql.set_defaults(fn=_cmd_sql)
    trace = commands.add_parser(
        "trace", help="execute with tracing and emit Chrome trace JSON")
    trace.add_argument("xquery")
    trace.add_argument("--tree", action="store_true",
                       help="print the span tree instead of Chrome JSON")
    trace.add_argument("--profile", action="store_true",
                       help="print the plan annotated with operator actuals")
    trace.set_defaults(fn=_cmd_trace)
    stats = commands.add_parser(
        "stats", help="run a query and render the unified metrics snapshot")
    stats.add_argument("xquery", nargs="?", default=None,
                       help="query to run (default: the running example)")
    stats.add_argument("--json", action="store_true",
                       help="dump the snapshot as JSON")
    stats.add_argument("--window", action="store_true",
                       help="render the rolling-window plane (last-N-seconds "
                            "rates and percentiles) instead of cumulative")
    stats.set_defaults(fn=_cmd_stats)
    commands.add_parser("lineage", help="lineage map of the profile service") \
        .set_defaults(fn=_cmd_lineage)

    def serving_args(sub):
        sub.add_argument("--max-concurrent", type=int, default=4,
                         help="admitted requests executing at once")
        sub.add_argument("--queue-soft", type=int, default=8,
                         help="depth at which expensive requests are shed")
        sub.add_argument("--queue-hard", type=int, default=16,
                         help="depth at which everything is shed")
        sub.add_argument("--quota", type=float, default=10_000.0,
                         help="per-tenant token-bucket rate (requests/s)")
        sub.add_argument("--budget", type=float, default=2_000.0,
                         help="per-request deadline budget in ms")

    serve = commands.add_parser(
        "serve", help="in-process serving demo: sessions + admission "
                      "control over the demo federation")
    serving_args(serve)
    serve.add_argument("--requests", type=int, default=8,
                       help="requests per tenant session")
    serve.set_defaults(fn=_cmd_serve)
    bench_serve = commands.add_parser(
        "bench-serve", help="closed-loop overload ramp; writes "
                            "BENCH_serving.json")
    serving_args(bench_serve)
    bench_serve.add_argument("--stages", default="4,16,48",
                             help="comma-separated client counts per stage")
    bench_serve.add_argument("--stage-seconds", type=float, default=1.0,
                             help="wall seconds per ramp stage")
    bench_serve.add_argument("--output", default="BENCH_serving.json",
                             help="report path")
    bench_serve.set_defaults(fn=_cmd_bench_serve)
    flight = commands.add_parser(
        "flight", help="serve a workload with continuous tracing and query "
                       "the request flight recorder")
    serving_args(flight)
    flight.add_argument("--requests", type=int, default=8,
                        help="requests per tenant session")
    flight.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-sampling probability for the continuous "
                             "tracer")
    flight.add_argument("--seed", type=int, default=0,
                        help="trace-sampler RNG seed")
    flight.add_argument("--slow-ms", type=float, default=250.0,
                        help="tail-retention slow-request threshold in ms")
    flight.add_argument("--tenant", default=None,
                        help="only records for this tenant")
    flight.add_argument("--outcome", default=None,
                        help="only records with this outcome (completed, "
                             "shed, deadline, error, invalid)")
    flight.add_argument("--limit", type=int, default=None,
                        help="at most N most recent records")
    flight.add_argument("--json", action="store_true",
                        help="dump records + ledger + snapshots as JSON")
    flight.set_defaults(fn=_cmd_flight)
    health = commands.add_parser(
        "health", help="run the demo under faults and report source health")
    health.add_argument("--kill", action="append", default=[], metavar="SOURCE",
                        help="mark a source unavailable (repeatable)")
    health.add_argument("--flaky", action="append", default=[], metavar="SOURCE",
                        help="attach a 50%%-failure fault plan (repeatable)")
    health.add_argument("--seed", type=int, default=0,
                        help="fault-injection RNG seed")
    health.add_argument("--retry", type=int, default=0,
                        help="retry budget (attempts) for every source")
    health.add_argument("--breaker", type=int, default=0,
                        help="circuit-breaker failure threshold")
    health.add_argument("--timeout", type=float, default=0.0,
                        help="per-attempt time budget in simulated ms")
    health.add_argument("--json", action="store_true",
                        help="render the health report as JSON")
    health.set_defaults(fn=_cmd_health)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
