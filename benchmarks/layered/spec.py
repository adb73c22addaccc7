"""The benchmark's names: workloads, metrics, units, bounds.

One table each, so ``BENCHMARK.json``, the README, the smoke test and the
harness cannot drift apart: ``python3 benchmarks/layered/run.py
--write-manifest`` renders ``BENCHMARK.json`` from :func:`manifest`.
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/layered/run.py"]
PATHS = ["benchmarks/layered"]
#: seconds of timed operations in one run, split over the run's repetitions
RUN_SECONDS = 12
#: fresh child processes per untraced run; each metric is their median
REPETITIONS = 4

#: name -> why the workload is in the benchmark
WORKLOADS = {
    "keyed_lookup": (
        "the paper's flagship keyed call, warm plan cache: per-request overhead "
        "(bind, render, statement cache, O(n) backend scan, rebuild, serialize)"),
    "pushed_scan": (
        "select-project, pushed group-by and pushed join-aggregate: per-row work in "
        "the simulated backend, pushedsql.rebuild and serialization"),
    "federated_join": (
        "PP-k join custdb->ccdb plus a web-service fan-out: the only workload whose "
        "roundtrips and virtual time are set by the join strategy"),
    "midtier_flwor": (
        "four FLWOR shapes with no relational source: pure runtime CPU "
        "(filter, group/order, let stack, index nested-loop join over a CSV)"),
    "cold_compile": (
        "six query templates with a fresh literal each: every text misses the plan "
        "cache, results are small, so xquery/compiler/sql do most of the work"),
    "read_write_mix": (
        "four keyed reads plus one read_for_update/set/submit: execute_update, XA "
        "and invalidation; write-time cost of any index or cache shows here"),
    "serving_mix": (
        "DataServer, two tenants (one filtered by an element policy), closed-loop "
        "client threads, 4 keyed lookups : 1 scan; sessions, admission, deadlines"),
}

#: (name, unit, better, bound) -- measured with tracing off, gated by the driver.
#: A bound is about three times the widest spread (IQR / median over ten
#: seeds) any workload showed on the reference box, and at most 0.25.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.20),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: End-to-end metrics the driver cannot gate: its contract wants a gated
#: metric to be a non-zero number on every workload, with a relative bound
#: and a value that differs from run to run, and these are n/a somewhere,
#: exact, or zero when all is well.  They are measured with tracing off all
#: the same, reported beside the per-layer metrics, and ``compare.py``
#: judges them by the bound given here.
#: (name, unit, better, bound for compare.py, what is measured)
UNGATED_END_TO_END = [
    ("ttfi_p50_ms", "ms", "lower", 0.10,
     "time to first item of the operation's largest shape; n/a (0) on "
     "serving_mix, read_write_mix and cold_compile"),
    ("virtual_ms_per_op", "vms", "lower", 0.0,
     "virtual-clock charge per operation under the default latency model; exact"),
    ("failed_share", "ratio", "lower", 0.0,
     "(errors + sheds + blown deadlines + oracle mismatches) / attempted; must be 0"),
]

#: (name, unit, better, what is measured, end-to-end metric it should move -> workload)
PER_LAYER = [
    ("xquery.parse_ms", "ms", "lower", "Parser.parse_main_expression",
     "latency_p50_ms -> cold_compile"),
    ("xquery.analyze_ms", "ms", "lower", "normalize + TypeChecker.infer",
     "latency_p50_ms -> cold_compile"),
    ("xquery.ast_nodes", "count", "lower", "AST nodes per parsed query (exact)", "-"),
    ("compiler.optimize_ms", "ms", "lower", "Optimizer.optimize + canonicalize_gensyms",
     "latency_p50_ms -> cold_compile"),
    ("compiler.verify_ms", "ms", "lower", "verify_plan", "latency_p50_ms -> cold_compile"),
    ("compiler.stamp_ms", "ms", "lower",
     "stamp_scatter_groups + assign_operator_ids + stamp_batch_capability",
     "latency_p50_ms -> cold_compile"),
    ("compiler.plan_nodes", "count", "lower", "plan nodes per compiled query (exact)", "-"),
    ("compiler.plan_cache_hit_ratio", "ratio", "higher", "plan_cache hits / lookups",
     "latency_p50_ms -> keyed_lookup (1), cold_compile (0)"),
    ("compiler.view_cache_hit_ratio", "ratio", "higher", "ViewPlanCache hits / lookups",
     "latency_p50_ms -> cold_compile"),
    ("sql.pushdown_ms", "ms", "lower", "sql.rewriter.push_sql",
     "latency_p50_ms -> cold_compile"),
    ("sql.render_ms", "ms", "lower", "pushedsql.render_pushed + bind_parameters",
     "latency_p50_ms -> keyed_lookup"),
    ("sql.pushed_regions", "count", "higher", "PushedSQL nodes per compiled query (exact)",
     "virtual_ms_per_op -> federated_join"),
    ("services.prepare_ms", "ms", "lower", "Platform.prepare self time",
     "latency_p50_ms -> keyed_lookup"),
    ("services.stream_self_ms", "ms", "lower", "Platform.stream / Platform.call self time",
     "cpu_ms_per_op -> keyed_lookup"),
    ("relational.stmt_prepare_ms", "ms", "lower",
     "StatementCache.prepare (parse_sql on a miss)",
     "latency_p50_ms -> cold_compile, read_write_mix"),
    ("relational.stmt_cache_hit_ratio", "ratio", "higher", "stmt_cache hits / lookups",
     "latency_p50_ms -> cold_compile, read_write_mix"),
    ("relational.execute_ms", "ms", "lower", "Executor.execute for SELECT",
     "latency_p50_ms -> pushed_scan, keyed_lookup, federated_join; ~0 -> midtier_flwor"),
    ("relational.update_ms", "ms", "lower",
     "Connection.execute_update + Transaction.execute + TwoPhaseCommit.commit",
     "latency_p50_ms -> read_write_mix"),
    ("relational.backend_share", "ratio", "lower", "relational.*_ms / attributed time",
     "diagnostic: simulator vs mid-tier"),
    ("sources.roundtrips", "count", "lower", "sum of SourceStats.roundtrips (exact)",
     "virtual_ms_per_op -> federated_join"),
    ("sources.rows_shipped", "rows", "lower", "sum of SourceStats.rows_shipped (exact)",
     "virtual_ms_per_op -> pushed_scan"),
    ("sources.statements", "count", "lower", "statements shipped (exact)",
     "virtual_ms_per_op -> federated_join"),
    ("sources.ws_calls", "count", "lower", "runtime.service_calls (exact)",
     "virtual_ms_per_op -> federated_join, keyed_lookup"),
    ("sources.adaptor_ms", "ms", "lower", "Adaptor.invoke (CSV, web service)",
     "latency_p50_ms -> midtier_flwor"),
    ("runtime.rebuild_ms", "ms", "lower", "pushedsql.rebuild self time",
     "latency_p50_ms, ttfi_p50_ms -> pushed_scan"),
    ("runtime.ppk_ms", "ms", "lower",
     "ppk_extend + _fetch_block + _join_block self time (backend excluded)",
     "latency_p50_ms -> federated_join"),
    ("runtime.ppk_blocks", "count", "lower", "runtime.ppk_blocks (exact)",
     "sources.roundtrips -> federated_join"),
    ("runtime.flwor_ms", "ms", "lower", "Evaluator.iter_eval / eval self time",
     "latency_p50_ms, cpu_ms_per_op -> midtier_flwor"),
    ("runtime.tuples_flowed", "count", "lower", "runtime.tuples_flowed (exact)",
     "cpu_ms_per_op -> midtier_flwor"),
    ("runtime.rows_per_batch", "rows", "higher", "batch.rows / batch.count (exact)",
     "latency_p50_ms -> midtier_flwor"),
    ("runtime.group_peak_resident", "count", "lower", "group.peak_resident (exact)",
     "peak_rss_mb, ttfi_p50_ms -> midtier_flwor"),
    ("runtime.index_join_probes", "count", "lower",
     "runtime.middleware_join_probes (exact)", "cpu_ms_per_op -> midtier_flwor"),
    ("security.filter_ms", "ms", "lower", "SecurityService.filter_items",
     "latency_p95_ms -> serving_mix"),
    ("security.elements_removed", "count", "higher",
     "audited element removals in the traced repetition (exact)", "-"),
    ("xml.serialize_ms", "ms", "lower", "serialize", "latency_p50_ms -> pushed_scan"),
    ("xml.bytes_out", "count", "lower", "serialized characters (exact)", "-"),
    ("sdo.submit_ms", "ms", "lower", "Platform.submit self time (decompose, lineage)",
     "latency_p50_ms -> read_write_mix"),
    ("sdo.statements_per_submit", "count", "lower", "SubmitResult.statements (exact)",
     "virtual_ms_per_op -> read_write_mix"),
    ("server.admit_ms", "ms", "lower", "AdmissionController.admit + ticket enter/release",
     "latency_p95_ms -> serving_mix"),
    ("server.session_ms", "ms", "lower", "SessionManager.get / bind",
     "throughput_ops_s -> serving_mix"),
    ("server.frontend_self_ms", "ms", "lower", "DataServer.execute self time",
     "throughput_ops_s -> serving_mix"),
    ("server.shed_ratio", "ratio", "lower", "shed / attempted (0 by design)",
     "failed_share -> serving_mix"),
    ("resilience.retries", "count", "lower", "sum of SourceStats.retries (0 expected)",
     "failed_share"),
    ("harness.calibration_ms", "ms", "lower",
     "a fixed pure-Python loop timed before each repetition",
     "noisy-neighbour detector for every wall metric"),
    ("harness.trace_overhead_pct", "%", "lower",
     "(traced - untraced cpu_ms_per_op) / untraced", "bounds trust in the self times"),
    ("harness.attributed_share", "ratio", "higher",
     "sum of the layers' self times / operation wall time, traced repetition",
     "must stay within 10% of 1 on the single-caller workloads"),
]

#: span name -> the per-layer metric its self time feeds
SPAN_METRICS = {
    "xquery.parse": "xquery.parse_ms",
    "xquery.analyze": "xquery.analyze_ms",
    "compiler.optimize": "compiler.optimize_ms",
    "compiler.verify": "compiler.verify_ms",
    "compiler.stamp": "compiler.stamp_ms",
    "sql.pushdown": "sql.pushdown_ms",
    "sql.render": "sql.render_ms",
    "services.prepare": "services.prepare_ms",
    "services.stream": "services.stream_self_ms",
    "relational.stmt_prepare": "relational.stmt_prepare_ms",
    "relational.execute": "relational.execute_ms",
    "relational.update": "relational.update_ms",
    "sources.adaptor": "sources.adaptor_ms",
    "runtime.rebuild": "runtime.rebuild_ms",
    "runtime.ppk": "runtime.ppk_ms",
    "runtime.flwor": "runtime.flwor_ms",
    "security.filter": "security.filter_ms",
    "xml.serialize": "xml.serialize_ms",
    "sdo.submit": "sdo.submit_ms",
    "server.admit": "server.admit_ms",
    "server.session": "server.session_ms",
    "server.frontend": "server.frontend_self_ms",
}

#: per-layer values that must repeat exactly for one seed
EXACT = [
    "virtual_ms_per_op", "xquery.ast_nodes", "compiler.plan_nodes",
    "sql.pushed_regions", "sources.roundtrips", "sources.rows_shipped",
    "sources.statements", "sources.ws_calls", "runtime.ppk_blocks",
    "runtime.tuples_flowed", "runtime.rows_per_batch",
    "runtime.group_peak_resident", "runtime.index_join_probes",
    "security.elements_removed", "xml.bytes_out", "sdo.statements_per_submit",
]


def manifest() -> dict:
    """``BENCHMARK.json``, in exactly the contract's keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *_ in UNGATED_END_TO_END + PER_LAYER],
    }
