"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one optimizer decision and measures what it was
worth on the demo federation, holding everything else fixed:

* **A1 SQL pushdown** (sections 4.3–4.4) — off: every table access is a
  full scan, all filtering/joining mid-tier;
* **A2 clause-level join pushdown** — off: same-database ``for`` runs are
  joined in the middleware instead of in one SQL statement;
* **A3 correlated hoisting / PP-k** (section 4.2) — off: correlated
  accesses are re-issued per outer tuple;
* **A4 clustering request** (section 4.2) — off: middleware FLWGOR
  group-bys sort instead of streaming.
"""

from __future__ import annotations

import pytest

from repro.demo import build_demo_platform
from repro.relational import LatencyModel

N = 50

JOIN_QUERY = '''
for $c in CUSTOMER(), $o in ORDER()
where $c/CID eq $o/CID
return <R>{ $c/CID, $o/AMOUNT }</R>
'''

CORRELATED_QUERY = '''
for $c in CUSTOMER()
return <R>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</R>
'''

GROUP_QUERY = '''
for $c in CUSTOMER()
group $c as $g by $c/LAST_NAME as $l
return <G name="{$l}">{ string-join(for $x in $g return data($x/CID), ",") }</G>
'''


def platform_with(**knobs):
    platform = build_demo_platform(
        customers=N, orders_per_customer=3, deploy_profile=False,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.configure(**knobs)
    return platform


def measure(query, **knobs):
    platform = platform_with(**knobs)
    start = platform.clock.now_ms()
    result = platform.execute(query)
    elapsed = platform.clock.now_ms() - start
    trips = sum(db.stats.roundtrips for db in platform.ctx.databases.values())
    rows = sum(db.stats.rows_shipped for db in platform.ctx.databases.values())
    return platform, result, elapsed, trips, rows


def test_a1_pushdown_ablation(benchmark, report):
    from repro.xml import serialize

    _p, on_result, on_ms, on_trips, on_rows = measure(JOIN_QUERY)
    _p, off_result, off_ms, off_trips, off_rows = measure(JOIN_QUERY, pushdown=False)
    assert serialize(on_result) == serialize(off_result)
    assert on_trips < off_trips and on_rows < off_rows
    benchmark(lambda: measure(JOIN_QUERY))
    report("ablation A1 — SQL pushdown", [
        f"on : {on_trips:4d} roundtrips {on_rows:7d} rows {on_ms:9.1f}ms",
        f"off: {off_trips:4d} roundtrips {off_rows:7d} rows {off_ms:9.1f}ms",
        f"pushdown is worth {off_ms / on_ms:.1f}x on the clause join",
    ])


def test_a2_clause_join_ablation(benchmark, report):
    from repro.xml import serialize

    _p, on_result, on_ms, on_trips, _ = measure(JOIN_QUERY)
    _p, off_result, off_ms, off_trips, _ = measure(
        JOIN_QUERY, clause_join_pushdown=False)
    assert serialize(on_result) == serialize(off_result)
    assert on_trips <= off_trips
    benchmark(lambda: measure(JOIN_QUERY, clause_join_pushdown=False))
    report("ablation A2 — clause-level join pushdown", [
        f"on  (single SQL JOIN)      : {on_trips:4d} roundtrips {on_ms:8.1f}ms",
        f"off (middleware join, PP-k): {off_trips:4d} roundtrips {off_ms:8.1f}ms",
    ])


def test_a3_correlated_hoisting_ablation(benchmark, report):
    from repro.xml import serialize

    platform_on, on_result, on_ms, on_trips, _ = measure(CORRELATED_QUERY)
    platform_off, off_result, off_ms, off_trips, _ = measure(
        CORRELATED_QUERY, hoist_correlated=False)
    assert serialize(on_result) == serialize(off_result)
    assert platform_on.ctx.stats.ppk_blocks > 0
    assert platform_off.ctx.stats.ppk_blocks == 0
    assert on_trips < off_trips
    benchmark(lambda: measure(CORRELATED_QUERY))
    report("ablation A3 — PP-k correlated hoisting", [
        f"on  (PP-20 blocks)          : {on_trips:4d} roundtrips {on_ms:8.1f}ms",
        f"off (per-tuple re-execution): {off_trips:4d} roundtrips {off_ms:8.1f}ms",
        f"PP-k is worth {off_ms / on_ms:.1f}x on the cross-database correlation",
    ])


def test_a4_clustering_request_ablation(benchmark, report):
    from repro.xml import serialize

    platform_on, on_result, _ms, _t, _r = measure(GROUP_QUERY)
    platform_off, off_result, _ms2, _t2, _r2 = measure(
        GROUP_QUERY, request_clustering=False)
    assert serialize(on_result) == serialize(off_result)
    on_peak = platform_on.evaluator.group_stats.peak_resident
    off_peak = platform_off.evaluator.group_stats.peak_resident
    assert on_peak < off_peak
    assert off_peak == N  # the sort fallback materializes everything
    benchmark(lambda: measure(GROUP_QUERY))
    report("ablation A4 — clustering request for middleware group-by", [
        f"on  (ORDER BY pushed, streaming group): peak {on_peak} tuples resident",
        f"off (mid-tier sort fallback)          : peak {off_peak} tuples resident",
    ])
