"""SQL pushdown vs middleware evaluation (sections 4.3/8).

The paper's central performance argument: "ALDSP aims to let underlying
relational databases do as much of the join processing as possible".
The bench runs a join+aggregation workload at growing table sizes with
pushdown on and off and reports rows shipped / roundtrips / simulated
time.  Expected shape: the pushed plan ships O(customers) rows at O(1)
roundtrips; the middleware plan ships whole tables per probe and falls
behind by a factor that grows with N.
"""

from __future__ import annotations

import pytest

from repro.demo import build_demo_platform
from repro.relational import LatencyModel

QUERY = '''
for $c in CUSTOMER()
return <CUSTOMER>{ $c/CID,
    <ORDERS>{ count(for $o in ORDER() where $o/CID eq $c/CID return $o) }</ORDERS>
}</CUSTOMER>
'''

SIZES = [10, 40, 160]


def run_once(customers, pushdown):
    platform = build_demo_platform(
        customers=customers, orders_per_customer=4, deploy_profile=False,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.configure(pushdown=pushdown)
    start = platform.clock.now_ms()
    result = platform.execute(QUERY)
    custdb = platform.ctx.databases["custdb"]
    return {
        "customers": customers,
        "elapsed_ms": platform.clock.now_ms() - start,
        "roundtrips": custdb.stats.roundtrips,
        "rows_shipped": custdb.stats.rows_shipped,
        "results": len(result),
    }


@pytest.fixture(scope="module")
def series():
    return {
        pushdown: [run_once(n, pushdown) for n in SIZES]
        for pushdown in (True, False)
    }


def test_pushdown_wins_and_gap_grows(series, benchmark, report):
    benchmark(lambda: run_once(40, True))
    lines = [f"{'N':>6s}{'plan':>12s}{'roundtrips':>12s}{'rows':>10s}{'sim time':>12s}"]
    for pushdown in (True, False):
        for row in series[pushdown]:
            label = "pushed" if pushdown else "middleware"
            lines.append(
                f"{row['customers']:>6d}{label:>12s}{row['roundtrips']:>12d}"
                f"{row['rows_shipped']:>10d}{row['elapsed_ms']:>10.1f}ms"
            )
    for pushed, naive in zip(series[True], series[False]):
        assert pushed["results"] == naive["results"] == pushed["customers"]
        assert pushed["rows_shipped"] < naive["rows_shipped"]
        assert pushed["elapsed_ms"] < naive["elapsed_ms"]
    # the win grows with table size
    speedup = [
        naive["elapsed_ms"] / pushed["elapsed_ms"]
        for pushed, naive in zip(series[True], series[False])
    ]
    assert speedup[-1] > speedup[0]
    lines.append(f"speedup by size: " +
                 ", ".join(f"N={n}: {s:.1f}x" for n, s in zip(SIZES, speedup)))
    report("SQL pushdown vs middleware join (who wins, and by how much)", lines)


def test_pushed_plan_is_single_roundtrip(benchmark, report):
    row = run_once(80, True)
    benchmark(lambda: run_once(80, True))
    assert row["roundtrips"] == 1
    assert row["rows_shipped"] == 80  # one aggregate row per customer
    report("pushed join+aggregate plan", [
        f"N=80: {row['roundtrips']} roundtrip, {row['rows_shipped']} rows shipped "
        f"(the aggregation ran inside the source)",
    ])
