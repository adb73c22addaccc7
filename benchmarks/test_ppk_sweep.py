"""PP-k block-size sweep (section 4.2).

"A small value of k means many roundtrips, while large k approximates a
full middleware index join; by default, ALDSP uses a medium-sized k value
(20) that has been empirically shown to work well."

The sweep runs the cross-database profile join for k in {1..200} under
the default latency model and reports roundtrips, block memory footprint
(tuples resident per block) and simulated elapsed time.  The expected
shape: time falls steeply from k=1, flattens around the paper's default,
while the memory footprint keeps growing linearly with k.
"""

from __future__ import annotations

import pytest

from repro.demo import build_demo_platform
from repro.relational import LatencyModel

QUERY = '''
for $c in CUSTOMER()
return <OUT>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</OUT>
'''

N_CUSTOMERS = 200
K_VALUES = [1, 2, 5, 10, 20, 50, 100, 200]


def run_once(k):
    platform = build_demo_platform(
        customers=N_CUSTOMERS, orders_per_customer=0, deploy_profile=False,
        db_latency=LatencyModel(roundtrip_ms=5.0, per_row_ms=0.05),
    )
    platform.configure(ppk_block_size=k)
    start = platform.clock.now_ms()
    result = platform.execute(QUERY)
    elapsed = platform.clock.now_ms() - start
    ccdb = platform.ctx.databases["ccdb"]
    return {
        "k": k,
        "roundtrips": ccdb.stats.roundtrips,
        "rows": ccdb.stats.rows_shipped,
        "elapsed_ms": elapsed,
        "block_memory": min(k, N_CUSTOMERS),
        "results": len(result),
    }


@pytest.fixture(scope="module")
def sweep():
    return [run_once(k) for k in K_VALUES]


def test_ppk_sweep_shape(sweep, benchmark, report):
    benchmark(lambda: run_once(20))
    for row in sweep:
        assert row["results"] == N_CUSTOMERS
        assert row["roundtrips"] == -(-N_CUSTOMERS // row["k"])  # ceil(N/k)
        assert row["rows"] == N_CUSTOMERS  # same data regardless of k
    by_k = {row["k"]: row for row in sweep}
    # steep improvement at small k, flat at large k:
    assert by_k[1]["elapsed_ms"] > 2 * by_k[20]["elapsed_ms"]
    flat = by_k[20]["elapsed_ms"] - by_k[200]["elapsed_ms"]
    steep = by_k[1]["elapsed_ms"] - by_k[20]["elapsed_ms"]
    assert steep > 5 * max(flat, 0.001)
    # memory grows with k
    assert by_k[200]["block_memory"] > by_k[20]["block_memory"] > by_k[1]["block_memory"]
    report("PP-k block size sweep (section 4.2 claim, default k=20)", [
        f"{'k':>6s}{'roundtrips':>12s}{'rows':>8s}{'sim time':>12s}{'block mem':>11s}",
        *(
            f"{row['k']:>6d}{row['roundtrips']:>12d}{row['rows']:>8d}"
            f"{row['elapsed_ms']:>10.1f}ms{row['block_memory']:>11d}"
            for row in sweep
        ),
        "shape: latency collapses by k=20 (the paper's default) while the",
        "middleware block footprint keeps growing — the claimed tradeoff.",
    ])


def test_ppk_degenerates_to_index_nested_loop_at_k1(benchmark, report):
    row = run_once(1)
    benchmark(lambda: run_once(1))
    assert row["roundtrips"] == N_CUSTOMERS
    report("PP-1 == index nested-loop join", [
        f"k=1 issues one parameterized query per outer tuple: "
        f"{row['roundtrips']} roundtrips for {N_CUSTOMERS} customers",
    ])
