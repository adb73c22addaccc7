"""The middleware join repertoire (section 5.2) and the observed
cost-based tuning of PP-k (section 9's roadmap).

"The current join repertoire of ALDSP includes nested loop, index nested
loop, PP-k using nested loops, and PP-k using index nested loops ...
the join operators in the runtime system are only for cross-source joins
(with the most performant one being PP-k using index nested loops)."
"""

from __future__ import annotations

import time

import pytest

from repro.demo import build_demo_platform
from repro.relational import LatencyModel
from repro.schema import leaf, shape

N_CUSTOMERS = 60
N_REGIONS = 400


def platform_with_regions(tmp_path, index_join=True):
    platform = build_demo_platform(customers=N_CUSTOMERS, orders_per_customer=0,
                                   deploy_profile=False)
    path = tmp_path / "regions.csv"
    lines = ["CID,REGION"] + [
        f"C{i % N_CUSTOMERS + 1},zone{i}" for i in range(N_REGIONS)
    ]
    path.write_text("\n".join(lines) + "\n")
    record = shape("REGION_ROW", [leaf("CID", "xs:string"), leaf("REGION", "xs:string")])
    platform.register_csv_file("REGIONS", path, record)
    if not index_join:
        platform.configure(pushdown=False)  # also disables join rewriting
    return platform


QUERY = '''
for $c in CUSTOMER(), $r in REGIONS()
where $r/CID eq $c/CID
return <M>{ $c/CID, $r/REGION }</M>
'''


def wall_time(platform):
    start = time.perf_counter()
    result = platform.execute(QUERY)
    return result, time.perf_counter() - start


def test_index_join_beats_nested_loop(benchmark, report, tmp_path):
    indexed_platform = platform_with_regions(tmp_path, index_join=True)
    indexed_out, indexed_s = wall_time(indexed_platform)
    naive_platform = platform_with_regions(tmp_path, index_join=False)
    naive_out, naive_s = wall_time(naive_platform)

    from repro.xml import serialize

    assert serialize(indexed_out) == serialize(naive_out)
    assert indexed_platform.ctx.stats.index_joins_built == 1
    benchmark(lambda: platform_with_regions(tmp_path).execute(QUERY))
    report("middleware join repertoire: index nested loop vs nested loop", [
        f"{N_CUSTOMERS} customers x {N_REGIONS} file rows (non-relational inner)",
        f"nested loop      : {naive_s * 1000:7.1f} ms wall "
        f"({N_CUSTOMERS}x{N_REGIONS} comparisons)",
        f"index nested loop: {indexed_s * 1000:7.1f} ms wall "
        f"(1 index build + {N_CUSTOMERS} probes)",
        f"speedup: {naive_s / indexed_s:.1f}x, identical results",
    ])


def test_observed_cost_adaptation(benchmark, report):
    """Section 9: tune PP-k from observed source behaviour instead of a
    static cost model.  A high-latency source earns a large block size; a
    cheap one does not need it."""
    outcomes = {}
    for label, latency in (("fast-lan", LatencyModel(1.0, 0.05)),
                           ("slow-wan", LatencyModel(80.0, 0.05))):
        platform = build_demo_platform(customers=40, orders_per_customer=0,
                                       deploy_profile=False, db_latency=latency)
        # warm-up traffic produces the observations
        platform.execute("for $c in CUSTOMER() return $c/CID")
        platform.execute('for $c in CUSTOMER() where $c/CID eq "C1" return $c')
        platform.execute("for $cc in CREDIT_CARD() return $cc/CID")
        platform.execute('for $cc in CREDIT_CARD() where $cc/CID eq "C1" return $cc')
        chosen = platform.adapt_ppk()
        estimate = platform.observed.estimate("ccdb")
        outcomes[label] = (chosen, estimate)
    fast_k, fast_est = outcomes["fast-lan"]
    slow_k, slow_est = outcomes["slow-wan"]
    assert slow_k > fast_k
    assert slow_est.roundtrip_ms > fast_est.roundtrip_ms
    benchmark(lambda: build_demo_platform(customers=5, deploy_profile=False)
              .execute("for $c in CUSTOMER() return $c/CID"))
    report("observed cost-based PP-k tuning (section 9 future work)", [
        f"fast-lan source: fitted roundtrip {fast_est.roundtrip_ms:.1f}ms "
        f"-> adapted k={fast_k}",
        f"slow-wan source: fitted roundtrip {slow_est.roundtrip_ms:.1f}ms "
        f"-> adapted k={slow_k}",
        "the optimizer chose block sizes from measured behaviour alone — "
        "no static cost model, no source statistics.",
    ])
