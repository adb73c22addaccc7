"""Prepared-statement cache + pipelined PP-k economics (sections 4.2/5.4).

The hot path of every federated query is the source roundtrip.  Two
amortizations ride on it: the per-database statement cache turns one hard
parse per roundtrip into one per distinct SQL text (PP-k's bucket padding
is what makes the texts collide), and PP-k pipelining overlaps block N+1's
source query with block N's middleware join.  This benchmark measures
parse counts and virtual-clock elapsed with each optimization on and off,
and holds the numbers to the committed ``BENCH_prepared.json`` (a change
meant to move them: ``python benchmarks/test_prepared_statements.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.demo import build_demo_platform
from repro.relational import LatencyModel

QUERY = '''
for $c in CUSTOMER()
return <OUT>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</OUT>
'''

N_CUSTOMERS = 200
K = 20
#: parse cost is modelled explicitly here (1 ms per hard parse) so the
#: cache's virtual-clock win is visible, not just its parse-count win
LATENCY = dict(roundtrip_ms=5.0, per_row_ms=0.05, parse_ms=1.0)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_prepared.json"


def run_once(cache: bool, pipeline: bool) -> dict:
    platform = build_demo_platform(
        customers=N_CUSTOMERS, orders_per_customer=0, deploy_profile=False,
        db_latency=LatencyModel(**LATENCY),
    )
    platform.configure(ppk_block_size=K)
    platform.configure(statement_cache=cache)
    platform.configure(ppk_pipelining=pipeline)
    start = platform.clock.now_ms()
    result = platform.execute(QUERY)
    elapsed = platform.clock.now_ms() - start
    parses = sum(db.stats.parses for db in platform.ctx.databases.values())
    roundtrips = sum(db.stats.roundtrips for db in platform.ctx.databases.values())
    return {
        "cache": cache,
        "pipeline": pipeline,
        "results": len(result),
        "roundtrips": roundtrips,
        "parses": parses,
        "elapsed_ms": round(elapsed, 3),
    }


def measure() -> dict:
    """The document ``BENCH_prepared.json`` holds."""
    return {
        "workload": f"PP-k profile join, {N_CUSTOMERS} customers, k={K}",
        "latency_model": LATENCY,
        "runs": [run_once(cache=False, pipeline=False),  # pre-PR behaviour
                 run_once(cache=True, pipeline=False),   # statement cache only
                 run_once(cache=True, pipeline=True)],   # cache + prefetch
    }


def test_prepared_statement_cache_and_pipelining(benchmark, report):
    document = measure()
    cold, cached, full = document["runs"]
    benchmark(lambda: run_once(cache=True, pipeline=True))

    # identical answers under every configuration
    assert cold["results"] == cached["results"] == full["results"] == N_CUSTOMERS
    assert cold["roundtrips"] == cached["roundtrips"] == full["roundtrips"]

    # the cache bounds hard parses by distinct (region, bucket) texts:
    # one CUSTOMER scan + one disjunctive PP-k statement
    assert cached["parses"] == 2
    assert cold["parses"] == 1 + N_CUSTOMERS // K  # one per PP-k block
    assert cached["elapsed_ms"] < cold["elapsed_ms"]

    # pipelining overlaps the next fetch with the current middleware join
    assert full["elapsed_ms"] < cached["elapsed_ms"]

    # virtual-clock figures are exact: the committed file is their gate
    assert json.dumps(document, indent=2) + "\n" == BENCH_FILE.read_text(), \
        f"{BENCH_FILE.name} moved; if it was meant to: python {Path(__file__).name}"

    report("prepared statements + pipelined PP-k (source roundtrip path)", [
        f"{'config':>24s}{'parses':>8s}{'roundtrips':>12s}{'sim time':>12s}",
        *(
            f"{name:>24s}{row['parses']:>8d}{row['roundtrips']:>12d}"
            f"{row['elapsed_ms']:>10.1f}ms"
            for name, row in (("cold (no cache, serial)", cold),
                              ("statement cache", cached),
                              ("cache + pipelining", full))
        ),
        "hard parses collapse to one per distinct (region, bucket) statement;",
        "prefetching block N+1 overlaps source latency with the mid-tier join.",
        f"held to {BENCH_FILE.name}",
    ])


if __name__ == "__main__":  # for a change that is meant to move the figures
    BENCH_FILE.write_text(json.dumps(measure(), indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")
