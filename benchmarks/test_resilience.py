"""Failover economics under a dead source (DESIGN.md R-RESIL).

When a federation member dies mid-workload, what the middleware *does
about it* dominates the bill: with no policy every PP-k block still pays
one connect timeout against the dead source; a retry budget multiplies
that by the attempt count plus backoff; a circuit breaker pays for the
first few probes and then sheds every later block at zero simulated cost.
This benchmark runs the same partial-results query under all three
policies and holds the numbers to the committed ``BENCH_resilience.json``
(a change meant to move them: ``python benchmarks/test_resilience.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.demo import build_demo_platform
from repro.relational import LatencyModel
from repro.resilience import CircuitBreakerConfig, RetryPolicy

QUERY = '''
for $c in CUSTOMER()
return <OUT>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</OUT>
'''

N_CUSTOMERS = 60
K = 5  # small blocks: many roundtrips against the dead source
LATENCY = dict(roundtrip_ms=5.0, per_row_ms=0.05, connect_timeout_ms=10.0)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


def run_once(policy: str) -> dict:
    platform = build_demo_platform(
        customers=N_CUSTOMERS, orders_per_customer=0, deploy_profile=False,
        db_latency=LatencyModel(**LATENCY),
    )
    platform.configure(ppk_block_size=K)
    platform.configure(partial_results=True)
    if policy == "retry":
        platform.set_source_policy("ccdb", retry=RetryPolicy(
            max_attempts=3, backoff_ms=10.0, multiplier=2.0))
    elif policy == "breaker":
        platform.set_source_policy("ccdb", breaker=CircuitBreakerConfig(
            failure_threshold=2, cooldown_ms=1e9))
    platform.ctx.databases["ccdb"].available = False
    start = platform.clock.now_ms()
    result = platform.execute(QUERY)
    elapsed = platform.clock.now_ms() - start
    stats = platform.ctx.databases["ccdb"].stats
    return {
        "policy": policy,
        "results": len(result),
        "attempts": stats.attempts,
        "degraded": stats.degraded,
        "breaker_trips": stats.breaker_trips,
        "elapsed_ms": round(elapsed, 3),
    }


def measure() -> dict:
    """The document ``BENCH_resilience.json`` holds."""
    return {
        "workload": f"PP-k profile join, {N_CUSTOMERS} customers, k={K}, "
                    f"ccdb dead, partial-results mode",
        "latency_model": LATENCY,
        "runs": [run_once("none"), run_once("retry"), run_once("breaker")],
    }


@pytest.mark.chaos
def test_dead_source_failover_economics(benchmark, report):
    document = measure()
    none, retry, breaker = document["runs"]
    benchmark(lambda: run_once("breaker"))

    # Partial-results mode keeps answering: every customer, empty CARDS.
    assert none["results"] == retry["results"] == breaker["results"] == N_CUSTOMERS
    blocks = -(-N_CUSTOMERS // K)
    assert none["degraded"] == retry["degraded"] == breaker["degraded"] == blocks

    # Economics: retrying a dead source multiplies the connect timeouts;
    # the breaker pays for two probes and fast-fails the remaining blocks.
    assert retry["attempts"] == 3 * none["attempts"]
    assert breaker["attempts"] == 2 and breaker["breaker_trips"] == 1
    assert breaker["elapsed_ms"] < none["elapsed_ms"] < retry["elapsed_ms"]

    # virtual-clock figures are exact: the committed file is their gate
    assert json.dumps(document, indent=2) + "\n" == BENCH_FILE.read_text(), \
        f"{BENCH_FILE.name} moved; if it was meant to: python {Path(__file__).name}"

    report("failover economics under a dead source (R-RESIL)", [
        f"{'policy':>16s}{'attempts':>10s}{'degraded':>10s}{'sim time':>12s}",
        *(
            f"{row['policy']:>16s}{row['attempts']:>10d}{row['degraded']:>10d}"
            f"{row['elapsed_ms']:>10.1f}ms"
            for row in (none, retry, breaker)
        ),
        "every block pays the connect timeout without a policy; retries",
        "triple it; the breaker sheds all blocks after two probes.",
        f"held to {BENCH_FILE.name}",
    ])


if __name__ == "__main__":  # for a change that is meant to move the figures
    BENCH_FILE.write_text(json.dumps(measure(), indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")
