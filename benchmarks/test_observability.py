"""Observability overhead (DESIGN.md O-OBS).

Tracing must be free when it is off and cheap when it is on.  The "free"
half is a *checkable contract*, not a measurement: with the engine tracer
off, executing a PP-k query crosses every instrumentation point
(``tracer.calls`` grows) yet allocates zero spans
(``tracer.spans_allocated`` stays 0).  The "cheap" half is measured: the
same PP-k workload wall-timed with tracing off vs on, simulated cost
identical in both modes (spans never charge the virtual clock).  The
exact half — crossings, spans, simulated cost — is held to the committed
``BENCH_observability.json`` (a change meant to move it regenerates the
file with ``python benchmarks/test_observability.py``); the wall figures
are reported, not written.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.demo import build_demo_platform
from repro.observability import TRACE_ALL

QUERY = '''
for $c in CUSTOMER()
return <OUT>{ $c/CID,
    <CARDS>{ for $cc in CREDIT_CARD() where $cc/CID eq $c/CID
             return $cc/NUMBER }</CARDS> }</OUT>
'''

N_CUSTOMERS = 40
K = 10
REPETITIONS = 20

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_observability.json"


def wall(fn, repetitions=REPETITIONS):
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return (time.perf_counter() - start) / repetitions


def exact_document(platform) -> dict:
    """The contract half: crossings counted with tracing off, spans
    recorded with it on, the simulated cost of both (virtual clock)."""
    # -- off: the contract -------------------------------------------------
    platform.configure(continuous=None)
    platform.reset_stats()
    calls_before = platform.tracer.calls
    sim_start = platform.clock.now_ms()
    rows = len(platform.execute(QUERY))
    sim_off = platform.clock.now_ms() - sim_start
    crossings = platform.tracer.calls - calls_before
    assert rows == N_CUSTOMERS
    assert crossings > 0, "hot path never reached an instrumentation point"
    assert platform.tracer.spans_allocated == 0  # off costs no allocation

    # -- on: spans recorded, simulated cost unchanged ----------------------
    platform.configure(continuous=TRACE_ALL)
    platform.reset_stats()
    sim_start = platform.clock.now_ms()
    platform.execute(QUERY)
    sim_on = platform.clock.now_ms() - sim_start
    spans = platform.tracer.spans_allocated
    assert spans > 0
    # tracing never charges the virtual clock (only float summation noise)
    assert sim_on == pytest.approx(sim_off)
    platform.configure(continuous=None)
    return {
        "workload": f"PP-k credit-card join, {N_CUSTOMERS} customers, k={K}, "
                    f"{REPETITIONS} repetitions",
        "instrumentation_crossings_per_query": crossings,
        "spans_allocated_when_off": 0,
        "spans_per_query_when_on": spans,
        "simulated_ms": {"off": round(sim_off, 3), "on": round(sim_on, 3)},
    }


def warm_platform():
    platform = build_demo_platform(customers=N_CUSTOMERS, orders_per_customer=0,
                                   deploy_profile=False)
    platform.configure(ppk_block_size=K)
    platform.execute(QUERY)  # warm plan cache: measure execution, not parsing
    return platform


def test_tracing_overhead_off_vs_on(benchmark, report):
    platform = warm_platform()
    document = exact_document(platform)
    assert json.dumps(document, indent=2) + "\n" == BENCH_FILE.read_text(), \
        f"{BENCH_FILE.name} moved; if it was meant to: python {Path(__file__).name}"

    off_wall = wall(lambda: platform.execute(QUERY))
    platform.configure(continuous=TRACE_ALL)
    on_wall = wall(lambda: platform.execute(QUERY))
    benchmark(lambda: platform.execute(QUERY))
    platform.configure(continuous=None)

    report("tracing overhead, off vs on (O-OBS)", [
        f"instrumentation crossings/query: "
        f"{document['instrumentation_crossings_per_query']}  "
        f"spans allocated when off: 0 (checked)",
        f"spans recorded when on: {document['spans_per_query_when_on']}",
        f"wall: off {off_wall * 1000:6.2f} ms/query   "
        f"on {on_wall * 1000:6.2f} ms/query",
        f"simulated cost identical in both modes: "
        f"{document['simulated_ms']['off']:.1f} ms",
        f"exact figures held to {BENCH_FILE.name}",
    ])


if __name__ == "__main__":  # for a change that is meant to move the figures
    BENCH_FILE.write_text(
        json.dumps(exact_document(warm_platform()), indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")
