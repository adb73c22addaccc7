"""Adaptive parallel source access (P-ADAPT).

Three comparisons, all under the virtual clock so the numbers are
deterministic:

* **fixed k vs adaptive PP-k** on a high-latency and a low-latency source
  profile: the closed loop (each block's roundtrip feeds the model that
  sizes the next) should land within 10% of the *best* fixed block size on
  both profiles without being told the latency regime, and beat the
  paper's default k=20 outright where roundtrips dominate;
* **prefetch window W=1 vs W>=2**: with W fetches in flight behind the
  window join, per-round latency amortizes over W blocks;
* **serial vs scatter** execution of two independent let-bound regions
  (cost max, not sum — the region charges overlap).

The numbers are held to the committed ``BENCH_adaptive.json``; a change
meant to move them regenerates it with ``python benchmarks/test_adaptive.py``.
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

SCATTER_QUERY = '''
let $c := CUSTOMER()
let $cc := CREDIT_CARD()
return <OUT><A>{count($c)}</A><B>{count($cc)}</B>
            <A2>{count($c)}</A2><B2>{count($cc)}</B2></OUT>
'''

#: not a multiple of any swept k, so the tail block's row count differs
#: from the full blocks' and the least-squares fit sees real variance
N_CUSTOMERS = 410
FIXED_KS = [5, 20, 50, 100, 200]

PROFILES = {
    "high_latency": dict(roundtrip_ms=50.0, per_row_ms=0.02),
    "low_latency": dict(roundtrip_ms=0.5, per_row_ms=0.5),
}

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"


def make_platform(profile: str):
    platform = build_demo_platform(
        customers=N_CUSTOMERS, orders_per_customer=0, deploy_profile=False,
        db_latency=LatencyModel(**PROFILES[profile]),
    )
    platform.configure(ppk_block_size=20)
    return platform


def timed(platform) -> dict:
    platform.reset_stats()
    start = platform.clock.now_ms()
    result = platform.execute(QUERY)
    elapsed = platform.clock.now_ms() - start
    ccdb = platform.ctx.databases["ccdb"]
    return {
        "results": len(result),
        "elapsed_ms": round(elapsed, 3),
        "ppk_blocks": platform.ctx.stats.ppk_blocks,
        "k_adjustments": ccdb.stats.ppk_k_adjustments,
    }


def run_fixed(profile: str, k: int) -> dict:
    platform = make_platform(profile)
    platform.configure(ppk_block_size=k)
    return {"k": k, **timed(platform)}


def run_adaptive(profile: str) -> tuple[dict, dict]:
    """(cold, warm): the warm run re-executes on the same platform, so the
    observed cost model starts with the cold run's samples."""
    platform = make_platform(profile)
    platform.configure(adaptive_ppk=True)
    cold = timed(platform)
    warm = timed(platform)
    return cold, warm


def run_window(profile: str, window: int) -> dict:
    platform = make_platform(profile)
    platform.configure(ppk_prefetch_window=window)
    return {"window": window, **timed(platform)}


def run_scatter(parallel: bool) -> dict:
    platform = build_demo_platform(customers=N_CUSTOMERS, orders_per_customer=0,
                                   deploy_profile=False)
    platform.configure(parallel_regions=parallel)
    start = platform.clock.now_ms()
    result = platform.execute(SCATTER_QUERY)
    return {"parallel": parallel, "results": len(result),
            "elapsed_ms": round(platform.clock.now_ms() - start, 3)}


def measure() -> dict:
    """The document ``BENCH_adaptive.json`` holds."""
    return {
        "workload": f"PP-k profile join, {N_CUSTOMERS} customers",
        "profiles": PROFILES,
        "fixed": {profile: [run_fixed(profile, k) for k in FIXED_KS]
                  for profile in PROFILES},
        "adaptive": {profile: dict(zip(("cold", "warm"), run_adaptive(profile)))
                     for profile in PROFILES},
        "prefetch_window": {"profile": "high_latency", "k": 20,
                            "runs": [run_window("high_latency", w) for w in (1, 2, 4)]},
        "scatter": [run_scatter(False), run_scatter(True)],
    }


def test_adaptive_parallel_access(benchmark, report):
    document = measure()
    fixed = document["fixed"]
    adaptive = {profile: (runs["cold"], runs["warm"])
                for profile, runs in document["adaptive"].items()}
    windows = document["prefetch_window"]["runs"]
    scatter = document["scatter"]
    benchmark(lambda: run_adaptive("high_latency"))

    # same answers everywhere
    for profile in PROFILES:
        for row in fixed[profile]:
            assert row["results"] == N_CUSTOMERS
        assert adaptive[profile][0]["results"] == N_CUSTOMERS
        assert adaptive[profile][1]["results"] == N_CUSTOMERS

    # adaptive k: within 10% of the best fixed k on BOTH profiles, with no
    # knowledge of the latency regime...
    best = {profile: min(row["elapsed_ms"] for row in fixed[profile])
            for profile in PROFILES}
    default = {profile: next(r["elapsed_ms"] for r in fixed[profile]
                             if r["k"] == 20)
               for profile in PROFILES}
    for profile in PROFILES:
        warm = adaptive[profile][1]["elapsed_ms"]
        assert warm <= 1.10 * best[profile], (profile, warm, best[profile])
    # ...and strictly better than the paper's default k=20 where the
    # roundtrip dominates (even on the cold run, converging mid-query)
    assert adaptive["high_latency"][1]["elapsed_ms"] < default["high_latency"]
    assert adaptive["high_latency"][0]["elapsed_ms"] < default["high_latency"]
    assert adaptive["high_latency"][0]["k_adjustments"] >= 1

    # deep prefetch: W fetches in flight amortize per-round latency
    by_window = {row["window"]: row["elapsed_ms"] for row in windows}
    assert by_window[2] < by_window[1]
    assert by_window[4] < by_window[2]

    # scatter: two independent regions cost max, not sum
    serial, parallel = scatter[0]["elapsed_ms"], scatter[1]["elapsed_ms"]
    assert parallel < 0.75 * serial

    # virtual-clock figures are exact: the committed file is their gate
    assert json.dumps(document, indent=2) + "\n" == BENCH_FILE.read_text(), \
        f"{BENCH_FILE.name} moved; if it was meant to: python {Path(__file__).name}"

    lines = [f"{'profile':>14s}{'config':>16s}{'sim time':>12s}{'blocks':>8s}"]
    for profile in PROFILES:
        for row in fixed[profile]:
            lines.append(f"{profile:>14s}{'k=' + str(row['k']):>16s}"
                         f"{row['elapsed_ms']:>10.1f}ms{row['ppk_blocks']:>8d}")
        for label, row in (("adaptive cold", adaptive[profile][0]),
                           ("adaptive warm", adaptive[profile][1])):
            lines.append(f"{profile:>14s}{label:>16s}"
                         f"{row['elapsed_ms']:>10.1f}ms{row['ppk_blocks']:>8d}")
    lines.append("window sweep (high latency, k=20): " + ", ".join(
        f"W={row['window']}: {row['elapsed_ms']:.1f}ms" for row in windows))
    lines.append(f"scatter regions: serial {serial:.1f}ms -> "
                 f"parallel {parallel:.1f}ms (max-of-branches)")
    lines.append("the observed-cost loop finds the latency-appropriate block")
    lines.append("size on its own; window + scatter overlap the rest.")
    lines.append(f"held to {BENCH_FILE.name}")
    report("adaptive PP-k + prefetch window + scatter regions (P-ADAPT)", lines)


if __name__ == "__main__":  # for a change that is meant to move the figures
    BENCH_FILE.write_text(json.dumps(measure(), indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")
