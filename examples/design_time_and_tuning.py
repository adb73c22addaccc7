"""Design-time tooling and self-tuning (sections 4.1 and 9).

Shows the two compiler personalities and the observed-cost optimizer:

* **design mode** — the mode behind ALDSP's graphical XQuery editor:
  deploying a data-service file with broken functions collects *all* the
  errors in one pass, keeps the error-free functions callable, and keeps
  even the broken function's signature usable by its callers;
* **observed cost-based tuning** — the paper's section-9 roadmap item:
  the platform instruments every source roundtrip and derives the PP-k
  block size from measured behaviour instead of a static cost model.

Run with:  python examples/design_time_and_tuning.py
"""

from repro import Platform, serialize
from repro.clock import VirtualClock
from repro.demo import build_ccdb, build_custdb
from repro.relational import LatencyModel

WORK_IN_PROGRESS = '''
declare namespace tns="urn:wip";

(::pragma function kind="read" ::)
declare function tns:goodCustomers() as element(CUSTOMER)* {
  for $c in CUSTOMER() return $c
};

(::pragma function kind="read" ::)
declare function tns:oops() as element(X)* {
  for $c in   (: the developer stopped typing here :)
};

(::pragma function kind="read" ::)
declare function tns:alsoBroken() as element(X)* {
  for $c in CUSTOMER() return $notBoundYet
};

(::pragma function kind="read" ::)
declare function tns:reuser() as element(CUSTOMER)* {
  tns:goodCustomers()[CID eq "C1"]
};
'''

# -- 1. design mode: recover, report, keep working ------------------------------

clock = VirtualClock()
platform = Platform(clock=clock, mode="design")
platform.register_database(build_custdb(clock, customers=3))
platform.register_database(build_ccdb(clock, customers=3))

platform.deploy(WORK_IN_PROGRESS, name="WorkInProgress")

print("== design-time analysis of a half-finished data service ==")
print("prolog-level errors recovered from:")
for error in platform.module.errors:
    print(f"  - {error}")
for name in ("goodCustomers", "alsoBroken", "reuser"):
    decl = platform.module.function(name, 0)
    status = "; ".join(decl.errors) if decl and decl.errors else "ok"
    print(f"  {name}: {status}")

print("\nerror-free functions remain fully usable:")
print(" ", serialize(platform.call("reuser"))[:120], "...")

# -- 2. observed cost-based PP-k tuning -------------------------------------------

print("\n== observed cost-based tuning (section 9) ==")
for db in platform.ctx.databases.values():
    db.latency = LatencyModel(roundtrip_ms=60.0, per_row_ms=0.2)
# the latency regime just changed: drop the fits, because the two samples
# per source below cannot out-vote the decayed history of the old regime
platform.observed.clear()

# ordinary traffic doubles as instrumentation
platform.execute("for $c in CUSTOMER() return $c/CID")
platform.execute('for $c in CUSTOMER() where $c/CID eq "C1" return $c')
platform.execute("for $cc in CREDIT_CARD() return $cc/CID")
platform.execute('for $cc in CREDIT_CARD() where $cc/CID eq "C2" return $cc')

for name in platform.observed.sources():
    estimate = platform.observed.estimate(name)
    print(f"  {name}: fitted roundtrip={estimate.roundtrip_ms:.1f}ms "
          f"per-row={estimate.per_row_ms:.2f}ms "
          f"-> recommended k={platform.recommended_ppk(name)}")

before = platform.config.ppk_block_size
chosen = platform.adapt_ppk()
print(f"  PP-k block size adapted: {before} -> {chosen} "
      "(derived from observations, not a cost model)")
