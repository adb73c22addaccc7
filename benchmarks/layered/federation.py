"""The benchmark's federation, built from a seed.

``custdb`` / ``ccdb`` / the rating service come from :mod:`repro.demo`;
``refdb`` (REGION, STORE) and the ``REGIONS`` CSV are the harness's own,
filled from the seed.  The engine only ever sees these generated inputs;
``Federation.rows`` keeps the same rows as plain Python dicts for the
oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from repro.clock import VirtualClock, WallClock
from repro.demo import (
    PROFILE_SERVICE_XQUERY,
    build_ccdb,
    build_custdb,
    rating_service,
)
from repro.relational import Database, ForeignKey, LatencyModel
from repro.schema import leaf, shape
from repro.services import Platform

ZERO_LATENCY = LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=0.0,
                            connect_timeout_ms=0.0)
#: ZONE values and CSV zone labels are drawn from this many distinct ones
ZONES = 17


@dataclass(frozen=True)
class Sizes:
    customers: int
    orders_per_customer: int
    regions: int
    stores: int

    @property
    def csv_rows(self) -> int:
        # reading and validating the file is the fixed cost of every
        # REGIONS() call; half the customers keeps it below the probes'
        return self.customers // 2


SIZES = {
    "full": Sizes(customers=2000, orders_per_customer=3, regions=40, stores=400),
    # the smoke test only checks plumbing, so everything is ~10x smaller
    "smoke": Sizes(customers=200, orders_per_customer=3, regions=10, stores=60),
}


@dataclass
class Federation:
    platform: Platform
    sizes: Sizes
    #: table name -> rows in insertion order, as the oracle reads them
    rows: dict[str, list[dict]]
    csv_path: Path

    def close(self) -> None:
        self.platform.close()
        self.csv_path.unlink(missing_ok=True)


def build_federation(seed: int, sizes: Sizes, out_dir: Path,
                     virtual: bool = False) -> Federation:
    """Build, load and deploy.  Timed passes (``virtual=False``) run on a
    wall clock with every simulated latency at zero, so wall time is the
    Python mid-tier plus simulator CPU; the virtual pass keeps the default
    latency model (5 ms/roundtrip, 0.05 ms/row, 30 ms web service)."""
    rng = random.Random(f"federation:{seed}")
    clock = VirtualClock() if virtual else WallClock()
    latency = None if virtual else ZERO_LATENCY
    platform = Platform(clock=clock)
    custdb = build_custdb(clock, sizes.customers, sizes.orders_per_customer,
                          latency=latency)
    ccdb = build_ccdb(clock, sizes.customers, latency=latency)
    refdb = _build_refdb(clock, sizes, rng, latency)
    for database in (custdb, ccdb, refdb):
        platform.register_database(database)
    platform.register_web_service(rating_service(30.0 if virtual else 0.0))

    csv_rows = [{"CID": f"C{i + 1}", "REGION": f"zone{rng.randrange(ZONES)}"}
                for i in range(sizes.csv_rows)]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"regions-{os.getpid()}.csv"
    csv_path.write_text("\n".join(
        ["CID,REGION"] + [f"{r['CID']},{r['REGION']}" for r in csv_rows]) + "\n")
    platform.register_csv_file("REGIONS", csv_path, shape("REGION_ROW", [
        leaf("CID", "xs:string"), leaf("REGION", "xs:string"),
    ]))
    if not virtual:
        # the file adaptor's read latency is a simulated one too
        platform.registry.lookup("REGIONS", 0).adaptor.latency_ms = 0.0
    platform.deploy(PROFILE_SERVICE_XQUERY, name="ProfileService")

    rows = {
        "CUSTOMER": custdb.table("CUSTOMER").snapshot(),
        "ORDER": custdb.table("ORDER").snapshot(),
        "CREDIT_CARD": ccdb.table("CREDIT_CARD").snapshot(),
        "REGION": refdb.table("REGION").snapshot(),
        "STORE": refdb.table("STORE").snapshot(),
        "REGIONS": csv_rows,
    }
    return Federation(platform, sizes, rows, csv_path)


def _build_refdb(clock, sizes: Sizes, rng: random.Random,
                 latency: LatencyModel | None) -> Database:
    refdb = Database("refdb", vendor="sqlserver", clock=clock, latency=latency)
    refdb.create_table(
        "REGION",
        [("RID", "VARCHAR", False), ("NAME", "VARCHAR"), ("ZONE", "INTEGER")],
        primary_key=["RID"],
    )
    refdb.create_table(
        "STORE",
        [("SID", "VARCHAR", False), ("RID", "VARCHAR"), ("SALES", "INTEGER")],
        primary_key=["SID"],
        foreign_keys=[ForeignKey(("RID",), "REGION", ("RID",))],
    )
    for i in range(sizes.regions):
        refdb.table("REGION").insert({
            "RID": f"R{i + 1}", "NAME": f"region{i + 1:03d}",
            "ZONE": rng.randrange(ZONES)})
    for i in range(sizes.stores):
        refdb.table("STORE").insert({
            "SID": f"S{i + 1}", "RID": f"R{rng.randrange(sizes.regions) + 1}",
            "SALES": rng.randrange(1000)})
    return refdb
