"""The seven workloads: request shapes and seeded request sequences (the reason
for each is in :data:`spec.WORKLOADS`).

An *operation* is one pass over a workload's request shapes; operation
``i`` of a workload is a pure function of ``(seed, i)``, so every
repetition of one seed replays the same sequence.  ``requests(i)`` plans
the operation (and asks the oracle for what each request must return)
outside the timer; the child then executes it inside the timer.

Shape sizes are fractions of the federation size, chosen so one operation
costs at most ~120 ms on the 2-core reference box: a run then holds ~100
or more operations of every workload, which is what keeps the reported
percentiles steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xml.items import AtomicValue

from federation import ZONES, Federation
from oracle import SINCE_STEP, Oracle

#: larger than any SINCE/AMOUNT/SALES value: ``lt FRESH + i`` is always
#: true, and makes operation i's query text one the plan cache never saw
FRESH = 10 ** 10

TENANTS = {
    # tenant -> (secret, roles, sees PROFILE/CREDIT_CARDS)
    "acme": ("pw-acme", ("analyst",), True),
    "globex": ("pw-globex", ("clerk",), False),
}


@dataclass
class Request:
    text: str
    variables: dict | None
    expected: str
    #: serving_mix: send through the DataServer as this tenant
    tenant: str = ""
    #: read_write_mix: (cid, new last name) -> read_for_update/set/submit
    update: tuple[str, str] | None = None
    #: the workload's largest shape: its first-item time is ``ttfi``
    ttfi: bool = False


def _int(value: int) -> list[AtomicValue]:
    return [AtomicValue(value, "xs:integer")]


def _str(value: str) -> list[AtomicValue]:
    return [AtomicValue(value, "xs:string")]


class Workload:
    name = ""
    #: serving_mix drives a DataServer from client threads
    threaded = False

    def __init__(self, fed: Federation, oracle: Oracle, seed: int):
        self.fed = fed
        self.oracle = oracle
        self.seed = seed
        self.n = fed.sizes.customers

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{i}")

    def window(self, rng: random.Random, width: int) -> tuple[int, int]:
        """SINCE bounds selecting ``width`` consecutive customers."""
        first = rng.randrange(self.n - width + 1) + 1
        return SINCE_STEP * first, SINCE_STEP * (first + width)

    def requests(self, i: int) -> list[Request]:
        raise NotImplementedError

    def final_mismatches(self) -> int:
        """End-of-run state check (read_write_mix overrides)."""
        return 0


PROFILE_BY_ID = "getProfileByID($id)"

CUSTOMER_WINDOW = (
    "for $c in CUSTOMER() where $c/SINCE ge $lo and $c/SINCE lt $hi "
    "return <C>{$c/CID}{$c/LAST_NAME}</C>"
)


class KeyedLookup(Workload):
    name = "keyed_lookup"

    def requests(self, i):
        cid = f"C{self.rng(i).randrange(self.n) + 1}"
        return [Request(PROFILE_BY_ID, {"id": _str(cid)},
                        self.oracle.profile(cid), ttfi=True)]


class PushedScan(Workload):
    name = "pushed_scan"

    ORDER_TOTALS = (
        "for $o in ORDER() where $o/AMOUNT ge $lo and $o/AMOUNT lt $hi "
        "group $o as $os by $o/CID as $cid order by $cid "
        "return <G><CID>{$cid}</CID><N>{fn:count($os)}</N>"
        "<S>{fn:sum($os/AMOUNT)}</S></G>"
    )
    REGION_SALES = (
        "for $s in STORE(), $r in REGION() where $s/RID eq $r/RID "
        "group $s as $ss by $r/NAME as $name order by $name "
        "return <T><NAME>{$name}</NAME><SALES>{fn:sum($ss/SALES)}</SALES></T>"
    )

    def requests(self, i):
        rng = self.rng(i)
        lo, hi = self.window(rng, self.n // 4)
        # ORDER.AMOUNT is 10 * (the order's number): a third of the orders
        orders = len(self.fed.rows["ORDER"])
        first = rng.randrange(orders - orders // 3) + 1
        alo, ahi = 10 * first, 10 * (first + orders // 3)
        return [
            Request(CUSTOMER_WINDOW, {"lo": _int(lo), "hi": _int(hi)},
                    self.oracle.customer_names(lo, hi), ttfi=True),
            Request(self.ORDER_TOTALS, {"lo": _int(alo), "hi": _int(ahi)},
                    self.oracle.order_totals(alo, ahi)),
            Request(self.REGION_SALES, None, self.oracle.region_sales()),
        ]


class FederatedJoin(Workload):
    name = "federated_join"

    CARDS = (
        "for $c in CUSTOMER() where $c/SINCE ge $lo and $c/SINCE lt $hi "
        "return <OUT>{$c/CID}<CARDS>{ for $cc in CREDIT_CARD() "
        "where $cc/CID eq $c/CID return $cc/NUMBER }</CARDS></OUT>"
    )
    RATINGS = (
        "for $c in CUSTOMER() where $c/SINCE ge $lo and $c/SINCE lt $hi "
        "return <R>{$c/CID}<V>{fn:data(getRating(<getRating>"
        "<lName>{data($c/LAST_NAME)}</lName><ssn>{data($c/SSN)}</ssn>"
        "</getRating>)/getRatingResult)}</V></R>"
    )

    def requests(self, i):
        rng = self.rng(i)
        lo, hi = self.window(rng, max(3, self.n // 50))
        rlo, rhi = self.window(rng, max(2, self.n // 100))
        return [
            Request(self.CARDS, {"lo": _int(lo), "hi": _int(hi)},
                    self.oracle.customer_cards(lo, hi), ttfi=True),
            Request(self.RATINGS, {"lo": _int(rlo), "hi": _int(rhi)},
                    self.oracle.customer_ratings(rlo, rhi)),
        ]


class MidtierFlwor(Workload):
    name = "midtier_flwor"

    def requests(self, i):
        rng = self.rng(i)
        n = self.n
        remainder, shift = rng.randrange(7), rng.randrange(1000)
        filter_n, group_n, let_n, probes = 2 * n, n, n, n
        return [
            Request(f"for $i in (1 to {filter_n}) where ($i mod 7) eq $r return $i",
                    {"r": _int(remainder)},
                    Oracle.range_filter(filter_n, remainder)),
            Request(f"for $i in (1 to {group_n}) let $k := ($i + $s) mod 50 "
                    "group $i as $is by $k as $g order by $g return "
                    "<G><K>{$g}</K><N>{fn:count($is)}</N><S>{fn:sum($is)}</S></G>",
                    {"s": _int(shift)}, Oracle.range_groups(group_n, shift)),
            Request(f"for $i in (1 to {let_n}) let $a := $i + $s let $b := $a * 2 "
                    "let $c := $b - $i let $d := $c mod 9 where $d ne 5 return $d",
                    {"s": _int(shift)}, Oracle.let_stack(let_n, shift)),
            Request(f"for $i in (1 to {probes}) for $r in REGIONS() "
                    f'let $k := fn:concat("C", (($i + $s) mod {self.fed.sizes.csv_rows}) + 1) '
                    "where $r/CID eq $k return $r/REGION",
                    {"s": _int(shift)}, self.oracle.csv_probe(probes, shift),
                    ttfi=True),
        ]


class ColdCompile(Workload):
    name = "cold_compile"

    def __init__(self, fed, oracle, seed):
        super().__init__(fed, oracle, seed)
        self.cids = random.Random(f"{seed}:{self.name}").sample(
            range(1, self.n + 1), self.n)

    def requests(self, i):
        rng = self.rng(i)
        fresh = FRESH + i
        cid = f"C{self.cids[i % self.n]}"
        sales = rng.randrange(800, 990)
        zones = tuple(rng.sample(range(ZONES), 3))
        zone_below, zone = rng.randrange(ZONES // 2, ZONES), rng.randrange(ZONES // 2)
        return [
            Request(f'getProfileByID("{cid}")', None, self.oracle.profile(cid)),
            Request(f"for $s in STORE() where $s/SALES gt {sales} and $s/SALES lt {fresh} "
                    "return <S>{$s/SID}{$s/SALES}</S>",
                    None, self.oracle.store_sales(sales)),
            Request(f"for $s in STORE() where $s/SALES gt {sales} and $s/SALES lt {fresh} "
                    "group $s as $ss by $s/RID as $rid order by $rid "
                    "return <G><RID>{$rid}</RID><N>{fn:count($ss)}</N></G>",
                    None, self.oracle.store_counts(sales)),
            Request(f"for $r in REGION() where $r/ZONE lt {fresh} and "
                    f"(some $z in ({zones[0]}, {zones[1]}, {zones[2]}) "
                    "satisfies $r/ZONE eq $z) return $r/NAME",
                    None, self.oracle.regions_in_zones(zones)),
            Request(f"for $r in REGION() where $r/ZONE lt {zone_below} "
                    f"and $r/ZONE lt {fresh} return <P>{{$r/RID}}"
                    f"<F?>{{fn:data($r[ZONE eq {zone}]/NAME)}}</F></P>",
                    None, self.oracle.region_names_if_zone(zone_below, zone)),
            Request("for $s in STORE(), $r in REGION() where $s/RID eq $r/RID "
                    f"and $s/SALES gt {sales} and $s/SALES lt {fresh} "
                    "return <S>{$s/SID}{$r/NAME}</S>",
                    None, self.oracle.stores_above(sales)),
        ]


class ReadWriteMix(Workload):
    name = "read_write_mix"

    def __init__(self, fed, oracle, seed):
        super().__init__(fed, oracle, seed)
        # reads and writes share a small hot set, so reads keep landing on
        # customers that were renamed a few operations earlier
        self.hot = random.Random(f"{seed}:{self.name}").sample(
            range(1, self.n + 1), min(50, self.n))

    def requests(self, i):
        rng = self.rng(i)
        reads = []
        for _ in range(4):
            cid = f"C{rng.choice(self.hot)}"
            reads.append(Request(PROFILE_BY_ID, {"id": _str(cid)},
                                 self.oracle.profile(cid)))
        cid, name = f"C{rng.choice(self.hot)}", f"Renamed{i}"
        self.oracle.rename(cid, name)
        return reads + [Request("", None, "submit:1:custdb:1", update=(cid, name))]

    def final_mismatches(self):
        table = self.fed.platform.ctx.databases["custdb"].table("CUSTOMER")
        return int(table.snapshot() != self.oracle.customers)


class ServingMix(Workload):
    name = "serving_mix"
    threaded = True

    def requests(self, i):
        """Round ``i``: four lookups and one scan, all from one tenant."""
        rng = self.rng(i)
        tenant = list(TENANTS)[i % len(TENANTS)]
        cards_visible = TENANTS[tenant][2]
        round_ = []
        for _ in range(4):
            cid = f"C{rng.randrange(self.n) + 1}"
            round_.append(Request(PROFILE_BY_ID, {"id": _str(cid)},
                                  self.oracle.profile(cid, cards_visible),
                                  tenant=tenant))
        lo, hi = self.window(rng, self.n // 4)
        round_.append(Request(CUSTOMER_WINDOW, {"lo": _int(lo), "hi": _int(hi)},
                              self.oracle.customer_names(lo, hi), tenant=tenant))
        return round_


WORKLOADS = {cls.name: cls for cls in (
    KeyedLookup, PushedScan, FederatedJoin, MidtierFlwor, ColdCompile,
    ReadWriteMix, ServingMix)}
