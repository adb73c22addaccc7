"""Expected results, computed in plain Python over the generated rows.

Nothing here imports the engine: each method rebuilds the serialized XML a
request shape in :mod:`workloads` must produce, straight from the row
dicts :func:`federation.build_federation` kept.  Row order is table
(insertion) order, which is what an XQuery ``for`` over a source yields;
grouped shapes carry an explicit ``order by`` so their order is defined.
"""

from __future__ import annotations

from collections import defaultdict

#: CUSTOMER.SINCE is ``SINCE_STEP * i`` for the i-th customer (repro.demo)
SINCE_STEP = 864000


def _el(name: str, value) -> str:
    text = str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{name}>{text}</{name}>"


def _row(name: str, row: dict, columns: tuple[str, ...]) -> str:
    return f"<{name}>" + "".join(_el(c, row[c]) for c in columns) + f"</{name}>"


def _wrap(name: str, inner: str) -> str:
    return f"<{name}>{inner}</{name}>" if inner else f"<{name}/>"


class Oracle:
    def __init__(self, rows: dict[str, list[dict]]):
        self.rows = rows
        #: the harness's own model of CUSTOMER; read_write_mix renames here
        self.customers = [dict(row) for row in rows["CUSTOMER"]]
        self._customer = {row["CID"]: row for row in self.customers}
        self._orders = defaultdict(list)
        for row in rows["ORDER"]:
            self._orders[row["CID"]].append(row)
        self._cards = defaultdict(list)
        for row in rows["CREDIT_CARD"]:
            self._cards[row["CID"]].append(row)
        self._region_of = {row["CID"]: row["REGION"] for row in rows["REGIONS"]}

    # -- the ProfileService view ------------------------------------------------

    def profile(self, cid: str, cards_visible: bool = True) -> str:
        customer = self._customer[cid]
        orders = "".join(_row("ORDER", o, ("OID", "CID", "AMOUNT"))
                         for o in self._orders[cid])
        parts = [_el("CID", cid), _el("LAST_NAME", customer["LAST_NAME"]),
                 _wrap("ORDERS", orders)]
        if cards_visible:
            parts.append(_wrap("CREDIT_CARDS", "".join(
                _row("CREDIT_CARD", c, ("CCID", "CID", "NUMBER"))
                for c in self._cards[cid])))
        parts.append(_el("RATING", 600 + int(customer["SSN"])))
        return "<PROFILE>" + "".join(parts) + "</PROFILE>"

    def rename(self, cid: str, last_name: str) -> None:
        self._customer[cid]["LAST_NAME"] = last_name

    # -- relational shapes --------------------------------------------------------

    def _window(self, lo: int, hi: int) -> list[dict]:
        return [c for c in self.customers if lo <= c["SINCE"] < hi]

    def customer_names(self, lo: int, hi: int) -> str:
        return "".join(_row("C", c, ("CID", "LAST_NAME")) for c in self._window(lo, hi))

    def order_totals(self, lo: int, hi: int) -> str:
        groups: dict[str, list[int]] = defaultdict(list)
        for row in self.rows["ORDER"]:
            if lo <= row["AMOUNT"] < hi:
                groups[row["CID"]].append(row["AMOUNT"])
        return "".join(
            "<G>" + _el("CID", cid) + _el("N", len(groups[cid]))
            + _el("S", sum(groups[cid])) + "</G>" for cid in sorted(groups))

    def _stores_with_region(self, sales_above: int = -1) -> list[tuple[dict, dict]]:
        region = {row["RID"]: row for row in self.rows["REGION"]}
        return [(s, region[s["RID"]]) for s in self.rows["STORE"]
                if s["SALES"] > sales_above]

    def region_sales(self) -> str:
        totals: dict[str, int] = defaultdict(int)
        for store, region in self._stores_with_region():
            totals[region["NAME"]] += store["SALES"]
        return "".join("<T>" + _el("NAME", name) + _el("SALES", totals[name]) + "</T>"
                       for name in sorted(totals))

    def stores_above(self, sales_above: int) -> str:
        return "".join("<S>" + _el("SID", s["SID"]) + _el("NAME", r["NAME"]) + "</S>"
                       for s, r in self._stores_with_region(sales_above))

    def store_sales(self, sales_above: int) -> str:
        return "".join(_row("S", s, ("SID", "SALES")) for s in self.rows["STORE"]
                       if s["SALES"] > sales_above)

    def store_counts(self, sales_above: int) -> str:
        counts: dict[str, int] = defaultdict(int)
        for store in self.rows["STORE"]:
            if store["SALES"] > sales_above:
                counts[store["RID"]] += 1
        return "".join("<G>" + _el("RID", rid) + _el("N", counts[rid]) + "</G>"
                       for rid in sorted(counts))

    def regions_in_zones(self, zones: tuple[int, ...]) -> str:
        return "".join(_el("NAME", r["NAME"]) for r in self.rows["REGION"]
                       if r["ZONE"] in zones)

    def region_names_if_zone(self, zone_below: int, zone: int) -> str:
        """``<F?>`` appears only for regions in that zone."""
        return "".join(
            "<P>" + _el("RID", r["RID"])
            + (_el("F", r["NAME"]) if r["ZONE"] == zone else "") + "</P>"
            for r in self.rows["REGION"] if r["ZONE"] < zone_below)

    # -- federated shapes ---------------------------------------------------------

    def customer_cards(self, lo: int, hi: int) -> str:
        return "".join(
            "<OUT>" + _el("CID", c["CID"]) + _wrap("CARDS", "".join(
                _el("NUMBER", card["NUMBER"]) for card in self._cards[c["CID"]]))
            + "</OUT>" for c in self._window(lo, hi))

    def customer_ratings(self, lo: int, hi: int) -> str:
        return "".join(
            "<R>" + _el("CID", c["CID"]) + _el("V", 600 + int(c["SSN"])) + "</R>"
            for c in self._window(lo, hi))

    # -- mid-tier shapes (no relational source) -----------------------------------------

    @staticmethod
    def range_filter(n: int, remainder: int) -> str:
        return " ".join(str(i) for i in range(1, n + 1) if i % 7 == remainder)

    @staticmethod
    def range_groups(n: int, shift: int) -> str:
        groups: dict[int, list[int]] = defaultdict(list)
        for i in range(1, n + 1):
            groups[(i + shift) % 50].append(i)
        return "".join(
            "<G>" + _el("K", k) + _el("N", len(groups[k])) + _el("S", sum(groups[k]))
            + "</G>" for k in sorted(groups))

    @staticmethod
    def let_stack(n: int, shift: int) -> str:
        out = []
        for i in range(1, n + 1):
            d = (((i + shift) * 2) - i) % 9
            if d != 5:
                out.append(str(d))
        return " ".join(out)

    def csv_probe(self, n: int, shift: int) -> str:
        size = len(self._region_of)
        return "".join(_el("REGION", self._region_of[f"C{(i + shift) % size + 1}"])
                       for i in range(1, n + 1))
