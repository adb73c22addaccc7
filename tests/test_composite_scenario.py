"""A second large integration scenario: a three-layer composite
application over four source kinds (two databases, a stored procedure, a
CSV file, and a Web service) with layered data services — the "composite
application development" the paper's introduction motivates.
"""

from pathlib import Path

from repro import Database, Platform, serialize
from repro.clock import VirtualClock
from repro.relational import ForeignKey
from repro.schema import leaf, shape
from repro.sources import WebServiceDescriptor, WebServiceOperation
from repro.xml import element


def build_scenario(tmp_path, tracker_fails=False):
    clock = VirtualClock()
    platform = Platform(clock=clock)

    # -- inventory database -------------------------------------------------
    invdb = Database("invdb", vendor="sqlserver", clock=clock)
    invdb.create_table(
        "PRODUCT",
        [("SKU", "VARCHAR", False), ("NAME", "VARCHAR"), ("PRICE", "INTEGER")],
        primary_key=["SKU"],
    )
    invdb.create_table(
        "STOCK",
        [("SKU", "VARCHAR", False), ("WAREHOUSE", "VARCHAR", False), ("QTY", "INTEGER")],
        primary_key=["SKU", "WAREHOUSE"],
        foreign_keys=[ForeignKey(("SKU",), "PRODUCT", ("SKU",))],
    )
    invdb.load("PRODUCT", [
        {"SKU": "S1", "NAME": "widget", "PRICE": 10},
        {"SKU": "S2", "NAME": "gadget", "PRICE": 25},
        {"SKU": "S3", "NAME": "sprocket", "PRICE": 40},
    ])
    invdb.load("STOCK", [
        {"SKU": "S1", "WAREHOUSE": "east", "QTY": 5},
        {"SKU": "S1", "WAREHOUSE": "west", "QTY": 7},
        {"SKU": "S2", "WAREHOUSE": "east", "QTY": 0},
        {"SKU": "S3", "WAREHOUSE": "west", "QTY": 2},
    ])
    platform.register_database(invdb)

    # -- sales database -----------------------------------------------------
    salesdb = Database("salesdb", vendor="oracle", clock=clock)
    salesdb.create_table(
        "SALE",
        [("SID", "VARCHAR", False), ("SKU", "VARCHAR"), ("UNITS", "INTEGER")],
        primary_key=["SID"],
    )
    salesdb.load("SALE", [
        {"SID": "T1", "SKU": "S1", "UNITS": 3},
        {"SID": "T2", "SKU": "S1", "UNITS": 4},
        {"SID": "T3", "SKU": "S2", "UNITS": 9},
    ])
    platform.register_database(salesdb)

    # -- stored procedure: restock suggestions inside invdb ------------------
    def restock(db, threshold):
        from repro.relational import Executor, parse_sql

        stmt = parse_sql(
            'SELECT t1."SKU" AS SKU, SUM(t1."QTY") AS TOTAL FROM "STOCK" t1 '
            'GROUP BY t1."SKU" HAVING SUM(t1."QTY") < ?'
        )
        return Executor(db, [threshold]).execute(stmt)

    platform.register_stored_procedure(
        invdb, "lowStock", restock,
        columns=[("SKU", "xs:string"), ("TOTAL", "xs:int")],
        param_types=["xs:integer"],
    )

    # -- CSV file: supplier directory ----------------------------------------
    suppliers = tmp_path / "suppliers.csv"
    suppliers.write_text(
        "SKU,SUPPLIER,LEAD_DAYS\nS1,Acme,3\nS2,Globex,10\nS3,Initech,5\n"
    )
    supplier_shape = shape("SUPPLIER_ROW", [
        leaf("SKU", "xs:string"), leaf("SUPPLIER", "xs:string"),
        leaf("LEAD_DAYS", "xs:integer"),
    ])
    platform.register_csv_file("SUPPLIERS", suppliers, supplier_shape)

    # -- Web service: shipment tracker ---------------------------------------
    track_out = shape("trackResponse", [leaf("eta", "xs:integer")])

    def tracker(sku):
        if tracker_fails:
            raise RuntimeError("tracker backend exploded")
        return element("trackResponse", element("eta", 2 + len(str(sku))))

    platform.register_web_service(WebServiceDescriptor("Tracker", [
        WebServiceOperation("trackShipment", None, track_out, tracker,
                            style="rpc", rpc_param_types=["xs:string"],
                            latency_ms=25.0),
    ]))

    # -- layer 1: per-source logical services ---------------------------------
    platform.deploy('''
        (::pragma function kind="read" ::)
        declare function productInfo() as element(PRODUCT_INFO)* {
          for $p in PRODUCT()
          return <PRODUCT_INFO>
            <SKU>{data($p/SKU)}</SKU>
            <NAME>{data($p/NAME)}</NAME>
            <ON_HAND>{ sum(for $s in STOCK() where $s/SKU eq $p/SKU
                           return $s/QTY) }</ON_HAND>
          </PRODUCT_INFO>
        };
    ''', name="Inventory")

    # -- layer 2: composite service over layer 1 + other sources --------------
    platform.deploy('''
        (::pragma function kind="read" ::)
        declare function replenishmentReport() as element(REPLENISH)* {
          for $low in lowStock(6)
          let $info := productInfo()[SKU eq $low/SKU]
          for $sup in SUPPLIERS()
          where $sup/SKU eq $low/SKU
          return <REPLENISH>
            <SKU>{data($low/SKU)}</SKU>
            <NAME>{data($info/NAME)}</NAME>
            <ON_HAND>{data($low/TOTAL)}</ON_HAND>
            <SUPPLIER>{data($sup/SUPPLIER)}</SUPPLIER>
            <ETA>{ fn-bea:fail-over(
                     data(trackShipment(data($low/SKU))/eta),
                     data($sup/LEAD_DAYS)) }</ETA>
          </REPLENISH>
        };
    ''', name="Replenishment")
    return platform, invdb, salesdb


class TestCompositeScenario:
    def test_layer1_inventory_join_pushes(self, tmp_path):
        platform, invdb, _ = build_scenario(tmp_path)
        out = platform.call("productInfo")
        text = serialize(out)
        assert "<SKU>S1</SKU><NAME>widget</NAME><ON_HAND>12</ON_HAND>" in text
        assert "<SKU>S2</SKU><NAME>gadget</NAME><ON_HAND>0</ON_HAND>" in text
        # the sum over STOCK pushed as one aggregate join into invdb
        assert any("SUM" in s and "LEFT OUTER JOIN" in s
                   for s in invdb.stats.statements)

    def test_layer2_report_composes_four_source_kinds(self, tmp_path):
        platform, _, _ = build_scenario(tmp_path)
        out = platform.call("replenishmentReport")
        text = serialize(out)
        # low stock: S2 (0) and S3 (2); ETA from the tracker (2 + len sku)
        assert "<SKU>S2</SKU><NAME>gadget</NAME><ON_HAND>0</ON_HAND>" in text
        assert "<SUPPLIER>Globex</SUPPLIER><ETA>4</ETA>" in text
        assert "<SKU>S3</SKU>" in text
        assert "<SKU>S1</SKU>" not in text  # on hand 12 >= 6

    def test_service_fault_degrades_to_supplier_lead_time(self, tmp_path):
        platform, _, _ = build_scenario(tmp_path, tracker_fails=True)
        out = platform.call("replenishmentReport")
        text = serialize(out)
        # fail-over replaces the tracker ETA with the CSV lead time
        assert "<SUPPLIER>Globex</SUPPLIER><ETA>10</ETA>" in text
        assert "<SUPPLIER>Initech</SUPPLIER><ETA>5</ETA>" in text

    def test_cross_database_sales_enrichment(self, tmp_path):
        platform, invdb, salesdb = build_scenario(tmp_path)
        out = platform.execute('''
            for $p in PRODUCT()
            let $sold := sum(for $s in SALE() where $s/SKU eq $p/SKU
                             return $s/UNITS)
            order by $sold descending
            return <VELOCITY>{ data($p/SKU), $sold }</VELOCITY>
        ''')
        assert serialize(out) == ("<VELOCITY>S2 9</VELOCITY>"
                                  "<VELOCITY>S1 7</VELOCITY>"
                                  "<VELOCITY>S3 0</VELOCITY>")
        # SALE lives in another database: fetched via PP-k, not a SQL join
        assert platform.ctx.stats.ppk_blocks >= 1

    def test_explain_shows_the_distributed_plan(self, tmp_path):
        platform, _, _ = build_scenario(tmp_path)
        text = platform.explain("replenishmentReport()")
        assert "SOURCE CALL lowStock() [storedproc]" in text
        assert "SOURCE CALL SUPPLIERS() [file]" in text or "INDEX NESTED-LOOP" in text

    def test_multi_column_pk_update(self, tmp_path):
        platform, invdb, _ = build_scenario(tmp_path)
        platform.deploy('''
            (::pragma function kind="read" ::)
            declare function stockRows() as element(STOCK_ROW)* {
              for $s in STOCK()
              return <STOCK_ROW>
                <SKU>{data($s/SKU)}</SKU>
                <WAREHOUSE>{data($s/WAREHOUSE)}</WAREHOUSE>
                <QTY>{data($s/QTY)}</QTY>
              </STOCK_ROW>
            };
        ''', name="Stock")
        rows = platform.read_for_update("Stock", "stockRows")
        target = next(r for r in rows
                      if r.get("SKU") == "S1" and r.get("WAREHOUSE") == "west")
        target.set("QTY", 99)
        result = platform.submit(target)
        assert result.rows_updated == 1
        assert invdb.table("STOCK").lookup_pk(("S1", "west"))["QTY"] == 99
        assert invdb.table("STOCK").lookup_pk(("S1", "east"))["QTY"] == 5


SALES_VELOCITY = '''
    for $p in PRODUCT()
    let $sold := sum(for $s in SALE() where $s/SKU eq $p/SKU
                     return $s/UNITS)
    order by $sold descending
    return <VELOCITY>{ data($p/SKU), $sold }</VELOCITY>
'''


def backend_fingerprint(tmp_path) -> str:
    """Everything the simulated backends contribute to what a user can see:
    results, explain/profile text, the SQL shipped, the source counters and
    the virtual-clock total.  How fast the simulator computes a result must
    never show here (DESIGN.md, P-BACKEND)."""
    platform, invdb, salesdb = build_scenario(tmp_path)
    lines = [
        serialize(platform.call("productInfo")),
        serialize(platform.call("replenishmentReport")),
        serialize(platform.execute(SALES_VELOCITY)),
        platform.explain("replenishmentReport()"),
        platform.profile(SALES_VELOCITY).text,
    ]
    platform.deploy('''
        (::pragma function kind="read" ::)
        declare function stockRows() as element(STOCK_ROW)* {
          for $s in STOCK()
          return <STOCK_ROW><SKU>{data($s/SKU)}</SKU>
            <WAREHOUSE>{data($s/WAREHOUSE)}</WAREHOUSE><QTY>{data($s/QTY)}</QTY></STOCK_ROW>
        };
    ''', name="Stock")
    target = platform.read_for_update("Stock", "stockRows")[1]
    target.set("QTY", 99)
    lines.append(f"rows_updated={platform.submit(target).rows_updated}")
    lines.append(serialize(platform.call("productInfo")))
    for db in (invdb, salesdb):
        stats = db.stats
        lines.append(f"{db.name}: roundtrips={stats.roundtrips} rows_shipped={stats.rows_shipped} "
                     f"parses={stats.parses} cache_hits={stats.stmt_cache_hits} "
                     f"cache_misses={stats.stmt_cache_misses}")
        lines.extend(stats.statements)
    lines.append(f"virtual_ms={platform.clock.now_ms():.6f}")
    return "\n".join(lines) + "\n"


def test_backend_fingerprint_matches_golden(tmp_path):
    """The golden file was written by this function at the commit before the
    backend got compiled plans and hash access paths; it must never need
    regenerating for a change that only makes the simulator faster."""
    golden = Path(__file__).parent / "golden" / "composite_backend.txt"
    assert backend_fingerprint(tmp_path) == golden.read_text()
