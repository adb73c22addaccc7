"""Tests for the join repertoire, stored procedures and the observed
cost-based optimizer (sections 5.2, 5.3 and the section-9 roadmap)."""

import pytest

from repro.errors import SourceError
from repro.relational import LatencyModel
from repro.runtime.observed import ObservedStatistics
from repro.schema import leaf, shape
from repro.xml import serialize

from tests.conftest import build_platform


class TestIndexNestedLoopJoin:
    """Section 5.2: 'The current join repertoire of ALDSP includes nested
    loop, index nested loop, PP-k using nested loops, and PP-k using index
    nested loops.'  Middleware equi-joins against non-relational sources
    use the hash-index variant."""

    def make_platform(self, tmp_path, rows=50):
        platform = build_platform(customers=3, deploy_profile=False)
        path = tmp_path / "regions.csv"
        lines = ["CID,REGION"] + [f"C{i % 3 + 1},zone{i}" for i in range(rows)]
        path.write_text("\n".join(lines) + "\n")
        record = shape("REGION_ROW", [leaf("CID", "xs:string"),
                                      leaf("REGION", "xs:string")])
        platform.register_csv_file("REGIONS", path, record)
        return platform

    def test_equi_join_builds_index_once(self, tmp_path):
        platform = self.make_platform(tmp_path)
        out = platform.execute('''
            for $c in CUSTOMER(), $r in REGIONS()
            where $r/CID eq $c/CID
            return <M>{ $c/CID }</M>
        ''')
        assert len(out) == 50
        assert platform.ctx.stats.index_joins_built == 1
        assert platform.ctx.stats.middleware_join_probes == 3

    def test_results_match_nested_loop_semantics(self, tmp_path):
        platform = self.make_platform(tmp_path, rows=9)
        query = '''
            for $c in CUSTOMER(), $r in REGIONS()
            where $r/CID eq $c/CID
            return <M>{ $c/CID, $r/REGION }</M>
        '''
        indexed = serialize(platform.execute(query))
        naive = self.make_platform(tmp_path, rows=9)
        naive.configure(pushdown=False)  # also disables index-join rewriting
        assert indexed == serialize(naive.execute(query))

    def test_non_equi_join_stays_nested_loop(self, tmp_path):
        platform = self.make_platform(tmp_path, rows=6)
        platform.execute('''
            for $c in CUSTOMER(), $r in REGIONS()
            where $r/CID ne $c/CID
            return <M>{ $r/REGION }</M>
        ''')
        assert platform.ctx.stats.index_joins_built == 0

    def test_correlated_nested_flwor_unnests_into_index_join(self, tmp_path):
        # unnesting rewrites the correlated inner FLWOR into a clause-level
        # scan + where, which the rewriter then converts to an index join
        platform = self.make_platform(tmp_path, rows=6)
        out = platform.execute('''
            for $c in CUSTOMER(),
                $r in (for $x in REGIONS() where $x/CID eq $c/CID return $x)
            return <M>{ $r/REGION }</M>
        ''')
        assert len(out) == 6
        assert platform.ctx.stats.index_joins_built == 1


class TestStoredProcedures:
    def add_procedure(self, platform):
        def top_orders(db, min_amount):
            from repro.relational import Executor, parse_sql

            stmt = parse_sql(
                'SELECT t1."OID" AS OID, t1."AMOUNT" AS AMOUNT FROM "ORDER" t1 '
                'WHERE t1."AMOUNT" >= ? ORDER BY t1."AMOUNT" DESC'
            )
            return Executor(db, [min_amount]).execute(stmt)

        platform.register_stored_procedure(
            platform.ctx.databases["custdb"], "topOrders", top_orders,
            columns=[("OID", "xs:string"), ("AMOUNT", "xs:int")],
            param_types=["xs:integer"],
        )

    def test_procedure_callable_from_xquery(self):
        platform = build_platform(customers=3, deploy_profile=False)
        self.add_procedure(platform)
        out = platform.execute("topOrders(30)")
        assert serialize(out[0]).startswith("<TOPORDERS><OID>O6</OID>")
        assert all(
            int(item.child_elements()[1].string_value()) >= 30 for item in out
        )

    def test_procedure_results_typed(self):
        platform = build_platform(customers=1, deploy_profile=False)
        self.add_procedure(platform)
        [row] = platform.execute("topOrders(20)")
        amount = row.child_elements()[1]
        assert amount.typed_value()[0].value == 20

    def test_procedure_composable_in_flwor(self):
        platform = build_platform(customers=3, deploy_profile=False)
        self.add_procedure(platform)
        out = platform.execute('''
            for $t in topOrders(30)
            return <BIG>{ data($t/OID) }</BIG>
        ''')
        assert serialize(out) == "<BIG>O6</BIG><BIG>O5</BIG><BIG>O4</BIG><BIG>O3</BIG>"

    def test_unavailable_database_fails_procedure(self):
        platform = build_platform(customers=1, deploy_profile=False)
        self.add_procedure(platform)
        platform.ctx.databases["custdb"].available = False
        with pytest.raises(SourceError):
            platform.execute("topOrders(0)")

    def test_procedure_charges_roundtrip(self):
        platform = build_platform(customers=2, deploy_profile=False)
        self.add_procedure(platform)
        before = platform.ctx.databases["custdb"].stats.roundtrips
        platform.execute("topOrders(0)")
        assert platform.ctx.databases["custdb"].stats.roundtrips == before + 1


class TestObservedCostModel:
    def test_fit_recovers_latency_model(self):
        model = ObservedStatistics()
        # elapsed = 10 + 0.5 * rows
        for rows in (0, 10, 20, 40):
            model.record("db", rows, 10 + 0.5 * rows)
        estimate = model.estimate("db")
        assert estimate.roundtrip_ms == pytest.approx(10, abs=0.01)
        assert estimate.per_row_ms == pytest.approx(0.5, abs=0.01)

    def test_uniform_rows_attributed_to_roundtrip(self):
        model = ObservedStatistics()
        model.record("db", 5, 12)
        model.record("db", 5, 12)
        estimate = model.estimate("db")
        assert estimate.per_row_ms == 0.0
        assert estimate.roundtrip_ms == 12

    def test_no_samples_no_estimate(self):
        assert ObservedStatistics().estimate("db") is None

    def test_recommendation_scales_with_latency(self):
        slow, fast = ObservedStatistics(), ObservedStatistics()
        for rows in (0, 10, 20):
            slow.record("db", rows, 50 + 0.5 * rows)   # remote: 50ms roundtrip
            fast.record("db", rows, 1 + 0.5 * rows)    # local: 1ms roundtrip
        assert slow.recommend_ppk("db") > fast.recommend_ppk("db")

    def test_recommendation_bounded(self):
        model = ObservedStatistics()
        for rows in (0, 100):
            model.record("db", rows, 1000 + 0.001 * rows)
        assert model.recommend_ppk("db", k_max=200) == 200

    def test_sample_window_bounded(self):
        # no window to bound: a source's whole history is six numbers
        model = ObservedStatistics()
        for i in range(10_000):
            model.record("db", i % 50, 3.0 + 0.25 * (i % 50))
        estimate = model.estimate("db")
        assert estimate.samples == 10_000
        assert estimate.roundtrip_ms == pytest.approx(3.0, abs=1e-6)
        assert estimate.per_row_ms == pytest.approx(0.25, abs=1e-6)
        state = model._fits["db"]
        assert len(state) == 6
        assert all(isinstance(value, (int, float)) for value in state)

    def test_platform_observes_and_adapts(self):
        platform = build_platform(customers=30, deploy_profile=False)
        for db in platform.ctx.databases.values():
            db.latency = LatencyModel(roundtrip_ms=40.0, per_row_ms=0.5)
        # generate observations with varying result sizes
        platform.execute("for $c in CUSTOMER() return $c/CID")
        platform.execute('for $c in CUSTOMER() where $c/CID eq "C1" return $c')
        platform.execute("for $cc in CREDIT_CARD() return $cc/CID")
        platform.execute('for $cc in CREDIT_CARD() where $cc/CID eq "C1" return $cc')
        chosen = platform.adapt_ppk()
        assert chosen is not None
        assert chosen > 20  # high-latency sources justify bigger blocks
        assert platform.config.ppk_block_size == chosen

    def test_adapt_without_data_is_noop(self):
        platform = build_platform(deploy_profile=False)
        default = platform.config.ppk_block_size
        assert platform.adapt_ppk() is None
        assert platform.config.ppk_block_size == default
