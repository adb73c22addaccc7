"""Edge-path coverage: designated-timestamp concurrency, change-log kinds,
async sequences, cast cardinality, SQL oddities."""

import pytest

from repro.errors import ConcurrencyError, DynamicError, UpdateError
from repro.sdo import Change, ChangeLog, ConcurrencyPolicy
from repro.xml import serialize

from tests.conftest import build_platform
from tests.test_runtime_evaluate import run, values


class TestDesignatedConcurrency:
    """Section 6: 'requiring a designated subset of the data (e.g., a
    timestamp element or attribute) to still be the same'."""

    def deploy_versioned(self):
        platform = build_platform(customers=2, deploy_profile=False)
        custdb = platform.ctx.databases["custdb"]
        platform.deploy('''
            (::pragma function kind="read" ::)
            declare function versioned() as element(VROW)* {
              for $c in CUSTOMER()
              return <VROW>
                <CID>{data($c/CID)}</CID>
                <LAST_NAME>{data($c/LAST_NAME)}</LAST_NAME>
                <TS>{data($c/SINCE)}</TS>
              </VROW>
            };
        ''', name="Versioned")
        return platform, custdb

    def test_designated_check_passes_when_stamp_unchanged(self):
        platform, custdb = self.deploy_versioned()
        [obj, _] = platform.read_for_update("Versioned", "versioned")
        # a concurrent writer touched an *undesignated* column: no conflict
        custdb.table("CUSTOMER").update_at(0, {"FIRST_NAME": "Zed"})
        obj.setLAST_NAME("Renamed")
        result = platform.submit(obj, policy=ConcurrencyPolicy.designated("TS"))
        assert result.rows_updated == 1

    def test_designated_check_fails_when_stamp_moved(self):
        platform, custdb = self.deploy_versioned()
        [obj, _] = platform.read_for_update("Versioned", "versioned")
        custdb.table("CUSTOMER").update_at(0, {"SINCE": 999})  # the stamp
        obj.setLAST_NAME("Renamed")
        with pytest.raises(ConcurrencyError):
            platform.submit(obj, policy=ConcurrencyPolicy.designated("TS"))

    def test_designated_condition_in_generated_sql(self):
        platform, _ = self.deploy_versioned()
        [obj, _] = platform.read_for_update("Versioned", "versioned")
        obj.setLAST_NAME("Renamed")
        result = platform.submit(obj, policy=ConcurrencyPolicy.designated("TS"))
        [statement] = result.statements
        assert '"SINCE" = 864000' in statement  # the stamp conditions the UPDATE


class TestChangeLogKinds:
    def test_insert_delete_kinds_rejected_by_decomposer(self):
        platform = build_platform(customers=1)
        [obj] = platform.read_for_update("ProfileService", "getProfile")
        obj._changes.append(
            Change(("PROFILE", "LAST_NAME"), None, "x", kind="insert")
        )
        with pytest.raises(UpdateError):
            platform.submit(obj)

    def test_changelog_wire_roundtrip_preserves_kind(self):
        log = ChangeLog("R", [Change(("R", "A"), 1, 2, kind="modify")])
        wire = log.serialize()
        rebuilt = ChangeLog.deserialize("R", wire)
        assert rebuilt.changes[0].kind == "modify"
        assert rebuilt.changes[0].path == ("R", "A")


class TestAsyncSequences:
    def test_sibling_async_in_sequence_expression(self):
        # rowcompile._parts also powers the comma operator
        out = values(run("(fn-bea:async(1), fn-bea:async(2), 3)"))
        assert out == [1, 2, 3]

    def test_async_preserves_order_despite_parallelism(self):
        out = run("<R>{ fn-bea:async((1, 2)), fn-bea:async(3) }</R>")
        # the constructed content keeps document order
        assert serialize(out) == "<R>1 2 3</R>"


class TestCastCardinality:
    def test_cast_empty_to_optional(self):
        assert run("() cast as xs:integer?") == []

    def test_cast_empty_to_required_raises(self):
        from repro.errors import DynamicError

        with pytest.raises(DynamicError):
            run("() cast as xs:integer")

    def test_cast_sequence_raises(self):
        with pytest.raises(DynamicError):
            run("(1, 2) cast as xs:string")

    def test_castable_empty(self):
        assert values(run("() castable as xs:integer?")) == [True]


class TestSQLOddities:
    def setup_method(self):
        from repro.relational import Database

        self.db = Database("d")
        self.db.create_table("T", [("ID", "INTEGER", False), ("S", "VARCHAR")],
                             primary_key=["ID"])
        self.db.load("T", [{"ID": 1, "S": "a_b"}, {"ID": 2, "S": None}])

    def runsql(self, sql, params=None):
        from repro.relational import Executor, parse_sql

        return Executor(self.db, params).execute(parse_sql(sql))

    def test_like_underscore_wildcard(self):
        rows = self.runsql("SELECT t.\"ID\" AS i FROM \"T\" t WHERE t.\"S\" LIKE 'a_b'")
        assert rows == [{"i": 1}]

    def test_coalesce(self):
        rows = self.runsql('SELECT COALESCE(t."S", \'none\') AS s FROM "T" t ORDER BY t."ID"')
        assert [r["s"] for r in rows] == ["a_b", "none"]

    def test_concat_function(self):
        rows = self.runsql("SELECT CONCAT(t.\"S\", '!') AS s FROM \"T\" t WHERE t.\"ID\" = 1")
        assert rows == [{"s": "a_b!"}]

    def test_having_without_aggregate_in_select(self):
        rows = self.runsql('SELECT t."S" AS s FROM "T" t GROUP BY t."S" '
                           "HAVING COUNT(*) >= 1 ORDER BY t.\"S\"")
        assert len(rows) == 2

    def test_string_plus_is_concat(self):
        rows = self.runsql("SELECT t.\"S\" + '!' AS s FROM \"T\" t WHERE t.\"ID\" = 1")
        assert rows == [{"s": "a_b!"}]


class TestNestedRepeatedGroups:
    """Deep SDO paths: repeated groups inside repeated groups must remain
    individually addressable and updatable."""

    def make_platform(self):
        from repro import Database, Platform
        from repro.clock import VirtualClock

        clock = VirtualClock()
        platform = Platform(clock=clock)
        db = Database("db", clock=clock)
        db.create_table("PARENT", [("PID", "VARCHAR", False)], primary_key=["PID"])
        db.create_table("CHILD", [("CID", "VARCHAR", False), ("PID", "VARCHAR"),
                                  ("V", "INTEGER")], primary_key=["CID"])
        db.load("PARENT", [{"PID": "P1"}, {"PID": "P2"}])
        db.load("CHILD", [
            {"CID": "K1", "PID": "P1", "V": 1},
            {"CID": "K2", "PID": "P1", "V": 2},
            {"CID": "K3", "PID": "P2", "V": 3},
        ])
        platform.register_database(db, navigation=False)
        platform.deploy('''
            (::pragma function kind="read" ::)
            declare function tree() as element(TREE)* {
              for $p in PARENT()
              return <TREE>
                <PID>{data($p/PID)}</PID>
                <KIDS>{
                  for $k in CHILD() where $k/PID eq $p/PID
                  return <KID><CID>{data($k/CID)}</CID><V>{data($k/V)}</V></KID>
                }</KIDS>
              </TREE>
            };
        ''', name="Tree")
        return platform, db

    def test_indexed_nested_get_set(self):
        platform, _db = self.make_platform()
        [p1, _p2] = platform.read_for_update("Tree", "tree")
        assert p1.get("KIDS/KID[2]/V") == 2
        p1.set("KIDS/KID[2]/V", 20)
        [change] = p1.change_log().changes
        assert change.path == ("TREE", "KIDS", "KID[2]", "V")

    def test_update_targets_correct_nested_row(self):
        platform, db = self.make_platform()
        [p1, _p2] = platform.read_for_update("Tree", "tree")
        p1.set("KIDS/KID[2]/V", 20)
        result = platform.submit(p1)
        assert result.rows_updated == 1
        assert db.table("CHILD").lookup_pk(("K2",))["V"] == 20
        assert db.table("CHILD").lookup_pk(("K1",))["V"] == 1


class TestSecurityRepeatedChildren:
    def test_every_matching_repeated_child_filtered(self):
        from repro.security import SecurityService, User
        from repro.xml import element

        service = SecurityService()
        service.protect_element(("T", "KID", "SECRET"), ["manager"],
                                action="replace", replacement="X")
        doc = element("T",
                      element("KID", element("SECRET", "a")),
                      element("KID", element("SECRET", "b")))
        [filtered] = service.filter_items([doc], User.of("eve"))
        assert serialize(filtered).count("<SECRET>X</SECRET>") == 2
