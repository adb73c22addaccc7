"""Multi-threaded stress harness (A-CONC): one Platform, N request
threads, lockset race detector on — zero races and consistent counters.

Runs under the wall clock with all simulated latencies zeroed, so threads
physically overlap inside the engine instead of sleeping.  One pass per
test by default; ``STRESS_RUNS=20`` soaks for the acceptance gate:

    STRESS_RUNS=20 make test-threaded
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.analysis import LocksetDetector
from repro.clock import WallClock
from repro.concurrency import set_race_detector
from repro.demo import build_demo_platform
from repro.observability import ContinuousConfig
from repro.relational.database import LatencyModel

pytestmark = pytest.mark.threaded

STRESS_RUNS = int(os.environ.get("STRESS_RUNS", "1"))
THREADS = 6
OPS_PER_THREAD = 12

ZERO_LATENCY = LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=0.0,
                            connect_timeout_ms=0.0)


def build_stress_platform():
    """The demo federation on a wall clock with free sources: contention
    is real (threads overlap in the engine) but nothing sleeps."""
    return build_demo_platform(
        customers=4, orders_per_customer=2, ws_latency_ms=0.0,
        clock=WallClock(), db_latency=ZERO_LATENCY,
    )


def hammer(platform, worker, threads: int = THREADS):
    """Run ``worker(index)`` on N threads against one platform; the GIL
    switch interval is tightened so interleavings are aggressive."""
    errors = []
    barrier = threading.Barrier(threads)

    def wrapped(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    try:
        pool = [threading.Thread(target=wrapped, args=(i,), name=f"stress-{i}")
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]


@pytest.fixture
def stressed():
    """(platform, detector) with the lockset detector installed; both the
    detector slot and the platform's worker pool are torn down after."""
    platform = build_stress_platform()
    detector = LocksetDetector(capture_stacks=False)
    previous = set_race_detector(detector)
    try:
        yield platform, detector
    finally:
        set_race_detector(previous)
        platform.close()


def assert_race_free(detector):
    assert detector.races == [], detector.report_text()


@pytest.mark.parametrize("round", range(STRESS_RUNS))
class TestStress:
    def test_mixed_query_workload(self, stressed, round):
        platform, detector = stressed
        platform.enable_function_cache("getRating", ttl_ms=60_000.0)
        counts = []

        def worker(index):
            for i in range(OPS_PER_THREAD):
                op = (index + i) % 4
                if op == 0:
                    counts.append(len(platform.call("getProfile")))
                elif op == 1:
                    out = platform.execute(
                        "for $c in CUSTOMER() where $c/CID eq 'C1' "
                        "return $c/LAST_NAME")
                    assert len(out) == 1
                elif op == 2:
                    platform.execute("for $o in ORDER() return $o/AMOUNT")
                else:
                    platform.call("getProfileByID",
                                  [_string(f"C{1 + (index + i) % 4}")])

        hammer(platform, worker)
        assert_race_free(detector)
        assert counts and all(count == 4 for count in counts)

    def test_queries_race_admin_and_introspection(self, stressed, round):
        """Request threads run queries while others flip admin toggles and
        read every stats surface — the serving-layer shape."""
        platform, detector = stressed

        def worker(index):
            for i in range(OPS_PER_THREAD):
                if index == 0:
                    platform.enable_function_cache("getRating",
                                                   ttl_ms=10_000.0)
                    platform.cache.set_capacity(8 + i)
                elif index == 1:
                    platform.metrics_snapshot()
                    platform.function_cache_stats()
                    platform.statement_cache_stats()
                    platform.source_health()
                else:
                    platform.call("getProfile")

        hammer(platform, worker)
        assert_race_free(detector)

    def test_batched_operators_under_contention(self, stressed, round):
        """The FLWOR runtime's shared surfaces under fire: one thread flips
        the batch size between 1 and 256 mid-workload,
        another profiles (per-thread ``BatchProbe`` via the context var),
        the rest hammer the batch group/order/where operators and the
        row-compiler's per-node closure cache — results must stay
        byte-identical to the single-threaded answer throughout."""
        from repro import serialize

        platform, detector = stressed
        query = ("for $i in (1 to 400) let $k := $i mod 5 "
                 "group $i as $is by $k as $g order by $g descending "
                 "return <G>{$g}{fn:count($is)}{fn:sum($is)}</G>")
        expected = serialize(platform.execute(query))

        def worker(index):
            for i in range(OPS_PER_THREAD):
                if index == 0:
                    platform.configure(batch_size=1 if i % 2 else 256)
                elif index == 1 and i % 4 == 0:
                    profile = platform.profile(query)
                    assert profile.items == 5
                assert serialize(platform.execute(query)) == expected

        try:
            hammer(platform, worker)
        finally:
            platform.configure(batch_size=256)
        assert_race_free(detector)

    def test_profile_sees_only_its_own_request(self, stressed, round):
        """``profile()`` is a request that records for itself: while other
        threads execute other queries it sees exactly its own root and its
        own operator ids, and feeds the plan-stats store its own
        fingerprint only.  (It used to swap the engine's tracer for
        everyone: the other threads' spans landed in the profile, small
        per-plan operator ids and all.)"""
        from repro.observability import plan_fingerprint

        platform, detector = stressed
        profiled = ("for $c in CUSTOMER() where $c/CID eq 'C1' "
                    "return $c/LAST_NAME")
        others = ("getProfile()", "for $o in ORDER() return $o/AMOUNT",
                  "for $c in CUSTOMER() for $cc in CREDIT_CARD() "
                  "where $cc/CID eq $c/CID return $cc/NUMBER")
        plan = platform.prepare(profiled)
        own_ops = {node.op_id for node in plan.expr.walk()
                   if getattr(node, "op_id", None) is not None}
        profiles = []

        def worker(index):
            for i in range(OPS_PER_THREAD):
                if index == 0:
                    profiles.append(platform.profile(profiled))
                else:
                    platform.execute(others[(index + i) % len(others)])

        hammer(platform, worker)
        assert_race_free(detector)
        assert len(profiles) == OPS_PER_THREAD
        for profile in profiles:
            [root] = profile.tracer.roots
            assert (root.kind, root.name) == ("query", plan.source)
            assert profile.items == 1 and set(profile.aggregates) == own_ops
        stats = platform.plan_stats()
        assert set(stats["plans"]) == {plan_fingerprint(plan.plan_key)}
        assert stats["traces_observed"] == OPS_PER_THREAD

    def test_cost_based_toggle_under_contention(self, stressed, round):
        """P-COST's knobs under fire: one thread flips between the costed
        choice and forced PP-k mid-workload (each flip invalidates the plan
        cache and recompiles under the other), another toggles the
        re-plan threshold, the rest hammer the cross-database join the
        pass rewrites — results must stay byte-identical throughout."""
        from repro import serialize

        platform, detector = stressed
        query = ("for $c in CUSTOMER() "
                 "for $cc in CREDIT_CARD() where $cc/CID eq $c/CID "
                 "return $cc/NUMBER")
        expected = serialize(platform.execute(query))

        def worker(index):
            for i in range(OPS_PER_THREAD):
                if index == 0:
                    platform.configure(force_strategy=None if i % 2 == 0 else "ppk")
                elif index == 1:
                    platform.configure(replan_threshold=None if i % 2 else 4.0)
                assert serialize(platform.execute(query)) == expected

        try:
            hammer(platform, worker)
        finally:
            platform.configure(force_strategy=None)
            platform.configure(replan_threshold=None)
        assert_race_free(detector)

    def test_costing_reads_whole_operator_actuals(self, stressed, round):
        """The observed-statistics store under fire: sampled requests end
        on every other thread (each folds its operator actuals into the
        plan's entry) while one thread keeps recompiling the same shape
        and explaining it, which reads that entry.  What it reads is a value
        copied under the store's lock — the outer scan, which ships four
        rows every time, is never costed from anything but 4."""
        import re

        platform, detector = stressed
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        query = ("for $c in CUSTOMER() for $cc in CREDIT_CARD() "
                 "where $cc/CID eq $c/CID return $cc/NUMBER")
        estimates = []

        def worker(index):
            for _ in range(2 * OPS_PER_THREAD):
                if index == 0:
                    platform._invalidate_plans()  # recompile
                    estimates.extend(re.findall(
                        r"-> custdb [^\n]*est_rows=([\d.]+)[^\]]*via=observed",
                        platform.explain(query)))
                else:
                    assert len(platform.execute(query)) == 4

        hammer(platform, worker)
        assert_race_free(detector)
        assert estimates and set(estimates) == {"4"}

    def test_keyed_readers_race_a_renaming_writer(self, stressed, round):
        """The backend's hash access paths under fire: a writer flips C1's
        LAST_NAME between two values — every UPDATE moves a row from one
        bucket of the LAST_NAME index to another, and finds its row
        through the primary-key index — while readers probe both
        buckets.  A reader must see one of the two legal states, never a
        lost or duplicated row, and always in table order."""
        from repro import serialize
        from repro.relational import Connection

        platform, detector = stressed
        custdb = platform.ctx.databases["custdb"]
        by_name = "for $c in CUSTOMER() where $c/LAST_NAME eq $n return $c/CID"
        legal = {
            "Jones": {"<CID>C1</CID>", ""},
            "Smith": {"<CID>C2</CID>", "<CID>C1</CID><CID>C2</CID>"},
        }

        def worker(index):
            if index == 0:
                writer = Connection(custdb)
                for i in range(4 * OPS_PER_THREAD):
                    assert writer.execute_update(
                        'UPDATE "CUSTOMER" SET "LAST_NAME" = ? WHERE "CID" = ?',
                        ["Jones" if i % 2 else "Smith", "C1"]) == 1
                return
            name = "Jones" if index % 2 else "Smith"
            for _ in range(OPS_PER_THREAD):
                seen = serialize(platform.execute(by_name, {"n": [_string(name)]}))
                assert seen in legal[name], seen
                assert len(platform.call("getProfileByID", [_string("C1")])) == 1

        hammer(platform, worker)
        assert_race_free(detector)
        customers = custdb.table("CUSTOMER")
        assert {("CID",), ("LAST_NAME",)} <= set(customers._indexes)
        # the writer's last rename put Jones back
        for name, cids in (("Jones", "<CID>C1</CID>"), ("Smith", "<CID>C2</CID>")):
            assert serialize(platform.execute(by_name, {"n": [_string(name)]})) == cids

    def test_rolled_back_submits_race_keyed_readers(self, stressed, round):
        """The undo image under fire: writer threads submit renames of C1
        through the SDO path, flipping it between Jones and Smith, and every
        third submit rolls back — its second XA branch (ccdb) rejects a
        credit-card number after the custdb UPDATE ran — so rollback swaps
        the saved row list back in and drops the indexes while readers
        probe them.  The stand-in has no write isolation (a submit is
        single-writer, see ``Transaction``), so the writers take turns; nor
        read isolation, so a doomed rename goes to the other legal name.  A
        reader sees C1 under one of the two names, once, with its credit
        card as committed, never a source fault; at the end the table and
        its indexes hold the last committed rename."""
        from repro import serialize
        from repro.errors import SQLError

        platform, detector = stressed
        custdb = platform.ctx.databases["custdb"]
        customers = custdb.table("CUSTOMER")
        by_name = "for $c in CUSTOMER() where $c/LAST_NAME eq $n return $c/CID"
        legal = {
            "Jones": {"<CID>C1</CID>", ""},
            "Smith": {"<CID>C2</CID>", "<CID>C1</CID><CID>C2</CID>"},
        }
        committed = {"name": "Jones", "submits": 0, "rollbacks": 0}
        turn = threading.Lock()

        def write():
            with turn:
                rename = "Smith" if committed["name"] == "Jones" else "Jones"
                [profile] = platform.read_for_update(
                    "ProfileService", "getProfileByID", "C1")
                profile.setLAST_NAME(rename)
                committed["submits"] += 1
                if committed["submits"] % 3:
                    platform.submit(profile)
                    committed["name"] = rename
                    return
                profile.set("CREDIT_CARDS/CREDIT_CARD/NUMBER", 0)  # not a VARCHAR
                with pytest.raises(SQLError):
                    platform.submit(profile)
                committed["rollbacks"] += 1

        def worker(index):
            if index < 2:
                for _ in range(OPS_PER_THREAD):
                    write()
                return
            name = "Jones" if index % 2 else "Smith"
            for _ in range(OPS_PER_THREAD):
                seen = serialize(platform.execute(by_name, {"n": [_string(name)]}))
                assert seen in legal[name], seen
                [profile] = platform.call("getProfileByID", [_string("C1")])
                text = serialize(profile)
                assert text.count("<LAST_NAME>") == 1, text
                assert "<LAST_NAME>Jones<" in text or "<LAST_NAME>Smith<" in text, text
                assert "<NUMBER>440001</NUMBER>" in text, text

        expected = customers.snapshot()
        hammer(platform, worker)
        assert_race_free(detector)
        assert committed["rollbacks"] == 2 * OPS_PER_THREAD // 3
        expected[0]["LAST_NAME"] = committed["name"]
        assert customers.snapshot() == expected
        for columns, index in customers._indexes.items():
            assert index == _fresh_index(customers, columns), columns
        for position, row in enumerate(expected):
            assert customers.lookup_pk((row["CID"],)) == row
            assert customers.probe("LAST_NAME", [row["LAST_NAME"]]).count(
                (position, row)) == 1
        cards = platform.ctx.databases["ccdb"].table("CREDIT_CARD")
        assert cards.lookup_pk(("CC1",))["NUMBER"] == "440001"

    def test_range_readers_race_a_writer_of_the_ranged_column(self, stressed, round):
        """The backend's ordered access path under fire: a writer moves
        C1's SINCE in and out of the window the readers scan — every
        UPDATE takes one entry out of the SINCE index and puts another in,
        through ``update_at`` — and now and then inserts a customer, which
        lands in it too.  A reader sees C1 inside the window or not at
        all, the other customers always, and always in table order."""
        from repro import serialize
        from repro.relational import Connection

        platform, detector = stressed
        custdb = platform.ctx.databases["custdb"]
        step = 864000  # SINCE of customer i is step * i
        window = ("for $c in CUSTOMER() where $c/SINCE ge $lo and $c/SINCE lt $hi "
                  "return $c/CID")
        bounds = {"lo": [_integer(step)], "hi": [_integer(3 * step)]}
        legal = {"<CID>C1</CID><CID>C2</CID>", "<CID>C2</CID>"}
        extra = "".join(f"<CID>X{i}</CID>" for i in range(4))

        def worker(index):
            if index == 0:
                writer = Connection(custdb)
                for i in range(4 * OPS_PER_THREAD):
                    assert writer.execute_update(
                        'UPDATE "CUSTOMER" SET "SINCE" = ? WHERE "CID" = ?',
                        [step if i % 2 else 10 * step, "C1"]) == 1
                    if i % OPS_PER_THREAD == 0:
                        writer.execute_update(
                            'INSERT INTO "CUSTOMER" ("CID", "SINCE") VALUES (?, ?)',
                            [f"X{i // OPS_PER_THREAD}", 2 * step])
                return
            for _ in range(OPS_PER_THREAD):
                seen = serialize(platform.execute(window, bounds))
                core = seen.split("<CID>X", 1)[0]
                assert core in legal and extra.startswith(seen[len(core):]), seen

        hammer(platform, worker)
        assert_race_free(detector)
        customers = custdb.table("CUSTOMER")
        index = customers._ordered["SINCE"]
        assert list(zip(index.values, index.positions)) == sorted(
            (row["SINCE"], position) for position, row in enumerate(customers.rows))
        # the writer's last move put C1 back inside the window
        assert serialize(platform.execute(window, bounds)) == \
            "<CID>C1</CID><CID>C2</CID>" + extra

    def test_readers_first_touch_one_cached_deferred_result(self, stressed, round):
        """A function-cache entry is handed to every caller as it is
        (``FunctionCache.get``), so an element nobody has read yet
        (DESIGN.md "Deferred content") gets its first read from several
        threads at once: one tree is built, once, and every reader sees it."""
        from repro.xml.items import DeferredElement

        platform, detector = stressed
        builds = []

        def counted(template):
            def build(row, group):
                builds.append(row)  # list.append is atomic
                time.sleep(0.0002)  # the other readers arrive while this one builds
                return template.build(row, group)

            return template._replace(build=build)

        platform.deploy("""
            declare namespace t = "urn:t";
            declare function t:rows() as element(CUSTOMER)* {
              for $i in (1 to 8) return CUSTOMER()
            };""", name="Rows")
        platform.enable_function_cache("rows", ttl_ms=60_000.0)
        rows = platform.execute("rows()")  # the miss: the pushed body fills the cache
        assert len(rows) == 32 and all(isinstance(row, DeferredElement) for row in rows)
        for row in rows:
            template, *source = row._source  # unread, as the cache holds it
            row._source = (counted(template), *source)
        seen = [None] * 8

        def worker(index):
            cached = platform.execute("rows()")
            assert all(one is other for one, other in zip(cached, rows))
            # half the readers come from the other end, to meet in the middle
            order = cached if index % 2 else cached[::-1]
            trees = {id(row): (row.attributes, row.children(), row.type_annotation,
                               row.string_value())
                     for row in order}
            seen[index] = [trees[id(row)] for row in cached]

        hammer(platform, worker, threads=8)
        assert_race_free(detector)
        assert platform.function_cache_stats()["hits"] == 8
        assert len(builds) == len(rows)  # one tree per element, built once
        for other in seen[1:]:
            for (attrs, children, annotation, text), theirs in zip(seen[0], other):
                assert attrs is theirs[0] and children is theirs[1]
                assert (annotation, text) == theirs[2:]
        assert all(child.parent is row for row in rows for child in row.children())
        assert all(row._source is None for row in rows)

    def test_steps_and_builds_race_on_one_cached_element(self, stressed, round):
        """Threads step into the same unread rows (``$c/CID`` hands out the
        row's own leaf, memoised under the class lock) while others build
        those rows: every thread sees one node per child, and the build
        adopts the leaves handed out before it."""
        from repro.xml.items import DeferredElement

        platform, detector = stressed

        def slow(template):
            def build(row, group):
                time.sleep(0.0002)  # steppers arrive while this one builds
                return template.build(row, group)

            return template._replace(build=build)

        platform.deploy("""
            declare namespace t = "urn:t";
            declare function t:rows() as element(CUSTOMER)* {
              for $i in (1 to 4) return CUSTOMER()
            };""", name="Rows")
        platform.enable_function_cache("rows", ttl_ms=60_000.0)
        rows = platform.execute("rows()")
        assert len(rows) == 16 and all(isinstance(row, DeferredElement) for row in rows)
        for row in rows:
            template, *source = row._source
            row._source = (slow(template), *source)
        seen = [None] * 8

        def worker(index):
            cached = platform.execute("rows()")
            order = cached if index % 2 else cached[::-1]
            found = {}
            for row in order:
                if index % 4 == 3:
                    list(row.children())  # the build
                cid = platform.execute("$c/CID", {"c": [row]})
                name = platform.execute("$c/LAST_NAME", {"c": [row]})
                found[id(row)] = (cid, name, row.children_named("CID"))
            seen[index] = [found[id(row)] for row in cached]

        hammer(platform, worker, threads=8)
        assert_race_free(detector)
        for position, row in enumerate(rows):
            children = list(row.children())
            [cid] = [child for child in children if child.name.local == "CID"]
            [name] = [child for child in children if child.name.local == "LAST_NAME"]
            for views in seen:
                got_cid, got_name, named = views[position]
                assert [len(got_cid), len(got_name), len(named)] == [1, 1, 1]
                assert got_cid[0] is cid and got_name[0] is name and named[0] is cid
            assert cid.parent is row and name.parent is row

    def test_counters_are_exact_under_contention(self, stressed, round):
        platform, detector = stressed
        runs_per_thread = 8

        def worker(index):
            for _ in range(runs_per_thread):
                platform.execute(
                    "for $c in CUSTOMER() where $c/CID eq 'C2' "
                    "return $c/LAST_NAME")

        before = platform.ctx.stats.pushed_queries
        hammer(platform, worker)
        assert_race_free(detector)
        pushed = platform.ctx.stats.pushed_queries - before
        # one pushed statement per execution: lost updates would show here
        assert pushed == THREADS * runs_per_thread
        snapshot = platform.metrics_snapshot()
        assert snapshot["concurrency.races"] == 0
        assert snapshot["concurrency.guarded_accesses"] > 0


def _fresh_index(table, columns):
    from repro.relational.table import _HashIndex, _index_key

    index = _HashIndex()
    for position, row in enumerate(table.rows):
        index.add(_index_key(row, columns), position)
    return index


def _integer(value: int):
    from repro.xml.items import AtomicValue

    return AtomicValue(value, "xs:integer")


def _string(value: str):
    from repro.xml.items import AtomicValue

    return AtomicValue(value, "xs:string")
