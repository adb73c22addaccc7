"""Clock semantics (virtual branch accounting, wall clock) and small
shared utilities."""

import time

import pytest
from hypothesis import given, strategies as st

from repro.clock import VirtualClock, WallClock
from repro.demo import build_demo_platform
from repro.observability import TRACE_ALL
from repro.relational.database import LatencyModel
from repro.schema import leaf, shape
from repro.sdo import DataObject
from repro.xml import element, parse_element_text

ZERO_LATENCY = LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=0.0,
                            connect_timeout_ms=0.0)


class TestVirtualClock:
    def test_charge_advances(self):
        clock = VirtualClock()
        clock.charge_ms(5)
        clock.charge_ms(2.5)
        assert clock.now_ms() == 7.5

    def test_branch_isolated_until_joined(self):
        clock = VirtualClock()
        clock.charge_ms(10)
        clock.begin_branch()
        clock.charge_ms(40)
        assert clock.now_ms() == 50  # visible while inside the branch
        elapsed = clock.end_branch()
        assert elapsed == 40
        assert clock.now_ms() == 10  # the join decides what to add
        clock.charge_ms(elapsed)
        assert clock.now_ms() == 50

    def test_nested_branches(self):
        clock = VirtualClock()
        clock.begin_branch()
        clock.charge_ms(5)
        clock.begin_branch()
        clock.charge_ms(3)
        assert clock.end_branch() == 3
        assert clock.end_branch() == 5

    def test_set_ms_monotonic(self):
        clock = VirtualClock()
        clock.charge_ms(10)
        clock.set_ms(5)
        assert clock.now_ms() == 10
        clock.set_ms(20)
        assert clock.now_ms() == 20


class TestWallClock:
    def test_charge_sleeps(self):
        clock = WallClock()
        start = time.monotonic()
        clock.charge_ms(20)
        assert time.monotonic() - start >= 0.015

    def test_zero_charge_fast(self):
        clock = WallClock()
        start = time.monotonic()
        clock.charge_ms(0)
        assert time.monotonic() - start < 0.01


class TestNoSleepOnZeroLatency:
    """On a wall clock the only sleeps are simulated source latency: with
    every source at zero, no path sleeps.  Mid-tier work (the PP-k join
    above all) is paid for by running it; the virtual clock still charges
    the modelled cost."""

    QUERIES = (
        "getProfile()",
        'getProfileByID("C2")',
        # a pushed join
        "for $c in CUSTOMER(), $o in ORDER() where $c/CID eq $o/CID "
        "return <P>{ $c/CID, $o/OID }</P>",
        # an fn-bea:async fan-out
        'for $c in CUSTOMER() where $c/CID eq "C1" return <R>{'
        "fn-bea:async(getRating(<getRating><lName>{data($c/LAST_NAME)}</lName>"
        "<ssn>{data($c/SSN)}</ssn></getRating>)),"
        "fn-bea:async(getRating(<getRating><lName>{data($c/LAST_NAME)}</lName>"
        "<ssn>{data($c/SSN)}</ssn></getRating>))}</R>",
        # the file adaptor
        "for $r in REGIONS() return $r/REGION",
    )

    @staticmethod
    def platform(clock, tmp_path):
        platform = build_demo_platform(customers=4, orders_per_customer=2,
                                       ws_latency_ms=0.0, clock=clock,
                                       db_latency=ZERO_LATENCY)
        csv_path = tmp_path / "regions.csv"
        csv_path.write_text("CID,REGION\nC1,north\nC2,south\n")
        platform.register_csv_file("REGIONS", csv_path, shape("REGION_ROW", [
            leaf("CID", "xs:string"), leaf("REGION", "xs:string")]))
        platform.registry.lookup("REGIONS", 0).adaptor.latency_ms = 0.0
        return platform

    @pytest.mark.parametrize("pipelining", [True, False])
    def test_wall_clock_never_sleeps(self, pipelining, tmp_path, monkeypatch):
        platform = self.platform(WallClock(), tmp_path)
        # blocks of two, so a pipelined join runs beside the next fetch
        platform.configure(ppk_pipelining=pipelining, ppk_block_size=2)
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        try:
            for query in self.QUERIES:
                assert platform.execute(query)
            [profile] = platform.read_for_update("ProfileService",
                                                 "getProfileByID", "C1")
            profile.setLAST_NAME("Renamed")
            assert platform.submit(profile).rows_updated == 1
        finally:
            platform.close()
        assert platform.ctx.stats.ppk_blocks >= 4
        assert platform.ctx.async_exec.groups_run >= 1
        assert any("JOIN" in statement for statement in
                   platform.ctx.databases["custdb"].stats.statements)
        assert [seconds for seconds in sleeps if seconds > 0] == []

    def test_virtual_clock_charges_the_ppk_join(self, tmp_path):
        clock = VirtualClock()
        platform = self.platform(clock, tmp_path)
        tuples = []
        platform.configure(continuous=TRACE_ALL)
        assert len(platform.execute("getProfile()")) == 4
        for root in platform.tracer.roots:
            tuples += [span.attrs["tuples"] for span in root.walk()
                       if span.kind == "ppk.join"]
        # two PP-k lets over four customers; every source is free, so the
        # join charge is all the clock advanced
        assert tuples == [4, 4]
        assert clock.now_ms() == pytest.approx(
            platform.ctx.middleware.ppk_join_ms_per_tuple * sum(tuples))


_LEAF_NAMES = st.lists(
    st.sampled_from(["A", "B", "C", "D", "E"]), min_size=1, max_size=5, unique=True
)


@given(names=_LEAF_NAMES, edits=st.lists(st.tuples(st.integers(0, 4), st.text(
    alphabet="abcxyz", min_size=1, max_size=5)), max_size=8))
def test_property_dataobject_change_log_consistent(names, edits):
    """Random flat objects + random edit sequences: the change log's old
    values are the originals, its new values are the final state, and
    unchanged leaves never appear."""
    root = element("ROOT", *(element(name, f"init-{name}") for name in names))
    obj = DataObject(root)
    finals = {name: f"init-{name}" for name in names}
    for index, value in edits:
        name = names[index % len(names)]
        obj.set(name, value)
        finals[name] = value
    log = obj.change_log()
    seen = {}
    for change in log.changes:
        leaf_name = change.path[-1]
        seen.setdefault(leaf_name, []).append(change)
        assert seen[leaf_name][0].old == f"init-{leaf_name}"
    for name in names:
        assert obj.get(name) == finals[name]
        if finals[name] == f"init-{name}":
            # a leaf that ended at its original value may appear in the log
            # (intermediate edits) but its first old value is the original
            pass
        if name in seen:
            assert seen[name][-1].new == finals[name] or \
                finals[name] == f"init-{name}"


@given(st.lists(st.sampled_from(["X", "Y"]), min_size=2, max_size=5))
def test_property_repeated_siblings_get_stable_indexed_paths(names):
    root = parse_element_text(
        "<R>" + "".join(f"<{n}>v</{n}>" for n in names) + "</R>"
    )
    obj = DataObject(root)
    originals = obj.change_log().original_values
    # every leaf is addressable and the index disambiguates duplicates
    assert len(originals) == len(names)
    for path in originals:
        assert originals[path] == "v"
