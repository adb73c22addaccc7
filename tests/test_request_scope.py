"""One request, one scope (DESIGN.md O-OBS "The request scope").

A request's bindings, deadline, degradation records and span recorder are
one :class:`~repro.observability.tracer.Request`, on the calling context
only while the request's own code runs.  Every case here interleaves
requests on **one thread** — a stream suspended at a ``yield`` while its
client runs something else — and fails at the commit before the scope
existed, where that state sat in five ContextVars the next request
overwrote.  (The threaded twin — ``profile()`` beside other threads' queries
— is in ``tests/threaded/test_stress_platform.py``.)
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import serialize
from repro.clock import VirtualClock, WallClock
from repro.demo import build_demo_platform
from repro.errors import DeadlineExceededError, DynamicError, XMLError
from repro.observability import TRACE_ALL, ContinuousConfig
from repro.observability.tracer import REQUEST
from repro.relational.database import LatencyModel
from repro.server import DataServer
from tests.test_flwor_differential import BATCH_SIZES, flwor_cases

SCAN = "for $c in CUSTOMER() return $c/CID"
NAMES = "for $c in CUSTOMER() return $c/LAST_NAME"
CARDS = ("for $c in CUSTOMER() return <R>{ $c/CID, <CARDS>{ "
         "for $cc in CREDIT_CARD() where $cc/CID eq $c/CID "
         "return $cc/NUMBER }</CARDS> }</R>")


def values(items) -> list:
    return [item.value for item in items]


# ---------------------------------------------------------------------------
# (i) the five defects, as they were reported
# ---------------------------------------------------------------------------


class TestInterleavedOnOneThread:
    def test_a_lookup_per_streamed_item_keeps_the_streams_bindings(self):
        """(a) "stream, then look up per item": the call's bindings used to
        replace the stream's, which carry its lifted literals."""
        platform = build_demo_platform()
        delivered = 0
        for _item in platform.stream(
                "for $i in (1 to 600) where $i ne 3 return <R>{$i}</R>"):
            platform.call_python("getProfileByID", "C1")
            delivered += 1
        assert delivered == 599

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_b_a_second_query_does_not_rebind_the_first(self, size):
        """(b) same shape, another constant, between two ``next()`` calls:
        wrong rows, no error (the constants sit past the largest first
        batch, so every size reads its literal after the other query ran)."""
        platform = build_demo_platform()
        platform.configure(batch_size=size)
        stream = platform.stream("for $i in (1 to 600) where $i ne 300 return $i")
        first = next(stream)
        other = platform.execute("for $i in (1 to 600) where $i ne 500 return $i")
        assert values(other) == [i for i in range(1, 601) if i != 500]
        assert values([first, *stream]) == [i for i in range(1, 601) if i != 300]

    def test_c_an_open_budgeted_stream_does_not_time_out_its_neighbour(self):
        """(c) the stream's deadline stayed on the caller's context: a
        budget-less two-roundtrip query failed "4.2ms over budget"."""
        platform = build_demo_platform()
        stream = platform.stream(SCAN, budget_ms=1.0)
        next(stream)  # one roundtrip: the stream's own budget has run out
        assert len(platform.execute("getProfile()")) == 4
        assert len(list(stream)) == 3  # (rows already shipped: no source call)

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_c_degradations_land_on_the_request_that_degraded(self, size):
        """(c), the degradation twin: B runs while A is suspended; B's
        record is B's, A's later ones are A's."""
        def degrading():
            platform = build_demo_platform(customers=6, orders_per_customer=0)
            platform.configure(partial_results=True)
            platform.configure(ppk_block_size=1)
            platform.configure(batch_size=size)
            stream = platform.stream(CARDS)
            next(stream)
            platform.ctx.databases["ccdb"].available = False
            return platform, stream

        platform, stream = degrading()
        platform.execute("for $cc in CREDIT_CARD() return $cc/NUMBER")
        assert [d.source for d in platform.last_degradations] == ["ccdb"]
        assert len(list(stream)) == 5
        solo, alone = degrading()
        assert len(list(alone)) == 5
        assert [d.to_dict() for d in platform.last_degradations] == \
            [d.to_dict() for d in solo.last_degradations]

    def test_d_each_request_is_counted_and_owns_its_span_tree(self):
        """(d) the second request was not counted and its spans grafted
        into the first's tree."""
        platform = build_demo_platform()
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=0.0))
        tracer = platform.tracer
        stream = platform.stream(SCAN)
        next(stream)
        platform.execute(NAMES)
        assert tracer.snapshot()["requests"] == 2
        list(stream)
        roots = tracer.retained_roots()
        assert [root.name for root in roots] == [NAMES, SCAN]
        for root in roots:
            assert [span.kind for span in root.walk()].count("query") == 1
            assert [span.sid for span in root.walk()] == \
                list(range(1, 1 + len(list(root.walk()))))

    def test_d_a_stream_closed_early_is_not_an_error(self):
        """(d) ``GeneratorExit`` is the client's choice: ``completed``,
        ``items`` = what was delivered, not force-retained, not failed."""
        platform = build_demo_platform()
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=1e9))
        tracer = platform.tracer
        stream = platform.stream(SCAN)
        next(stream)
        next(stream)
        stream.close()
        snap = tracer.snapshot()
        assert snap["traces_retained"] == 0 and snap["traces_summarized"] == 1
        window = platform.window_snapshot()
        assert window["trace.requests"]["window_total"] == 1
        assert not [name for name in window if name.startswith("trace.failed")]
        # with everything retained, the tree says what happened
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0, slow_ms=0.0))
        tracer = platform.tracer
        stream = platform.stream(SCAN)
        next(stream)
        stream.close()
        [root] = tracer.retained_roots()
        assert root.attrs == {"abandoned": True, "items": 1}


class TestOutcomes:
    def test_call_reports_a_deadline_as_a_deadline(self):
        """``Platform.call`` mapped every exception to ``error``; a Java
        function calling back into the platform with a budget is the
        nested request whose deadline surfaces through it."""
        platform = build_demo_platform()
        platform.register_java_function(
            "callsBack",
            lambda: len(platform.execute("getProfile()", budget_ms=1.0)),
            [], "xs:integer")  # (two roundtrips: the second is over budget)
        platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
        with pytest.raises(DeadlineExceededError):
            platform.call("callsBack")
        window = platform.window_snapshot()
        assert window["trace.failed{outcome=deadline}"]["window_total"] == 1
        assert "trace.failed{outcome=error}" not in window
        # one request, its child and all: one draw, one count
        assert platform.tracer.snapshot()["requests"] == 1

    def test_a_nested_request_keeps_the_tighter_deadline(self):
        platform = build_demo_platform()
        tracer = platform.ctx.tracer
        with tracer.request(budget_ms=50.0) as outer:
            with tracer.request(budget_ms=500.0) as loose:
                assert loose.deadline_ms == outer.deadline_ms
            with tracer.request(budget_ms=5.0) as tight:
                assert tight.deadline_ms < outer.deadline_ms
                assert REQUEST.get() is tight
            assert REQUEST.get() is outer

    def test_after_an_abandoned_stream_nothing_is_left_behind(self):
        """No open request on the context, the next request sampled and
        counted as usual, no prefetch still running, no admission slot
        held (ROADMAP item 5's robustness property, for this path)."""
        latency = LatencyModel(roundtrip_ms=2.0, per_row_ms=0.0, parse_ms=0.0)
        platform = build_demo_platform(
            customers=8, orders_per_customer=0, ws_latency_ms=0.0,
            clock=WallClock(), db_latency=latency)
        try:
            platform.configure(ppk_block_size=1)
            platform.configure(ppk_prefetch_window=2)
            platform.configure(batch_size=1)
            platform.configure(continuous=ContinuousConfig(sample_rate=1.0))
            tracer = platform.tracer
            stream = platform.stream(CARDS)
            next(stream)
            stream.close()
            assert not REQUEST.get().running
            shipped = platform.ctx.databases["ccdb"].stats.roundtrips
            time.sleep(0.02)
            assert platform.ctx.databases["ccdb"].stats.roundtrips == shipped
            server = DataServer(platform)
            server.register_tenant("acme", "pw", roles=("analyst",))
            session = server.open_session("acme", "pw")
            assert len(server.execute(session.session_id, SCAN).items) == 8
            [record] = server.flight()
            assert record.outcome == "completed" and record.sampled
            assert tracer.snapshot()["requests"] == 2
            assert server.admission.depth == 0
        finally:
            platform.close()
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("ThreadPoolExecutor")
                    and thread.is_alive()]


# ---------------------------------------------------------------------------
# (ii) generated interleavings: each stream yields what it yields alone
# ---------------------------------------------------------------------------


_PLATFORM: list = []


def shared_platform():
    if not _PLATFORM:
        _PLATFORM.append(build_demo_platform(customers=2, orders_per_customer=0))
    return _PLATFORM[0]


def step(stream) -> tuple[str, bool]:
    """One ``next()``: ``(what it produced, whether the stream is over)``."""
    try:
        return serialize([next(stream)]), False
    except StopIteration:
        return "", True
    except (DynamicError, XMLError) as exc:
        return f"{type(exc).__name__}: {exc}", True


def drain(stream) -> list[str]:
    seen = []
    while True:
        produced, over = step(stream)
        seen.append(produced)
        if over:
            return seen


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(first=flwor_cases(), second=flwor_cases(),
       size=st.sampled_from(BATCH_SIZES),
       schedule=st.lists(st.sampled_from([0, 1, "call"]), max_size=12))
def test_interleaved_streams_yield_their_solo_results(first, second, size,
                                                      schedule):
    """Two generated FLWORs — lifted literals and external variables
    included — advanced by a drawn schedule of ``next()`` calls on one
    thread, a method call dropped in at drawn points."""
    platform = shared_platform()
    platform.configure(batch_size=size)
    cases = (first, second)
    expected = [drain(platform.stream(*case)) for case in cases]
    streams = [platform.stream(*case) for case in cases]
    seen: list[list[str]] = [[], []]
    live = [True, True]
    turns = list(schedule)
    while any(live):
        turn = turns.pop(0) if turns else live.index(True)
        if turn == "call":
            assert len(platform.call_python("getProfileByID", "C1")) == 1
        elif live[turn]:
            produced, over = step(streams[turn])
            seen[turn].append(produced)
            live[turn] = not over
    assert seen == expected, (cases, size, schedule)


# ---------------------------------------------------------------------------
# (iv) TRACE_ALL: every request recorded, every span tree retained
# ---------------------------------------------------------------------------


def test_trace_all_records_and_retains_every_request():
    assert TRACE_ALL == ContinuousConfig(sample_rate=1.0, slow_ms=0.0)
    platform = build_demo_platform(customers=3, clock=VirtualClock())
    platform.configure(continuous=TRACE_ALL)
    platform.execute(CARDS)
    platform.call("getProfile")
    stream = platform.stream(SCAN)
    next(stream)
    platform.call_python("getProfileByID", "C2")
    stream.close()
    snapshot = platform.tracer.snapshot()
    assert snapshot["requests"] == snapshot["requests_sampled"] == 4
    assert snapshot["traces_retained"] == len(platform.tracer.roots) == 4
