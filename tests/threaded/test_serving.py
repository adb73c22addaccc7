"""Serving-layer concurrency tests (R-SERVE × A-CONC): per-request
isolation of degradation records, close() under racing queries, and a
full serving soak — sessions, admission, sheds and deadlines from many
client threads with the lockset race detector on.

One pass per test by default; ``STRESS_RUNS=20 make serve-soak`` soaks
for the acceptance gate.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import AdmissionError, PlatformClosedError
from repro.server import AdmissionController, DataServer, WorkloadDriver
from repro.xml.items import AtomicValue

from .test_stress_platform import (
    STRESS_RUNS,
    assert_race_free,
    build_stress_platform,
    hammer,
    stressed,  # noqa: F401 - fixture re-export
)

pytestmark = pytest.mark.threaded

LOOKUP = "for $c in CUSTOMER() where $c/CID eq $id return $c/LAST_NAME"


def _string(value: str) -> AtomicValue:
    return AtomicValue(value, "xs:string")


@pytest.mark.parametrize("round", range(STRESS_RUNS))
class TestServingConcurrency:
    def test_degradations_are_per_request(self, stressed, round):  # noqa: F811
        """Half the threads run a query that degrades (ccdb killed,
        partial results on); the other half run a clean lookup.  Each
        thread must see exactly its own degradation records — a shared
        list would leak ccdb records into the clean threads."""
        platform, detector = stressed
        platform.configure(partial_results=True)
        platform.ctx.databases["ccdb"].available = False
        threads = 6
        barrier = threading.Barrier(threads)

        def worker(index):
            barrier.wait()
            for i in range(8):
                if index % 2 == 0:
                    # touches ccdb -> degrades to an empty CREDIT_CARDS
                    platform.execute(
                        "for $cc in CREDIT_CARD() return $cc/ACCOUNT")
                    records = platform.last_degradations
                    assert records, "degraded thread saw no records"
                    assert {r.source for r in records} == {"ccdb"}
                else:
                    out = platform.execute(
                        LOOKUP, {"id": [_string(f"C{1 + (index + i) % 4}")]})
                    assert len(out) == 1
                    assert platform.last_degradations == [], \
                        "clean thread saw another request's degradations"

        hammer(platform, worker, threads=threads)
        assert_race_free(detector)

    def test_close_races_with_queries(self, round):
        """One thread closes mid-workload: every request either completes
        normally or fails with the clean PlatformClosedError — never an
        executor error — and close() stays idempotent."""
        platform = build_stress_platform()
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker(index):
            if index == 0:
                platform.close()
                platform.close()  # idempotent under the race
                return
            for i in range(10):
                try:
                    platform.execute(
                        LOOKUP, {"id": [_string(f"C{1 + i % 4}")]})
                    outcome = "ok"
                except PlatformClosedError:
                    outcome = "closed"
                with lock:
                    outcomes.append(outcome)

        hammer(platform, worker)
        assert platform.closed
        assert outcomes and set(outcomes) <= {"ok", "closed"}
        with pytest.raises(PlatformClosedError):
            platform.execute("1 + 1")

    def test_serving_soak(self, stressed, round):  # noqa: F811
        """The whole serving stack under fire: closed-loop clients over
        sessions + admission with a tight worker bound, cheap lookups and
        expensive scans mixed, deadlines armed.  Sheds are the only
        acceptable rejection, the admission ledger must balance, and the
        lockset detector must stay silent."""
        platform, detector = stressed
        admission = AdmissionController(
            platform.clock, max_concurrent=2, queue_soft=3, queue_hard=5)
        server = DataServer(platform, admission=admission,
                            default_budget_ms=30_000.0)
        server.register_tenant("acme", "pw", roles=("analyst",))
        server.register_tenant("globex", "pw", roles=("analyst",))
        shapes = [
            (LOOKUP, {"id": [_string(f"C{1 + i}")]}) for i in range(4)
        ] + [("getProfile()", None)]
        driver = WorkloadDriver(
            server, [("acme", "pw"), ("globex", "pw")], shapes)
        result = driver.run_stage(clients=8, duration_s=0.4)

        assert_race_free(detector)
        assert result.errors == 0, "non-shed errors under load"
        assert result.deadline_exceeded == 0
        assert result.completed > 0
        snapshot = server.snapshot()
        assert snapshot["admission"]["depth"] == 0, "leaked tickets"
        assert snapshot["admission"]["admitted"] == result.completed
        assert snapshot["sessions"]["sessions"] == 0, "sessions not closed"
        shed_total = (snapshot["admission"]["shed_cost"]
                      + snapshot["admission"]["shed_overload"]
                      + snapshot["admission"]["shed_quota"])
        assert shed_total == result.shed

    def test_worker_slots_bound_in_flight(self, stressed, round):  # noqa: F811
        """More clients than worker slots: in flight never exceeds
        ``max_concurrent``, every request completes or sheds, and the
        flight-recorder ledger reconciles with admission."""
        platform, detector = stressed
        admission = AdmissionController(
            platform.clock, max_concurrent=2, queue_soft=6, queue_hard=8)
        server = DataServer(platform, admission=admission,
                            default_budget_ms=30_000.0)
        server.register_tenant("acme", "pw", roles=("analyst",))
        execute, gauge = platform.execute, threading.Lock()
        flight = {"now": 0, "peak": 0}

        def counted(*args, **kwargs):
            with gauge:
                flight["now"] += 1
                flight["peak"] = max(flight["peak"], flight["now"])
            try:
                time.sleep(0.001)  # hold the slot: the others queue
                return execute(*args, **kwargs)
            finally:
                with gauge:
                    flight["now"] -= 1

        platform.execute = counted
        clients, per_client = 8, 10
        outcomes = []

        def worker(index):
            session = server.open_session("acme", "pw")
            for i in range(per_client):
                try:
                    server.execute(session.session_id, LOOKUP,
                                   {"id": [_string(f"C{1 + (index + i) % 4}")]})
                    outcomes.append("completed")
                except AdmissionError:
                    outcomes.append("shed")
            server.close_session(session.session_id)

        hammer(platform, worker, threads=clients)
        assert_race_free(detector)
        assert flight["peak"] == admission.max_concurrent
        assert len(outcomes) == clients * per_client
        ledger = server.snapshot()["flight"]["outcomes"]
        assert ledger.get("completed", 0) == outcomes.count("completed")
        assert ledger.get("shed", 0) == outcomes.count("shed")
        assert ledger.get("completed", 0) + ledger.get("deadline", 0) \
            + ledger.get("error", 0) == admission.admitted
        assert admission.depth == 0
        assert admission.free_slots == admission.max_concurrent

    def test_admission_depth_exact_under_contention(self, stressed, round):  # noqa: F811
        """Lost updates on the depth counter would strand the controller
        in shed-expensive/overload forever; hammer admit/release and
        check the ledger."""
        platform, detector = stressed
        controller = AdmissionController(
            platform.clock, max_concurrent=4, queue_soft=64, queue_hard=128)
        per_thread = 50

        def worker(index):
            for _ in range(per_thread):
                try:
                    ticket = controller.admit("t", cost=1.0)
                except AdmissionError:
                    continue
                with ticket:
                    pass

        hammer(platform, worker)
        assert_race_free(detector)
        assert controller.depth == 0
        assert controller.state == "open"
        assert controller.admitted + controller.shed_overload == \
            6 * per_thread
