"""Thread-safety regression tests (A-CONC): the shared engine objects the
stress harness surfaced races in — hammered by real threads with the
lockset detector on — plus the AsyncExecutor thread-ownership contract."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import concurrency
from repro.analysis import LocksetDetector
from repro.clock import WallClock
from repro.concurrency import RACE, YIELD_BOUND, TrackedRLock, set_race_detector
from repro.relational.database import Database, LatencyModel, SourceStats
from repro.runtime.asyncexec import AsyncExecutor
from repro.runtime.cache import FunctionCache
from repro.runtime.evaluate import MAX_RECURSION
from repro.runtime.observed import ObservedStatistics

FAST_LATENCY = LatencyModel(roundtrip_ms=0.0, per_row_ms=0.0, parse_ms=0.0,
                            connect_timeout_ms=0.0)


@pytest.fixture
def detector():
    """Lockset detector on (stackless, for speed) with a tight GIL switch
    interval so threads interleave aggressively; everything restored."""
    installed = LocksetDetector(capture_stacks=False)
    previous = set_race_detector(installed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    try:
        yield installed
    finally:
        sys.setswitchinterval(interval)
        set_race_detector(previous)


def run_threads(worker, count: int = 6):
    """Run ``worker(index)`` on ``count`` threads; re-raise the first error."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,), name=f"hammer-{i}")
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _fast_db(name: str = "db") -> Database:
    db = Database(name, clock=WallClock(), latency=FAST_LATENCY)
    db.create_table("T", [("ID", "VARCHAR", False), ("N", "INTEGER")],
                    primary_key=["ID"])
    return db


class _Spied:
    """Stands in for a ``TrackedRLock``'s inner lock: counts the
    non-blocking tries and the blocking calls made on it after
    :meth:`watch` (the holder's own acquire comes before), and runs a hook
    before each."""

    def __init__(self):
        self._lock = threading.RLock()
        self.tries = 0
        self.blocking_calls = 0
        self.on_try = self.on_block = None

    def watch(self, on_try=None, on_block=None):
        self.on_try, self.on_block = on_try, on_block
        self.tries = self.blocking_calls = 0

    def acquire(self, blocking=True, timeout=-1):
        if blocking:
            self.blocking_calls += 1
            if self.on_block is not None:
                self.on_block()
        else:
            self.tries += 1
            if self.on_try is not None:
                self.on_try(self.tries)
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()


class _CountingTime:
    """The ``time`` module as ``repro.concurrency`` sees it, counting the
    yields (``sleep(0)``)."""

    def __init__(self):
        self.yields = 0

    def sleep(self, seconds):
        self.yields += 1
        time.sleep(seconds)

    monotonic = staticmethod(time.monotonic)


def _spied_lock(monkeypatch):
    lock = TrackedRLock("spied")
    lock._lock = spied = _Spied()
    clock = _CountingTime()
    monkeypatch.setattr(concurrency, "time", clock)
    return lock, spied, clock


def _in_thread(fn):
    """Start ``fn`` on a thread; the returned dict gets its result."""
    out = {}
    thread = threading.Thread(target=lambda: out.update(result=fn()), daemon=True)
    thread.start()
    return thread, out


def _joined(thread) -> None:
    thread.join(10)
    assert not thread.is_alive()


class TestContendedAcquire:
    """The wait rule: a contended acquire yields the interpreter and
    retries before it ever sleeps on the lock."""

    def test_contended_acquire_yields_and_never_blocks(self, monkeypatch):
        lock, spied, clock = _spied_lock(monkeypatch)
        lock.acquire()  # held by this thread
        tried, released = threading.Event(), threading.Event()

        def on_try(n):
            if n == 3:  # two yields in: the holder lets go before this try
                tried.set()
                assert released.wait(10)

        spied.watch(on_try=on_try)
        waiter, out = _in_thread(lock.acquire)
        assert tried.wait(10)
        lock.release()
        released.set()
        _joined(waiter)
        assert out["result"] is True
        assert spied.blocking_calls == 0
        assert spied.tries == 3 and clock.yields == 2

    def test_holder_past_the_bound_makes_one_blocking_acquire(self, monkeypatch):
        lock, spied, clock = _spied_lock(monkeypatch)
        lock.acquire()
        blocking = threading.Event()
        spied.watch(on_block=blocking.set)
        waiter, out = _in_thread(lock.acquire)
        assert blocking.wait(30)
        lock.release()
        _joined(waiter)
        assert out["result"] is True
        assert spied.blocking_calls == 1
        assert spied.tries == 1 + YIELD_BOUND and clock.yields == YIELD_BOUND

    def test_timeout_returns_false_on_time(self, monkeypatch):
        lock, spied, _ = _spied_lock(monkeypatch)
        lock.acquire()
        start = time.monotonic()
        waiter, out = _in_thread(lambda: lock.acquire(timeout=0.05))
        _joined(waiter)
        elapsed = time.monotonic() - start
        assert out["result"] is False
        assert 0.05 <= elapsed < 5.0
        waiter, out = _in_thread(lambda: lock.acquire(timeout=0))
        _joined(waiter)
        assert out["result"] is False
        lock.release()  # free: a timed acquire takes it at once
        waiter, out = _in_thread(lambda: (lock.acquire(timeout=0.05), lock.release())[0])
        _joined(waiter)
        assert out["result"] is True

    def test_non_blocking_and_reentrancy_are_unchanged(self, monkeypatch):
        lock, spied, clock = _spied_lock(monkeypatch)
        assert lock.acquire() and lock.acquire(blocking=False)  # re-entered
        waiter, out = _in_thread(lambda: lock.acquire(blocking=False))
        _joined(waiter)
        assert out["result"] is False
        lock.release()
        waiter, out = _in_thread(lambda: lock.acquire(blocking=False))
        _joined(waiter)
        assert out["result"] is False  # still held once
        lock.release()
        waiter, out = _in_thread(
            lambda: lock.acquire(blocking=False) and (lock.release() or True))
        _joined(waiter)
        assert out["result"] is True
        assert clock.yields == 0 and spied.blocking_calls == 0

    def test_the_race_detector_sees_every_acquire(self, monkeypatch, detector):
        lock, spied, _ = _spied_lock(monkeypatch)
        box = {"n": 0}

        def bump():
            with lock:
                box["n"] += 1
                RACE.detector.on_access(lock, "n", True)

        lock.acquire()
        tried, released = threading.Event(), threading.Event()

        def on_try(n):
            if n == 2:
                tried.set()
                assert released.wait(10)

        spied.watch(on_try=on_try)
        waiter = threading.Thread(target=bump)
        waiter.start()
        assert tried.wait(10)
        before = detector.lock_acquisitions
        lock.release()
        released.set()
        _joined(waiter)
        spied.watch()
        bump()
        assert detector.lock_acquisitions == before + 2
        assert box["n"] == 2
        assert detector.races == [], detector.report_text()


class TestFunctionCache:
    def test_concurrent_get_put_is_race_free_and_consistent(self, detector):
        cache = FunctionCache(clock=WallClock(), max_entries=8)
        cache.enable("f", ttl_ms=60_000.0)
        gets_per_thread = 40

        def worker(index):
            for i in range(gets_per_thread):
                key = f"k{(index + i) % 12}"
                if cache.get("f", key) is None:
                    cache.put("f", key, [])

        run_threads(worker)
        assert detector.races == [], detector.report_text()
        stats = cache.stats
        assert stats.hits + stats.misses == 6 * gets_per_thread
        assert len(cache._entries) <= 8  # capacity honored under contention

    def test_concurrent_resize_and_clear(self, detector):
        cache = FunctionCache(clock=WallClock(), max_entries=64)
        cache.enable("f", ttl_ms=60_000.0)

        def worker(index):
            for i in range(30):
                if index == 0 and i % 10 == 0:
                    cache.set_capacity(4 + i)
                elif index == 1 and i % 10 == 5:
                    cache.clear()
                else:
                    cache.put("f", f"k{i}", [])
                    cache.get("f", f"k{i}")

        run_threads(worker)
        assert detector.races == [], detector.report_text()


class TestStatementCache:
    def test_concurrent_prepare_is_race_free(self, detector):
        db = _fast_db()
        statements = [f"SELECT ID, N FROM T WHERE N = {i}" for i in range(10)]

        def worker(index):
            for i in range(30):
                prepared = db.statements.prepare(statements[(index + i) % 10])
                assert prepared.is_query

        run_threads(worker)
        assert detector.races == [], detector.report_text()
        stats = db.stats
        assert stats.stmt_cache_hits + stats.stmt_cache_misses == 6 * 30
        # double-parse on a concurrent miss is allowed; losing an insert
        # or a counter update is not
        assert stats.parses >= 10
        assert len(db.statements) == 10

    def test_prepare_races_invalidate(self, detector):
        db = _fast_db()

        def worker(index):
            for i in range(20):
                if index == 0:
                    db.statements.invalidate()
                else:
                    db.statements.prepare("SELECT ID FROM T")

        run_threads(worker, count=4)
        assert detector.races == [], detector.report_text()


class TestSourceStats:
    def test_bump_has_no_lost_updates(self, detector):
        stats = SourceStats()
        bumps = 200

        def worker(index):
            for _ in range(bumps):
                stats.bump(roundtrips=1, rows_shipped=2)

        run_threads(worker)
        assert detector.races == [], detector.report_text()
        assert stats.roundtrips == 6 * bumps
        assert stats.rows_shipped == 12 * bumps

    def test_note_statement_is_synchronized(self, detector):
        stats = SourceStats()

        def worker(index):
            for i in range(100):
                stats.note_statement(f"S{index}-{i}")

        run_threads(worker)
        assert detector.races == [], detector.report_text()
        assert len(stats.statements) == 600

    def test_misspelled_counter_raises(self):
        stats = SourceStats()
        with pytest.raises(AttributeError):
            stats.bump(roundtrip=1)  # typo must not mint a new counter


class TestObservedCostModel:
    def test_concurrent_record_and_estimate(self, detector):
        model = ObservedStatistics()

        def worker(index):
            source = f"src{index % 2}"
            for i in range(50):
                model.record(source, rows=i % 7, elapsed_ms=1.0 + i % 3)
                model.estimate(source)
                model.recommend_ppk(source)

        run_threads(worker)
        assert detector.races == [], detector.report_text()
        assert model.sources() == ["src0", "src1"]


class TestAsyncExecutorContract:
    def test_in_branch_is_false_on_the_owning_thread(self):
        assert AsyncExecutor.in_branch() is False
        AsyncExecutor.assert_owner("test")  # must not raise

    def test_in_branch_is_true_inside_a_branch(self):
        executor = AsyncExecutor(WallClock(), max_workers=2)
        try:
            seen = executor.run_parallel(
                [AsyncExecutor.in_branch, AsyncExecutor.in_branch])
            assert seen == [True, True]
            assert AsyncExecutor.in_branch() is False
        finally:
            executor.shutdown()

    def test_assert_owner_raises_from_a_branch(self):
        executor = AsyncExecutor(WallClock(), max_workers=2)
        try:
            with pytest.raises(RuntimeError, match="thread-ownership"):
                executor.run_parallel(
                    [lambda: AsyncExecutor.assert_owner("topology-mutation"),
                     lambda: None])
        finally:
            executor.shutdown()

    def test_context_topology_mutations_refuse_branch_threads(self):
        from tests.conftest import build_platform

        platform = build_platform(deploy_profile=False)
        executor = AsyncExecutor(WallClock(), max_workers=2)
        try:
            with pytest.raises(RuntimeError, match="attach_database"):
                executor.run_parallel(
                    [lambda: platform.ctx.attach_database(_fast_db("x")),
                     lambda: None])
        finally:
            executor.shutdown()

    def test_branch_flag_cleared_after_failure(self):
        executor = AsyncExecutor(WallClock(), max_workers=2)
        try:
            with pytest.raises(ValueError):
                executor.run_parallel(
                    [lambda: (_ for _ in ()).throw(ValueError("boom")),
                     lambda: None])
            assert AsyncExecutor.in_branch() is False
        finally:
            executor.shutdown()

    def test_counters_survive_concurrent_groups(self, detector):
        executor = AsyncExecutor(WallClock(), max_workers=4)
        try:
            def worker(index):
                for _ in range(20):
                    executor.run_parallel([lambda: 1, lambda: 2])

            run_threads(worker, count=4)
            assert detector.races == [], detector.report_text()
            assert executor.groups_run == 80
            assert executor.branches_run == 160
        finally:
            executor.shutdown()


class TestExternalVariableIsolation:
    def test_concurrent_bindings_do_not_clobber_each_other(self):
        """Two request threads running the same parameterized query with
        different bindings must each see their own results."""
        from tests.conftest import build_platform

        platform = build_platform(customers=3, ws_latency_ms=0.0)
        barrier = threading.Barrier(2)
        results = {}

        def worker(index):
            cid = f"C{index + 1}"
            for _ in range(25):
                barrier.wait()
                out = platform.call_python("getProfileByID", cid)
                values = {child.string_value()
                          for item in out
                          for child in item.child_elements()
                          if child.name.local == "CID"}
                assert values == {cid}, (cid, values)
            results[index] = True

        run_threads(worker, count=2)
        assert results == {0: True, 1: True}

    def test_branch_threads_inherit_the_callers_bindings(self):
        from repro.clock import WallClock as WC

        from tests.conftest import build_platform

        platform = build_platform(customers=2, ws_latency_ms=0.0)
        executor = AsyncExecutor(WC(), max_workers=2)
        try:
            with platform.ctx.tracer.request(bindings={"x": [1, 2, 3]}):
                seen = executor.run_parallel(
                    [lambda: platform.evaluator.variable("x"),
                     lambda: platform.evaluator.variable("x")])
            assert seen == [[1, 2, 3], [1, 2, 3]]
        finally:
            executor.shutdown()


class TestRecursionDepthIsolation:
    """The recursion guard counts the calls open on *one* request: the
    depth travels with the request's context, like its external variables,
    not on the evaluator every request shares."""

    SERVICE = '''
        declare namespace t = "urn:t";
        declare function t:deep($n as xs:integer) as xs:integer* {
          if ($n le 0) then park() else t:deep($n - 1)
        };
    '''

    def _platform(self, park):
        from tests.conftest import build_platform

        platform = build_platform(deploy_profile=False)
        platform.register_java_function("park", park, [], "xs:integer")
        platform.deploy(self.SERVICE, name="Deep")
        return platform

    @staticmethod
    def _query(calls: int) -> str:
        """A query making ``calls`` nested calls: the optimizer unfolds
        the first levels, and each one below is a call."""
        from repro.compiler.optimizer import _MAX_INLINE_DEPTH

        return f"deep({_MAX_INLINE_DEPTH + calls - 1})"

    def test_a_parked_request_does_not_count_against_another(self):
        parked, release = threading.Event(), threading.Event()

        def park():
            if not parked.is_set():  # the first request stops here, 40 calls deep
                parked.set()
                assert release.wait(10)
            return 7

        # each request is under the limit, the two together are not
        platform, query = self._platform(park), self._query(40)
        assert 40 <= MAX_RECURSION < 80
        outcome = {}
        first = threading.Thread(
            target=lambda: outcome.update(first=platform.execute(query)))
        first.start()
        try:
            assert parked.wait(10)
            assert [item.value for item in platform.execute(query)] == [7]
        finally:
            release.set()
            first.join()
        assert [item.value for item in outcome["first"]] == [7]
        assert platform.evaluator._depth.get() == 0

    def test_one_request_still_meets_the_limit(self):
        from repro.errors import DynamicError

        platform = self._platform(lambda: 7)
        with pytest.raises(DynamicError, match="recursion limit exceeded calling deep"):
            platform.execute(self._query(MAX_RECURSION + 1))
        assert platform.evaluator._depth.get() == 0  # unwound
        assert [item.value for item in platform.execute(self._query(MAX_RECURSION))] == [7]
