"""The unified metrics plane (O-OBS).

One :class:`MetricsRegistry` per server is the one read surface over
every count the engine keeps, with one snapshot, one reset and one
rolling window.  Three kinds of series co-exist:

* **attached counter sets** — a :class:`~repro.concurrency.SyncCounters`
  declares its counters once, on the class that bumps them
  (``RuntimeStats``, per-source ``SourceStats``, ``CacheStats``,
  ``GroupStats``, ``PlanCache``, ``ViewPlanCache``, ``AsyncExecutor``),
  and is attached once, where it comes to belong to the server:
  :meth:`MetricsRegistry.attach` makes each declared ``int`` field the
  series ``prefix.field{labels}``.  The write path stays the set's own
  ``bump()``; the registry only reads the fields at snapshot time and
  resets the set on :meth:`MetricsRegistry.reset`.
* **instruments** — counters/gauges/histograms created through the
  registry (e.g. the tracer's per-operator-kind ``trace.span_ms``
  histograms).  ``window=True`` makes one *windowed*: beside its
  cumulative value it keeps a ring of buckets over the last minute of
  the registry's clock (:data:`WINDOW_BUCKETS` buckets of
  :data:`BUCKET_MS`), read by :meth:`MetricsRegistry.window_snapshot`.
* **collectors** — snapshot-time callbacks for values that are state,
  not counts (the plan cache's size, the race detector's figures).

Series names are flattened Prometheus-style: ``name{label=value,...}``
with labels sorted, and the whole snapshot is returned sorted by series
name, so renderings and JSON exports are deterministic.

Thread-safety (A-CONC): the registry and every instrument it creates
share one lock — get-or-create and instrument updates arrive from
request threads, pool threads and the tracer concurrently.  Snapshot
copies the maps under the lock, then reads them *outside* it: a
collector is arbitrary code, and calling it while holding the registry
lock invites lock-order cycles.
"""

from __future__ import annotations

import math
from typing import Callable

from ..clock import Clock, VirtualClock
from ..concurrency import RACE, SyncCounters, TrackedRLock, guarded_by

#: the rolling window: 12 buckets of 5 s, so windowed rates and
#: percentiles reflect the last minute of the registry's clock
WINDOW_BUCKETS = 12
BUCKET_MS = 5_000.0


def series_name(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def nearest_rank(ordered: list[float], q: float) -> float | None:
    """Nearest-rank percentile (``q`` in [0, 100]) of a pre-sorted sample
    list — the one percentile definition every surface shares (histogram
    reservoirs, windowed buckets, the workload driver)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@guarded_by("_lock")
class Counter:
    """A monotonically increasing count; a windowed one also feeds its
    ``ring`` (a :class:`WindowedCounter`)."""

    __slots__ = ("value", "ring", "_lock")

    def __init__(self, lock: TrackedRLock | None = None,
                 ring: "WindowedCounter | None" = None) -> None:
        self._lock = lock if lock is not None else TrackedRLock("Counter")
        self.value = 0
        self.ring = ring

    def inc(self, n: int = 1) -> None:
        now = self.ring.clock.now_ms() if self.ring is not None else 0.0
        with self._lock:
            self.inc_at(now, n)

    def inc_at(self, now_ms: float, n: int = 1) -> None:  # caller-holds: _lock
        self.value += n
        if self.ring is not None:
            self.ring.inc_at(now_ms, n)
        RACE.detector.on_access(self, "value", True)

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self):
        return self.value


@guarded_by("_lock")
class Gauge:
    """A point-in-time value."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: TrackedRLock | None = None) -> None:
        self._lock = lock if lock is not None else TrackedRLock("Gauge")
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            RACE.detector.on_access(self, "value", True)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def snapshot(self):
        return round(self.value, 3) if isinstance(self.value, float) else self.value


@guarded_by("_lock")
class Histogram:
    """Count/sum/min/max/avg over observed values (span durations), plus
    approximate percentiles from a bounded deterministic reservoir; a
    windowed one also feeds its ``ring`` (a :class:`WindowedHistogram`)."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride",
                 "ring", "_lock")

    #: reservoir bound; past it, retention decimates deterministically
    RESERVOIR = 512

    def __init__(self, lock: TrackedRLock | None = None,
                 ring: "WindowedHistogram | None" = None) -> None:
        self._lock = lock if lock is not None else TrackedRLock("Histogram")
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        # Deterministic stride reservoir: keep every k-th observation,
        # doubling k (and halving the kept set) whenever the buffer
        # fills.  No RNG, so repeated runs see identical percentiles.
        self._samples: list[float] = []
        self._stride = 1
        self.ring = ring

    def observe(self, value: float) -> None:
        now = self.ring.clock.now_ms() if self.ring is not None else 0.0
        with self._lock:
            self.observe_at(now, value)

    def observe_at(self, now_ms: float, value: float) -> None:  # caller-holds: _lock
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.RESERVOIR:
                self._samples = self._samples[::2]
                self._stride *= 2
        if self.ring is not None:
            self.ring.observe_at(now_ms, value)
        RACE.detector.on_access(self, "count", True)

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (``q`` in [0, 100]) over the
        reservoir — approximate once decimation kicks in.  Raises
        :class:`ValueError` for ``q`` outside [0, 100]."""
        with self._lock:
            return nearest_rank(sorted(self._samples), q)

    def samples(self) -> list[float]:
        """A copy of the current reservoir (observation order)."""
        with self._lock:
            return list(self._samples)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self._samples = []
            self._stride = 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": round(self.total, 3),
                "min": round(self.min, 3) if self.min is not None else None,
                "max": round(self.max, 3) if self.max is not None else None,
                "avg": round(self.total / self.count, 3) if self.count else None,
            }


# ---------------------------------------------------------------------------
# The rolling window: ring-of-buckets counters and histograms
# ---------------------------------------------------------------------------


@guarded_by("_lock")
class WindowedCounter:
    """A counter over the last ``nbuckets * bucket_ms`` milliseconds.

    Bucket ``epoch = floor(now_ms / bucket_ms)`` maps to slot ``epoch %
    nbuckets``; a write into a slot whose recorded epoch is stale resets
    it first (lazy rotation), and a read sums only slots whose epoch
    falls in ``(current - nbuckets, current]``."""

    def __init__(self, clock: Clock, bucket_ms: float = BUCKET_MS,
                 nbuckets: int = WINDOW_BUCKETS,
                 lock: TrackedRLock | None = None):
        self.clock = clock
        self.bucket_ms = bucket_ms
        self._lock = lock if lock is not None else TrackedRLock("WindowedCounter")
        self._counts = [0.0] * nbuckets
        self._epochs = [-1] * nbuckets

    def _slot(self, now_ms: float) -> int:  # caller-holds: _lock
        epoch = int(now_ms // self.bucket_ms)
        index = epoch % len(self._counts)
        if self._epochs[index] != epoch:
            self._counts[index] = 0.0
            self._epochs[index] = epoch
        return index

    def inc_at(self, now_ms: float, n: float = 1) -> None:  # caller-holds: _lock
        index = self._slot(now_ms)
        self._counts[index] += n
        RACE.detector.on_access(self, "_counts", True)

    def inc(self, n: float = 1) -> None:
        now = self.clock.now_ms()
        with self._lock:
            self.inc_at(now, n)

    def total(self) -> float:
        """Sum over the live window (stale slots excluded, not rotated)."""
        now = self.clock.now_ms()
        with self._lock:
            epoch = int(now // self.bucket_ms)
            n = len(self._counts)
            return sum(self._counts[i] for i in range(n)
                       if self._epochs[i] > epoch - n)

    @property
    def window_ms(self) -> float:
        return self.bucket_ms * len(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0.0] * len(self._counts)
            self._epochs = [-1] * len(self._epochs)

    def snapshot(self) -> dict:
        total = self.total()
        return {
            "window_total": round(total, 3),
            "rate_per_s": round(total / (self.window_ms / 1000.0), 3),
        }


@guarded_by("_lock")
class WindowedHistogram:
    """A histogram over the rolling window: one bounded deterministic
    :class:`Histogram` reservoir per bucket, merged at read time
    (counts/sums add; percentiles run nearest-rank over the concatenated
    live reservoirs)."""

    def __init__(self, clock: Clock, bucket_ms: float = BUCKET_MS,
                 nbuckets: int = WINDOW_BUCKETS,
                 lock: TrackedRLock | None = None):
        self.clock = clock
        self.bucket_ms = bucket_ms
        self._lock = lock if lock is not None else TrackedRLock("WindowedHistogram")
        # bucket reservoirs share this window's lock (one acquisition
        # covers rotation + the observe)
        self._hists = [Histogram(self._lock) for _ in range(nbuckets)]
        self._epochs = [-1] * nbuckets

    def _slot(self, now_ms: float) -> int:  # caller-holds: _lock
        epoch = int(now_ms // self.bucket_ms)
        index = epoch % len(self._hists)
        if self._epochs[index] != epoch:
            self._hists[index].reset()
            self._epochs[index] = epoch
        return index

    def observe_at(self, now_ms: float, value: float) -> None:  # caller-holds: _lock
        index = self._slot(now_ms)
        self._hists[index].observe_at(now_ms, value)
        RACE.detector.on_access(self, "_epochs", True)

    def observe(self, value: float) -> None:
        now = self.clock.now_ms()
        with self._lock:
            self.observe_at(now, value)

    def _live(self) -> "list[Histogram]":  # caller-holds: _lock
        epoch = int(self.clock.now_ms() // self.bucket_ms)
        n = len(self._hists)
        return [self._hists[i] for i in range(n)
                if self._epochs[i] > epoch - n]

    def percentile(self, q: float) -> float | None:
        with self._lock:
            merged: list[float] = []
            for hist in self._live():
                merged.extend(hist.samples())
            return nearest_rank(sorted(merged), q)

    @property
    def window_ms(self) -> float:
        return self.bucket_ms * len(self._hists)

    def reset(self) -> None:
        with self._lock:
            for hist in self._hists:
                hist.reset()
            self._epochs = [-1] * len(self._epochs)

    def snapshot(self) -> dict:
        with self._lock:
            live = self._live()
            count = sum(h.count for h in live)
            total = sum(h.total for h in live)
            mins = [h.min for h in live if h.min is not None]
            maxs = [h.max for h in live if h.max is not None]
            merged: list[float] = []
            for hist in live:
                merged.extend(hist.samples())
            ordered = sorted(merged)

            def rank(q: float) -> float | None:
                value = nearest_rank(ordered, q)
                return round(value, 3) if value is not None else None

            return {
                "count": count,
                "sum": round(total, 3),
                "min": round(min(mins), 3) if mins else None,
                "max": round(max(maxs), 3) if maxs else None,
                "avg": round(total / count, 3) if count else None,
                "p50": rank(50),
                "p95": rank(95),
                "p99": rank(99),
            }


#: the ring a windowed instrument of each kind feeds
_RINGS = {Counter: WindowedCounter, Histogram: WindowedHistogram}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@guarded_by("_lock")
class MetricsRegistry:
    """Attached counter sets, labeled instruments (cumulative, optionally
    windowed) and snapshot-time collectors behind one snapshot, one
    windowed snapshot and one reset."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self._lock = TrackedRLock("MetricsRegistry")
        self._instruments: dict[str, object] = {}
        #: series -> the ring of a windowed instrument
        self._windows: dict[str, object] = {}
        #: series -> (counter set, field) of an attached counter
        self._attached: dict[str, tuple[SyncCounters, str]] = {}
        self._counter_sets: list[SyncCounters] = []
        self._collectors: list[Callable[[], dict]] = []

    # -- counter sets --------------------------------------------------------

    def attach(self, prefix: str, counters: SyncCounters, **labels) -> None:
        """Make each declared ``int`` field of ``counters`` the series
        ``prefix.field{labels}``.  A series already attached keeps its
        first holder; :meth:`reset` resets every set attached."""
        with self._lock:
            if not any(held is counters for held in self._counter_sets):
                self._counter_sets.append(counters)
            for field in counters.counter_fields:
                self._attached.setdefault(
                    series_name(f"{prefix}.{field}", labels), (counters, field))
            RACE.detector.on_access(self, "_attached", True)

    # -- instruments ---------------------------------------------------------

    def _instrument(self, factory, name: str, labels: dict[str, str],
                    window: bool = False):
        key = series_name(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._create(factory, key, window)
            return instrument

    def _create(self, factory, key: str, window: bool):  # caller-holds: _lock
        # instruments share the registry lock: one acquisition covers
        # get-or-create and the first update
        if window:
            ring = self._windows[key] = _RINGS[factory](self.clock, lock=self._lock)
            instrument = factory(self._lock, ring)
        else:
            instrument = factory(self._lock)
        self._instruments[key] = instrument
        RACE.detector.on_access(self, "_instruments", True)
        return instrument

    def counter(self, name: str, window: bool = False, **labels) -> Counter:
        return self._instrument(Counter, name, labels, window)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, window: bool = False, **labels) -> Histogram:
        return self._instrument(Histogram, name, labels, window)

    def observe_request(self, elapsed_ms: float,
                        outcome: str = "completed") -> None:
        """The always-on per-request fast path: bump the windowed
        ``trace.requests`` and observe the windowed ``trace.latency_ms``
        under ONE lock acquisition, with one clock read."""
        now = self.clock.now_ms()
        with self._lock:
            requests = self._instruments.get("trace.requests") \
                or self._create(Counter, "trace.requests", True)
            latency = self._instruments.get("trace.latency_ms") \
                or self._create(Histogram, "trace.latency_ms", True)
            requests.inc_at(now)
            latency.observe_at(now, elapsed_ms)
        if outcome != "completed":
            self.counter("trace.failed", window=True, outcome=outcome).inc()

    # -- collectors ----------------------------------------------------------

    def add_collector(self, collect: Callable[[], dict]) -> None:
        """Register a callback returning ``{series_name: value}`` read at
        snapshot time (values that are state, not counts)."""
        with self._lock:
            self._collectors.append(collect)

    # -- the one read surface ------------------------------------------------

    def snapshot(self) -> dict:
        """Every cumulative series — attached, instruments, collected —
        sorted by name."""
        with self._lock:
            attached = dict(self._attached)
            instruments = dict(self._instruments)
            collectors = list(self._collectors)
        merged: dict[str, object] = {
            key: getattr(counters, field)
            for key, (counters, field) in attached.items()}
        for key, instrument in instruments.items():
            merged[key] = instrument.snapshot()
        for collect in collectors:
            merged.update(collect())
        return dict(sorted(merged.items()))

    def window_snapshot(self) -> dict:
        """Every windowed series' rolling-window view, sorted by name."""
        with self._lock:
            windows = dict(self._windows)
        return {key: ring.snapshot() for key, ring in sorted(windows.items())}

    def reset(self) -> None:
        """Zero every attached counter set, instrument and window."""
        with self._lock:
            resettable = [*self._counter_sets, *self._instruments.values(),
                          *self._windows.values()]
        for item in resettable:
            item.reset()
