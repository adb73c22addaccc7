"""Concurrency primitives and the race-detector hook (A-CONC).

The mid-tier is one server shared by many sessions (section 2): its caches,
statistics and breakers are crossed by every request thread, so each piece
of shared mutable engine state is guarded by a lock and *declared* as such.
This module holds the three primitives that make the discipline checkable
instead of hoped-for:

* :class:`TrackedRLock` — a reentrant lock that reports every acquire and
  release to the active race detector.  With the detector off (the
  default), the report is a :class:`NoopRaceDetector` counter bump — no
  allocation, no tracking — the same unconditional-callsite contract the
  tracer established (O-OBS).  A contended acquire yields the interpreter
  and retries before it sleeps on the lock (the wait rule below).
* :func:`guarded_by` — a class decorator declaring which lock guards a
  class's shared mutable attributes.  The static concurrency lint
  (:mod:`repro.analysis.static`) reads the declaration and verifies every
  mutation site lexically holds that lock.
* :class:`SyncCounters` — the one counter base: a class declares its
  counters as annotated fields (``SourceStats``, ``RuntimeStats``,
  ``CacheStats``, ``GroupStats``, ``PlanCache``, ``ViewPlanCache``,
  ``AsyncExecutor``) and gets one synchronized :meth:`~SyncCounters.bump`
  write path and a :meth:`~SyncCounters.reset` derived from the
  declaration.  Raw ``stats.x += 1`` on a declared field from outside the
  owning class is a lint error (``ALDSP-C407``): the read-modify-write
  would race, and did — updates were lost on exactly these counters.

The active detector is a **process-wide** slot (:data:`RACE`), mirroring
how eraser-style tools instrument a whole process; install one with
``Platform.set_race_detector(True)`` (debug mode only — lockset tracking
captures stacks and is deliberately not cheap).

**The wait rule.**  Under the GIL, a thread that sleeps in a blocking
``RLock.acquire`` becomes the lock's owner when it is released, but then
waits up to the switch interval for the interpreter while holding the
lock; the running thread soon needs the same lock, blocks, and hands the
interpreter back.  From then on the two alternate at every acquire — the
lock convoy of Blasgen, Gray et al. (1979) — and any lock taken once per
request is enough to start one.  So a contended :meth:`TrackedRLock.acquire`
does not sleep on the lock: it yields the interpreter (``time.sleep(0)``
releases the GIL) and retries without blocking, up to
:data:`YIELD_BOUND` times, and only then falls back to the blocking
acquire with what is left of its timeout.  Engine critical sections are
short, so the holder almost always finishes within one yield; an
uncontended acquire is still one call on the lock.
"""

from __future__ import annotations

import dataclasses
import threading
import time


class NoopRaceDetector:
    """Race detection disabled: every hook is a counter bump.

    ``calls`` counts how many times the engine crossed an instrumentation
    point (lock acquire/release, guarded access); paired with the class
    attributes below — no races, no tracked accesses — it makes the
    detector-off contract checkable the way the engine tracer's ``calls``
    does for tracing.  The counter is deliberately a plain int: it is approximate
    under threads and exists only to prove the callsites are unconditional.
    """

    __slots__ = ("calls",)

    enabled = False
    races: tuple = ()
    guarded_accesses = 0
    lock_acquisitions = 0

    def __init__(self) -> None:
        self.calls = 0

    def on_acquire(self, lock) -> None:
        self.calls += 1

    def on_release(self, lock) -> None:
        self.calls += 1

    def on_access(self, owner, field: str, write: bool = True) -> None:
        self.calls += 1


#: the shared disabled detector (never replaced, only un-installed to)
NOOP_DETECTOR = NoopRaceDetector()


class _DetectorSlot:
    """Holder for the active detector so rebinding is one attribute write."""

    __slots__ = ("detector",)

    def __init__(self) -> None:
        self.detector = NOOP_DETECTOR


#: the process-wide active race detector; hot paths read ``RACE.detector``
RACE = _DetectorSlot()


def set_race_detector(detector) -> object:
    """Install ``detector`` (or :data:`NOOP_DETECTOR`) process-wide and
    return the previously active one (for restore-in-finally)."""
    previous = RACE.detector
    RACE.detector = detector if detector is not None else NOOP_DETECTOR
    return previous


def race_detector():
    """The active detector (a :class:`NoopRaceDetector` unless enabled)."""
    return RACE.detector


#: how many times a contended :meth:`TrackedRLock.acquire` yields the
#: interpreter and retries before it falls back to the blocking acquire
YIELD_BOUND = 1000


class TrackedRLock:
    """A reentrant lock whose acquires/releases the race detector can see.

    The detector is notified *after* a successful acquire and *before* the
    release, so its view of the held-lock set is consistent at every
    guarded-access hook in between.

    An acquire first tries the lock without blocking.  If another thread
    holds it and the caller may block, it yields the interpreter and
    retries, at most :data:`YIELD_BOUND` times, then blocks on the lock
    for the rest of ``timeout`` — the module's wait rule, which keeps two
    request threads from falling into a lock convoy.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(False) or blocking and self._wait(timeout):
            RACE.detector.on_acquire(self)
            return True
        return False

    def _wait(self, timeout: float) -> bool:
        """The contended acquire: yield and retry, then block."""
        lock = self._lock
        deadline = time.monotonic() + timeout if timeout >= 0 else None
        for _ in range(YIELD_BOUND):
            time.sleep(0)
            if lock.acquire(False):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
        if deadline is None:
            return lock.acquire(True, timeout)
        return lock.acquire(True, max(0.0, deadline - time.monotonic()))

    def release(self) -> None:
        RACE.detector.on_release(self)
        self._lock.release()

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedRLock({self.name!r})"


def guarded_by(lock_attr: str):
    """Class decorator: ``self.<lock_attr>`` guards the class's shared
    mutable attributes.  Runtime effect is only a marker attribute; the
    static lint enforces the declaration (``ALDSP-C401``/``C404``)."""

    def mark(cls):
        cls.__guarded_by__ = lock_attr
        return cls

    return mark


@guarded_by("_lock")
class SyncCounters:
    """Mixin: a declared counter set with one synchronized write path.

    A subclass declares its counters as annotated class fields (a
    dataclass's fields, or ``hits: int = 0`` on a plain class); from that
    one declaration the class derives :attr:`counter_fields` (every
    ``int`` field, the values the metrics plane snapshots) and
    :meth:`reset` (every declared field back to its default).  Subclasses
    call :meth:`_init_lock` from ``__init__``/``__post_init__``; a cache
    that is its own counter set (``PlanCache``) bumps inside its own
    critical section, so a hit still takes one lock.  Every external
    counter update goes through :meth:`bump`, which holds the lock across
    the read-modify-write and reports each field to the race detector.  A
    misspelled field raises ``AttributeError`` — silent new-counter
    creation would hide typos.
    """

    #: the declared ``int`` fields, in declaration order (derived per class)
    counter_fields: tuple = ()
    #: every declared field -> its default, or the factory making one
    _declared: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls._declared = dict(cls._declared)
        for name in own:
            default = vars(cls).get(name, 0)
            if isinstance(default, dataclasses.Field):
                default = default.default_factory \
                    if default.default is dataclasses.MISSING else default.default
            cls._declared[name] = default
        cls.counter_fields += tuple(
            name for name, kind in own.items() if kind in ("int", int))

    def _init_lock(self, name: str) -> None:
        self._lock = TrackedRLock(name)

    def bump(self, **deltas) -> None:
        detector = RACE.detector
        with self._lock:
            for field, delta in deltas.items():
                setattr(self, field, getattr(self, field) + delta)
                detector.on_access(self, field, True)

    def reset(self) -> None:
        """Every declared field back to its declared default."""
        with self._lock:
            for name, default in self._declared.items():
                setattr(self, name, default() if callable(default) else default)
