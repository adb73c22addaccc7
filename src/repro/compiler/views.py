"""Partially-optimized view plan cache (section 4.2).

"Views are actually optimized using a special sub-optimizer that generates
a partially optimized query plan; ... making it possible for the
query-independent part to be performed once and then reused when compiling
each query that uses the view.  Caching and cache eviction is used to bound
the memory footprint of cached view plans."
"""

from __future__ import annotations

from collections import OrderedDict

from ..concurrency import RACE, SyncCounters, guarded_by


@guarded_by("_lock")
class ViewPlanCache(SyncCounters):
    """LRU cache mapping (function name, arity) to what the optimizer
    stores for the view: its partially optimized body with the variable
    names the body binds.  Entries are shared by every compile that hits
    them and are never mutated — the optimizer clones the body it
    unfolds.  Stats are exposed for the view-unfolding benchmark.

    Thread-safety (A-CONC): compilation runs on request threads, so the
    LRU map and counters are guarded like :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._init_lock("ViewPlanCache")
        self._entries: "OrderedDict[tuple[str, int], object]" = OrderedDict()

    def get(self, name: str, arity: int):
        key = (name, arity)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                RACE.detector.on_access(self, "_entries", True)
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, name: str, arity: int, entry) -> None:
        key = (name, arity)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            RACE.detector.on_access(self, "_entries", True)

    def invalidate(self, name: str, arity: int) -> None:
        with self._lock:
            self._entries.pop((name, arity), None)
            RACE.detector.on_access(self, "_entries", True)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            RACE.detector.on_access(self, "_entries", True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
