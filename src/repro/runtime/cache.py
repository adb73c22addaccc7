"""The ALDSP mid-tier function cache (section 5.5).

"A persistent, distributed map that maps a function and a set of argument
values to the corresponding function result" — caching is permitted
statically per function by the data-service designer, then enabled
administratively with a TTL.  The production cache used a relational
database for persistence/distribution; this implementation is an in-memory
map by default and can optionally be backed by a simulated database table
(exercising the same single-row-lookup pattern the paper describes).

Security filtering happens *after* cache lookup (section 7), so entries are
shared across users; nothing user-specific may be stored here.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass

from ..clock import Clock, VirtualClock
from ..concurrency import RACE, SyncCounters, TrackedRLock, guarded_by
from ..relational.database import Database
from ..xml.items import AtomicValue, Item
from ..xml.serialize import serialize

#: default LRU bound for the in-memory entry map
DEFAULT_FUNCTION_CACHE_CAPACITY = 512


@dataclass
class CacheStats(SyncCounters):
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    #: entries dropped by the LRU bound (never by TTL — those are expirations)
    evictions: int = 0

    def __post_init__(self) -> None:
        self._init_lock("CacheStats")


@guarded_by("_lock")
class FunctionCache:
    """TTL cache over (function name, argument values), bounded by a
    least-recently-used entry limit (the production cache was backed by a
    database; the in-memory map must not grow without limit).

    Thread-safety (A-CONC): ``_lock`` guards the entry map, the TTL map and
    the capacity bound.  Backing-store roundtrips run *outside* the lock —
    a cache probe against the persistence database must not serialize every
    other thread's in-memory hits behind simulated I/O."""

    def __init__(self, clock: Clock | None = None, backing: Database | None = None,
                 max_entries: int = DEFAULT_FUNCTION_CACHE_CAPACITY):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.clock = clock or VirtualClock()
        self.max_entries = max_entries
        self._lock = TrackedRLock("FunctionCache")
        self._ttl_ms: dict[str, float] = {}
        self._entries: OrderedDict[tuple[str, str], tuple[list[Item], float]] = OrderedDict()
        self.stats = CacheStats()
        self._backing = backing
        if backing is not None and "FN_CACHE" not in backing.tables:
            backing.create_table(
                "FN_CACHE",
                [("FNAME", "VARCHAR", False), ("ARGKEY", "VARCHAR", False),
                 ("RESULT", "VARCHAR"), ("EXPIRY", "DOUBLE")],
                primary_key=["FNAME", "ARGKEY"],
            )

    # -- administration ---------------------------------------------------------

    def enable(self, function_name: str, ttl_ms: float) -> None:
        """Administratively enable caching for a function with a TTL."""
        with self._lock:
            self._ttl_ms[function_name] = ttl_ms

    def disable(self, function_name: str) -> None:
        with self._lock:
            self._ttl_ms.pop(function_name, None)
            stale = [key for key in self._entries if key[0] == function_name]
            for key in stale:
                del self._entries[key]
            if stale:
                RACE.detector.on_access(self, "_entries", True)

    def is_enabled(self, function_name: str) -> bool:
        return function_name in self._ttl_ms

    def set_capacity(self, max_entries: int) -> None:
        """Re-bound the in-memory map, evicting LRU entries if it shrank."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        with self._lock:
            self.max_entries = max_entries
            self._evict_over_capacity()

    def snapshot(self) -> dict:
        """Size, capacity and counters in one dict (``Platform.function_cache_stats``)."""
        with self._lock:
            size = len(self._entries)
            capacity = self.max_entries
        stats = self.stats
        return {"size": size, "capacity": capacity,
                **{name: getattr(stats, name) for name in stats.counter_fields}}

    # -- lookup / store ------------------------------------------------------------

    @staticmethod
    def argument_key(args: list[list[Item]]) -> str:
        parts = []
        for arg in args:
            parts.append("|".join(serialize(item) for item in arg))
        return json.dumps(parts)

    def get(self, function_name: str, arg_key: str) -> list[Item] | None:
        key = (function_name, arg_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                RACE.detector.on_access(self, "_entries", True)
        if entry is None and self._backing is not None:
            entry = self._backing_get(function_name, arg_key)
        if entry is None:
            self.stats.bump(misses=1)
            return None
        value, expiry = entry
        if self.clock.now_ms() >= expiry:
            self.stats.bump(expirations=1, misses=1)
            with self._lock:
                self._entries.pop(key, None)
                RACE.detector.on_access(self, "_entries", True)
            return None
        self.stats.bump(hits=1)
        return list(value)

    def put(self, function_name: str, arg_key: str, value: list[Item]) -> None:
        ttl = self._ttl_ms.get(function_name)
        if ttl is None:
            return
        expiry = self.clock.now_ms() + ttl
        stored = list(value)
        with self._lock:
            self._entries[(function_name, arg_key)] = (stored, expiry)
            self._entries.move_to_end((function_name, arg_key))
            RACE.detector.on_access(self, "_entries", True)
            self._evict_over_capacity()
        if self._backing is not None:
            self._backing_put(function_name, arg_key, value, expiry)

    def _evict_over_capacity(self) -> None:  # caller-holds: _lock
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            RACE.detector.on_access(self, "_entries", True)
            self.stats.bump(evictions=evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            RACE.detector.on_access(self, "_entries", True)

    # -- optional relational backing (the paper's persistence strategy) -------------

    def _backing_get(self, function_name: str, arg_key: str) -> tuple[list[Item], float] | None:
        assert self._backing is not None
        table = self._backing.table("FN_CACHE")
        row = table.lookup_pk((function_name, arg_key))
        self._backing.charge_roundtrip(1 if row else 0, "SELECT FN_CACHE (cache probe)")
        if row is None:
            return None
        items = _deserialize_items(row["RESULT"])
        return items, row["EXPIRY"]

    def _backing_put(self, function_name: str, arg_key: str,
                     value: list[Item], expiry: float) -> None:
        assert self._backing is not None
        table = self._backing.table("FN_CACHE")
        payload = _serialize_items(value)
        existing = table.lookup_pk((function_name, arg_key))
        if existing is None:
            table.insert({"FNAME": function_name, "ARGKEY": arg_key,
                          "RESULT": payload, "EXPIRY": expiry})
        else:
            for index, row in enumerate(table.rows):
                if row["FNAME"] == function_name and row["ARGKEY"] == arg_key:
                    table.update_at(index, {"RESULT": payload, "EXPIRY": expiry})
                    break
        self._backing.charge_roundtrip(1, "UPSERT FN_CACHE (cache store)")


def _serialize_items(items: list[Item]) -> str:
    """Persist the *typed* token stream (section 5.1): type annotations must
    survive the cache database, or re-atomized values change type."""
    from ..xml.qname import QName
    from ..xml.tokens import TokenType, items_to_tokens

    tokens = []
    for token in items_to_tokens(items):
        entry: dict = {"t": token.type.value}
        if token.name is not None:
            entry["n"] = [token.name.local, token.name.namespace, token.name.prefix]
        if isinstance(token.value, AtomicValue):
            entry["a"] = [token.value.value, token.value.type_name]
        elif token.value is not None:
            entry["v"] = token.value
        tokens.append(entry)
    return json.dumps(tokens)


def _deserialize_items(payload: str) -> list[Item]:
    from ..xml.qname import QName
    from ..xml.tokens import Token, TokenType, tokens_to_items

    tokens = []
    for entry in json.loads(payload):
        name = QName(*entry["n"]) if "n" in entry else None
        if "a" in entry:
            value: object = AtomicValue(entry["a"][0], entry["a"][1])
        else:
            value = entry.get("v")
        tokens.append(Token(TokenType(entry["t"]), name, value))
    return tokens_to_items(tokens)
