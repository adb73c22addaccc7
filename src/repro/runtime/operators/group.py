"""Grouping operators (sections 4.2 and 5.2).

"The ALDSP runtime has just one implementation of the grouping operator
[which] relies on input that is pre-clustered with respect to the grouping
expression(s).  Its job is thus to simply form groups while watching for
the grouping expression(s) to change ... If the input would not otherwise
be clustered, a sort operator is used to provide the required clustering."

Both paths are streaming generators; :class:`GroupStats` records the peak
number of tuples resident in the operator, making the constant-memory
property of the clustered path observable (the streaming-group benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from ...concurrency import SyncCounters

T = TypeVar("T")
Key = tuple


@dataclass
class GroupStats(SyncCounters):
    peak_resident: int = 0
    groups_emitted: int = 0

    def __post_init__(self) -> None:
        self._init_lock("GroupStats")

    def observe(self, resident: int) -> None:
        with self._lock:
            if resident > self.peak_resident:
                self.peak_resident = resident


def clustered_groups(
    stream: Iterable[T],
    key_of: Callable[[T], Key],
    stats: GroupStats | None = None,
) -> Iterator[tuple[Key, list[T]]]:
    """Form groups from pre-clustered input: one group is resident at a
    time (constant memory in the number of groups).

    Residency is recorded once per *group*, not once per appended tuple:
    the running maximum over a group's appends equals its final length,
    so ``peak_resident`` is the same while the locked observe is
    O(groups) instead of O(tuples)."""
    current_key: Key | None = None
    current: list[T] = []
    started = False
    for item in stream:
        key = key_of(item)
        if started and key != current_key:
            if stats is not None:
                stats.observe(len(current))
                stats.bump(groups_emitted=1)
            yield current_key, current  # type: ignore[misc]
            current = []
        current_key = key
        current.append(item)
        started = True
    if started:
        if stats is not None:
            stats.observe(len(current))
            stats.bump(groups_emitted=1)
        yield current_key, current  # type: ignore[misc]


def sorted_groups(
    stream: Iterable[T],
    key_of: Callable[[T], Key],
    stats: GroupStats | None = None,
) -> Iterator[tuple[Key, list[T]]]:
    """The fallback: sort to provide clustering, then stream groups.

    The sort necessarily materializes the input, which is exactly the
    memory cost the optimizer tries to avoid by choosing pre-clustered
    plans (section 4.2).
    """
    materialized = list(stream)
    if stats is not None:
        stats.observe(len(materialized))
    materialized.sort(key=lambda item: _orderable(key_of(item)))
    yield from clustered_groups(materialized, key_of, stats)


def _orderable(key: Key) -> tuple:
    """Make mixed-type/None keys sortable deterministically."""
    normalized = []
    for part in key:
        if part is None:
            normalized.append((0, ""))
        elif isinstance(part, bool):
            normalized.append((1, str(part)))
        elif isinstance(part, (int, float)):
            normalized.append((2, part))
        else:
            normalized.append((3, str(part)))
    return tuple(normalized)
