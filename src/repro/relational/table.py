"""Tables, columns and constraints for the simulated relational engine."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..concurrency import RACE, TrackedRLock, guarded_by
from ..errors import SQLError

#: SQL type name -> (python check, xs: type for the XML-ification)
SQL_TO_XS = {
    "VARCHAR": "xs:string",
    "CHAR": "xs:string",
    "INTEGER": "xs:int",
    "BIGINT": "xs:long",
    "SMALLINT": "xs:short",
    "DECIMAL": "xs:decimal",
    "FLOAT": "xs:double",
    "DOUBLE": "xs:double",
    "BOOLEAN": "xs:boolean",
    "DATE": "xs:date",
    "TIMESTAMP": "xs:dateTime",
}


@dataclass(frozen=True)
class Column:
    name: str
    sql_type: str = "VARCHAR"
    nullable: bool = True

    @property
    def xs_type(self) -> str:
        return SQL_TO_XS.get(self.sql_type.upper(), "xs:string")

    def check(self, value) -> object:
        if value is None:
            if not self.nullable:
                raise SQLError(f"column {self.name} is NOT NULL")
            return None
        sql_type = self.sql_type.upper()
        if sql_type in ("INTEGER", "BIGINT", "SMALLINT"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SQLError(f"column {self.name}: expected integer, got {value!r}")
        elif sql_type in ("FLOAT", "DOUBLE", "DECIMAL"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SQLError(f"column {self.name}: expected number, got {value!r}")
        elif sql_type == "BOOLEAN":
            if not isinstance(value, bool):
                raise SQLError(f"column {self.name}: expected boolean, got {value!r}")
        elif sql_type in ("VARCHAR", "CHAR", "DATE", "TIMESTAMP"):
            if not isinstance(value, str):
                raise SQLError(f"column {self.name}: expected string, got {value!r}")
        return value


@dataclass(frozen=True)
class ForeignKey:
    """``columns`` of this table reference ``ref_columns`` of ``ref_table``.

    Introspection (section 2.1) turns these into navigation functions that
    encapsulate the join path."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@guarded_by("_lock")
class Table:
    """An in-memory table with primary-key enforcement, hash indexes the
    executor probes for ``col = constant`` predicates and point lookups, and
    ordered indexes it probes for ``lo <= col < hi`` ranges.

    A hash index (:class:`_HashIndex`) maps the key of ``columns`` to the
    ascending positions of the rows holding it; a key with a NULL in it is
    never entered.  An ordered index (:class:`_OrderedIndex`) is the
    column's comparable values, sorted, beside the positions holding them.
    Either is built on the first probe of its columns — the primary key's
    on the first insert — kept current by :meth:`insert` and
    :meth:`update_at`, and dropped by whatever shifts row positions
    (:meth:`delete_at`, :meth:`restore`).  ``_lock`` makes a probe see rows
    and index of one moment; full scans read ``rows`` without it, as they
    always have.

    Stored rows are copy-on-write: :meth:`update_at` puts a new dict in the
    old one's place, :meth:`insert` appends one, and nothing changes a
    stored row in place.  So a row handed out stays as it was read, and a
    copy of the row *list* (:meth:`undo_image`) is a faithful image of the
    table; :meth:`snapshot` copies the rows too, for a caller that means to
    change them.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ):
        self.name = name
        self.columns = list(columns)
        self._column_index = {c.name: c for c in self.columns}
        if len(self._column_index) != len(self.columns):
            raise SQLError(f"table {name}: duplicate column names")
        for key_col in primary_key:
            if key_col not in self._column_index:
                raise SQLError(f"table {name}: primary key column {key_col} not found")
        self.primary_key = tuple(primary_key)
        self.foreign_keys = list(foreign_keys)
        self.rows: list[dict] = []
        self._lock = TrackedRLock(f"Table.{name}")
        self._indexes: dict[tuple[str, ...], _HashIndex] = {}
        self._ordered: dict[str, _OrderedIndex] = {}

    # -- schema ---------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._column_index[name]
        except KeyError:
            raise SQLError(f"table {self.name}: no column {name}") from None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._column_index

    # -- indexes --------------------------------------------------------------

    def _index(self, columns: tuple[str, ...]) -> "_HashIndex":  # caller-holds: _lock
        index = self._indexes.get(columns)
        if index is None:
            index = _HashIndex()
            for position, row in enumerate(self.rows):
                index.add(_index_key(row, columns), position)
            self._indexes[columns] = index
            RACE.detector.on_access(self, "_indexes", True)
        return index

    def probe(self, column: str, values: Sequence) -> list[tuple[int, dict]]:
        """``(position, row)`` of the rows whose ``column`` equals one of
        ``values``, in table order.  A NULL value matches nothing."""
        with self._lock:
            index = self._index((column,))
            RACE.detector.on_access(self, "_indexes", False)
            positions = [
                position
                for value in dict.fromkeys(values)
                for position in index.positions(value)
            ]
            if len(values) > 1:
                positions.sort()
            rows = self.rows
            return [(position, rows[position]) for position in positions]

    def probe_range(self, column: str, bounds: Sequence[tuple[str, object]]
                    ) -> list[tuple[int, dict]]:
        """``(position, row)`` of the rows whose ``column`` satisfies every
        ``(op, value)`` of ``bounds`` (``op`` one of ``< <= > >=``, read as
        ``column op value``), in table order.  A NULL bound matches nothing.
        A bound the column's values cannot be ordered against (a string
        for numbers) narrows nothing: every row comes back, and the
        comparison fails on them exactly as it does on a full scan."""
        with self._lock:
            index = self._ordered.get(column)
            if index is None:
                index = self._ordered[column] = _OrderedIndex(self.rows, column)
                RACE.detector.on_access(self, "_ordered", True)
            RACE.detector.on_access(self, "_ordered", False)
            rows = self.rows
            positions = index.between(bounds)
            if positions is None:
                return list(enumerate(rows))
            return [(position, rows[position]) for position in positions]

    def lookup_pk(self, key: tuple) -> dict | None:
        with self._lock:
            if len(key) == 1:
                key = key[0]
            positions = self._index(self.primary_key).positions(key)
            return self.rows[positions[0]] if positions else None

    # -- data -----------------------------------------------------------------

    def insert(self, values: dict) -> dict:
        row = {}
        for column in self.columns:
            row[column.name] = column.check(values.get(column.name))
        unknown = set(values) - set(self._column_index)
        if unknown:
            raise SQLError(f"table {self.name}: unknown columns {sorted(unknown)}")
        with self._lock:
            if self.primary_key:
                pk = _index_key(row, self.primary_key)
                if pk is None:
                    raise SQLError(f"table {self.name}: NULL in primary key")
                if pk in self._index(self.primary_key):
                    raise SQLError(f"table {self.name}: duplicate primary key {pk}")
            position = len(self.rows)
            self.rows.append(row)
            for columns, index in self._indexes.items():
                index.add(_index_key(row, columns), position)
            for column, ordered in self._ordered.items():
                ordered.add(row[column], position)
            RACE.detector.on_access(self, "_indexes", True)
            RACE.detector.on_access(self, "_ordered", True)
        return row

    def delete_at(self, index: int) -> dict:
        with self._lock:
            row = self.rows.pop(index)
            self._drop_indexes()
        return row

    def _drop_indexes(self) -> None:  # caller-holds: _lock
        """Row positions moved: every index is rebuilt on its next probe."""
        self._indexes = {}
        self._ordered = {}
        RACE.detector.on_access(self, "_indexes", True)
        RACE.detector.on_access(self, "_ordered", True)

    def update_at(self, index: int, changes: dict) -> dict:
        with self._lock:
            old = self.rows[index]
            row = dict(old)
            for name, value in changes.items():
                row[name] = self.column(name).check(value)
            if self.primary_key:
                pk = _index_key(row, self.primary_key)
                if pk != _index_key(old, self.primary_key) \
                        and pk in self._index(self.primary_key):
                    raise SQLError(f"table {self.name}: duplicate primary key {pk}")
            self.rows[index] = row
            for columns, positions_of in self._indexes.items():
                before, after = _index_key(old, columns), _index_key(row, columns)
                if before != after:
                    positions_of.discard(before, index)
                    positions_of.add(after, index)
            for column, ordered in self._ordered.items():
                if old[column] != row[column]:
                    ordered.discard(old[column], index)
                    ordered.add(row[column], index)
            RACE.detector.on_access(self, "_indexes", True)
            RACE.detector.on_access(self, "_ordered", True)
        return row

    def snapshot(self) -> list[dict]:
        """Copies of the rows, the caller's to change."""
        with self._lock:
            return [dict(row) for row in self.rows]

    def undo_image(self) -> list[dict]:
        """A copy of the row list, sharing the rows: what a transaction
        restores on rollback.  Faithful because rows are copy-on-write."""
        with self._lock:
            return list(self.rows)

    def restore(self, rows: Iterable[dict]) -> None:
        with self._lock:
            self.rows = [dict(row) for row in rows]
            self._drop_indexes()

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self.rows)} rows)"


def _index_key(row: dict, columns: tuple[str, ...]):
    """The index key of ``row``: the value of a single column, a tuple for
    more; None when any key column is NULL."""
    if len(columns) == 1:
        return row[columns[0]]
    key = tuple(row[c] for c in columns)
    return None if None in key else key


class _HashIndex(dict):
    """Index key -> ascending positions of the rows holding it.  A key held
    by one row maps to the bare position: most keys are unique, and a list
    apiece would weigh more than the keys.  The NULL key holds nothing."""

    def add(self, key, position: int) -> None:
        if key is None:
            return
        held = self.get(key)
        if held is None:
            self[key] = position
        elif isinstance(held, list):
            insort(held, position)
        else:
            self[key] = sorted((held, position))

    def discard(self, key, position: int) -> None:
        held = self.get(key)
        if isinstance(held, list) and len(held) > 1:
            held.remove(position)
        elif held is not None:
            del self[key]

    def positions(self, key) -> Sequence[int]:
        held = self.get(key, ())
        return held if isinstance(held, (list, tuple)) else (held,)


class _OrderedIndex:
    """One column's values in ascending order (``values``) beside the
    positions of the rows holding them (``positions``, ascending within a
    run of equal values).  NULL is not entered, nor is NaN: neither
    satisfies any bound, and NaN would break the order."""

    __slots__ = ("values", "positions")

    def __init__(self, rows: list[dict], column: str):
        entries = sorted((value, position) for position, row in enumerate(rows)
                         if (value := row[column]) is not None and value == value)
        self.values = [value for value, _position in entries]
        self.positions = [position for _value, position in entries]

    def _slot(self, value, position: int) -> int:
        """Where ``(value, position)`` is, or belongs."""
        values = self.values
        return bisect_left(self.positions, position,
                           bisect_left(values, value), bisect_right(values, value))

    def add(self, value, position: int) -> None:
        if value is not None and value == value:
            slot = self._slot(value, position)
            self.values.insert(slot, value)
            self.positions.insert(slot, position)

    def discard(self, value, position: int) -> None:
        if value is not None and value == value:
            slot = self._slot(value, position)
            del self.values[slot]
            del self.positions[slot]

    def between(self, bounds: Sequence[tuple[str, object]]) -> list[int] | None:
        """Ascending positions of the values inside every bound; None when
        a bound cannot be ordered against the values."""
        values = self.values
        if not values:
            return []
        text = isinstance(values[0], str)
        if any(isinstance(bound, str) != text for _op, bound in bounds if bound is not None):
            return None
        lo, hi = 0, len(values)
        for op, bound in bounds:
            if bound is None:
                return []
            if op == ">=":
                lo = max(lo, bisect_left(values, bound))
            elif op == ">":
                lo = max(lo, bisect_right(values, bound))
            elif op == "<":
                hi = min(hi, bisect_left(values, bound))
            else:
                hi = min(hi, bisect_right(values, bound))
        return sorted(self.positions[lo:hi])
