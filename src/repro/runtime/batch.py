"""What flows between FLWOR clause operators: batches of binding tuples (P-BATCH).

The paper's runtime streams binding tuples through token iterators
(section 5.2); this runtime keeps that pull-based shape but moves a *batch*
of tuples per pull, amortizing Python's per-tuple dispatch the way Apache
VXQuery's frame-at-a-time execution does for XQuery.

A :class:`Batch` is a non-empty run of tuples held as **carried columns**
beside the parent rows they extend, the way section 5.1's Figure 4 keeps a
tuple of single-token fields as an array, and as Grust et al.'s loop-lifted
``iter | pos | item`` tables do: a variable is a column of the batch, not a
key in a per-tuple dict.

* ``bases`` — per tuple, the row (an environment dict: variable name ->
  bound sequence) it extends, shared by reference: the tuples a ``for``
  makes from one row all hold that row;
* ``columns`` — ``{var: (type_name, values)}``, one value per tuple: a raw
  Python value of the atomic type ``type_name`` (a range ``for``'s
  integers, a ``let`` the column lane answered), or, for ``type_name``
  None, the item itself (an index join's inner item);
* ``rows`` — built the first time something needs a row, at most once:
  ``dict(base)`` plus ``[AtomicValue(value, type_name)]`` (or ``[item]``)
  per column, in column order — the very dicts, keys in the very order, a
  row-at-a-time ``for`` or ``let`` would have made.  The batch then holds
  its rows as its bases and no column.

A batch with no columns is a plain row batch.  One fact about the rows
reaching a pipeline stage is known when the stages are built
(``batchexec._stages``) rather than carried on the batch:

* **owned** — a plain batch's dicts were created by this pipeline (a
  ``for``, a join, a ``let``, a group-by upstream), so nothing else can
  hold them and a ``let`` may bind into them *in place*.  Only the FLWOR's
  initial environment is the caller's, and is copied by the first clause
  that extends it row by row.  At the root of a plan it is the request's
  bindings (``Platform.stream`` / ``call`` start on a copy of them), so an
  external variable or a lifted literal is read from the row like any
  tuple variable, and a tuple variable of the same name shadows it by
  overwrite.  Rows built from columns are always the pipeline's own.

Every row of a stage binds the same names — the FLWOR's entry scope plus
what the clauses before it bound, and after a group-by the entry scope
plus the group's variables (``xquery.scope``): the rows of a stage share
one schema, and a batch is cut only where it fills.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from ..xml.items import AtomicValue

Env = dict


#: the columns of a plain row batch (shared: a batch's columns are replaced, never changed)
_NO_COLUMNS: dict = {}


class Batch:
    """Parent rows, the columns carried beside them, and the rows built
    from the two on demand (this module's docstring).

    ``rows`` is a plain attribute once the rows exist — a plain batch's are
    its bases — so reading it costs no call; a batch with columns has none
    until the first read, which ``__getattr__`` answers by building them."""

    __slots__ = ("bases", "columns", "rows")

    def __init__(self, bases: list[Env], columns: dict | None = None):
        self.bases = bases
        if columns:
            self.columns = columns
        else:
            self.columns = _NO_COLUMNS
            self.rows = bases

    def __getattr__(self, name: str) -> list[Env]:
        if name != "rows":
            raise AttributeError(name)
        rows = materialise(self.bases, self.columns)
        self.bases = self.rows = rows
        self.columns = _NO_COLUMNS
        return rows

    def __len__(self) -> int:
        return len(self.bases)

    def with_column(self, var: str, type_name: str | None, values) -> Batch:
        """The batch with ``var`` bound, per tuple, to ``values``."""
        return Batch(self.bases, {**self.columns, var: (type_name, values)})

    def select(self, mask) -> Batch:
        """The tuples whose ``mask`` value is true, in order."""
        mask = list(mask)
        return Batch(list(compress(self.bases, mask)),
                     {var: (type_name, list(compress(values, mask)))
                      for var, (type_name, values) in self.columns.items()})

    def slice(self, start: int, stop: int) -> Batch:
        return Batch(self.bases[start:stop],
                     {var: (type_name, values[start:stop])
                      for var, (type_name, values) in self.columns.items()})


def materialise(bases: list[Env], columns: dict) -> list[Env]:
    """One row per tuple: a copy of its base with every column bound."""
    rows = list(map(dict, bases))
    for var, (type_name, values) in columns.items():
        if type_name is None:
            for row, item in zip(rows, values):
                row[var] = [item]
        else:
            for row, value in zip(rows, values):
                row[var] = [AtomicValue(value, type_name)]
    return rows


def batched(rows: Iterable[Env], size: int) -> Iterator[Batch]:
    """Cut a row stream into batches of ``size``.  A batch goes downstream
    the moment it fills — not when the next row arrives — so no row is
    pulled from ``rows`` that the consumer has not asked for."""
    batch: list[Env] = []
    for env in rows:
        batch.append(env)
        if len(batch) == size:
            yield Batch(batch)
            batch = []
    if batch:
        yield Batch(batch)
