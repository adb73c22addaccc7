"""What flows between FLWOR clause operators: batches of binding tuples (P-BATCH).

The paper's runtime streams binding tuples through token iterators
(section 5.2); this runtime keeps that pull-based shape but moves a *batch*
of tuples per pull, amortizing Python's per-tuple dispatch the way Apache
VXQuery's frame-at-a-time execution does for XQuery.

A batch is a non-empty list of rows, and a row is one environment dict
(variable name -> bound sequence), the currency the expression evaluator
speaks.  Two facts about the rows reaching a pipeline stage are known when
the stages are built (``batchexec._stages``) rather than carried on the
batch:

* **owned** — the dicts were created by this pipeline (a ``for``, a join, a
  ``let``, a group-by upstream), so nothing else can hold them and a ``let``
  may bind into them *in place*.  Only the FLWOR's initial environment is
  the caller's, and is copied by the first clause that extends it.  At the
  root of a plan it is the request's bindings (``Platform.stream`` /
  ``call`` start on a copy of them), so an external variable or a lifted
  literal is read from the row like any tuple variable, and a tuple
  variable of the same name shadows it by overwrite;
* **mixed** — a group-by upstream may have emitted rows of different schemas
  (an outer binding survives a group only if all its members share it).
  Rows of one batch always share a schema, so downstream of a group-by a
  schema change closes the batch; elsewhere schemas cannot differ and are
  never looked at.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Env = dict
Batch = list


def batched(rows: Iterable[Env], size: int, mixed: bool) -> Iterator[Batch]:
    """Cut a row stream into batches of ``size``.  A batch goes downstream
    the moment it fills — not when the next row arrives — so no row is
    pulled from ``rows`` that the consumer has not asked for."""
    batch: Batch = []
    names = None
    for env in rows:
        if mixed:
            schema = tuple(env)
            if batch and schema != names:
                yield batch
                batch = []
            names = schema
        batch.append(env)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch
