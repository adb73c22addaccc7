"""Observed cost-based optimization (section 9, future work).

"We are starting work on an observed cost-based approach to optimization
and tuning; the idea is to skip past 'old school' techniques that rely on
static cost models and difficult-to-obtain statistics, instead
instrumenting the system and basing its optimization decisions ... only on
actually observed data characteristics and data source behavior."

:class:`ObservedStatistics` is the one place the engine keeps what it has
observed, under one lock and one forgetting rate (:data:`DECAY`): per
**source**, an exponentially weighted least-squares fit of ``elapsed ≈
roundtrip + rows * per_row`` over every successful roundtrip (written in
the connection's per-attempt success path, so adaptive PP-k sizes a block
from a fit that already holds the previous one); per **plan fingerprint**,
the admission path's cost estimate next to per-operator exponentially
weighted actuals (written once per recorded request, as it ends).  Every
write and read is O(1) and every stored value immutable.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

from ..concurrency import RACE, TrackedRLock, guarded_by

#: the one forgetting rate: a source sample weighs ``1 - DECAY`` of the next
#: newer one, an operator's actuals move ``DECAY`` of the way to each new
#: trace.  0.2 (the admission controller's service-time smoothing): a regime
#: change shows within ~10 observations, one outlier moves a reading a fifth
DECAY = 0.2
_KEEP = 1.0 - DECAY

#: rows are counts, so two distinct row counts add at least their weight to
#: the weighted row variance; below this the evidence for a second count has
#: decayed away (~90 samples) and the slope is cancellation noise
_IDENTIFIED_VARIANCE = 1e-9


@dataclass(frozen=True)
class CostEstimate:
    """Fitted cost of one source: ``elapsed ≈ roundtrip + rows * per_row``.

    Not ``identified``: every sample shipped ``mean_rows`` rows, so the two
    cannot be told apart — ``roundtrip_ms`` is the mean elapsed at that row
    count and ``per_row_ms`` 0.0 by convention, *not* a measurement that
    rows are free."""

    roundtrip_ms: float
    per_row_ms: float
    samples: int
    mean_rows: float
    identified: bool = True


class OperatorEwma(NamedTuple):
    """Exponentially weighted actuals of one (plan fingerprint, operator
    id) pair; the first trace seeds the averages."""

    observations: int
    ewma_rows: float
    ewma_elapsed_ms: float
    ewma_roundtrips: float

    def to_dict(self) -> dict:
        return {name: round(value, 3)
                for name, value in self._asdict().items()}


@guarded_by("_lock")
class ObservedStatistics:
    """Per-source latency fits and per-plan operator actuals.

    Thread-safety (A-CONC): :meth:`record` is called from async-executor
    pool threads (the connection observer fires inside parallel branches),
    :meth:`observe` / :meth:`set_estimate` from request threads, the reads
    from compiling and PP-k threads — all under ``_lock``, for a few
    arithmetic operations and a dict store.  Stored values are immutable
    and replaced whole, so a read's result never changes under its holder."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._lock = TrackedRLock("ObservedStatistics")
        #: source -> (samples, weight, mean rows, mean ms, Sxx, Sxy): the
        #: fit's decayed moments, kept *centred* so that uniform row counts
        #: give an exact zero Sxx, not the residue of two large sums
        self._fits: dict[str, tuple] = {}
        #: fingerprint -> its ``estimate`` (admission cost, or None) and
        #: ``operators`` ({operator id: OperatorEwma}); the ``capacity`` most
        #: recently written are kept (LRU), so ad hoc traffic cannot grow it
        self._plans: "OrderedDict[str, SimpleNamespace]" = OrderedDict()
        self.traces_observed = 0

    # -- per-source roundtrips ---------------------------------------------

    def record(self, source: str, rows: int, elapsed_ms: float) -> None:
        """Fold one successful roundtrip into the source's fit."""
        with self._lock:
            fit = self._fits.get(source)
            if fit is None:
                fit = (1, 1.0, float(rows), float(elapsed_ms), 0.0, 0.0)
            else:
                n, weight, mean_rows, mean_ms, sxx, sxy = fit
                weight = weight * _KEEP + 1.0
                d_rows = rows - mean_rows
                mean_rows += d_rows / weight
                mean_ms += (elapsed_ms - mean_ms) / weight
                fit = (n + 1, weight, mean_rows, mean_ms,
                       sxx * _KEEP + d_rows * (rows - mean_rows),
                       sxy * _KEEP + d_rows * (elapsed_ms - mean_ms))
            self._fits[source] = fit
            RACE.detector.on_access(self, "_fits", True)

    def sources(self) -> list[str]:
        with self._lock:
            return sorted(self._fits)

    def clear(self) -> None:
        """Drop the per-source fits (after a latency-regime change: a
        decayed history still out-votes the first few new samples)."""
        with self._lock:
            self._fits.clear()
            RACE.detector.on_access(self, "_fits", True)

    def estimate(self, source: str) -> CostEstimate | None:
        """Weighted least-squares fit of elapsed = a + b * rows for one
        source, a sample of age ``i`` weighing ``(1 - DECAY) ** i``."""
        with self._lock:
            fit = self._fits.get(source)
        if fit is None:
            return None
        n, _weight, mean_rows, mean_ms, sxx, sxy = fit
        if sxx <= _IDENTIFIED_VARIANCE:
            return CostEstimate(mean_ms, 0.0, n, mean_rows, identified=False)
        per_row = max(sxy / sxx, 0.0)
        return CostEstimate(max(mean_ms - per_row * mean_rows, 0.0), per_row,
                            n, mean_rows)

    def recommend_ppk(self, source: str, k_min: int = 1, k_max: int = 200,
                      overhead_target: float = 0.5) -> int | None:
        """Block size at which the per-tuple roundtrip share drops below
        ``overhead_target`` of the per-tuple total.

        Per tuple, PP-k costs roundtrip/k + per_row; solving
        (roundtrip/k) / (roundtrip/k + per_row) <= target gives
        k >= roundtrip * (1 - target) / (target * per_row).
        High-latency sources get large blocks; cheap local sources do not
        need them.
        """
        estimate = self.estimate(source)
        if estimate is None or estimate.samples < 2:
            return None
        if estimate.per_row_ms <= 0:
            # pure-roundtrip source, or per-row not identified: for *this*
            # reader batching as much as possible is the safe side (costing
            # must not read the same fit as "rows are free": stats.latency)
            return k_max
        ideal = estimate.roundtrip_ms * (1 - overhead_target) / (
            overhead_target * estimate.per_row_ms
        )
        return max(k_min, min(k_max, math.ceil(ideal)))

    # -- per-plan operator actuals -------------------------------------------

    def _plan(self, fingerprint: str) -> SimpleNamespace:
        """The (touched) entry of ``fingerprint``."""
        with self._lock:
            plan = self._plans.get(fingerprint)
            if plan is None:
                plan = self._plans[fingerprint] = SimpleNamespace(
                    estimate=None, operators={})
                while len(self._plans) > self.capacity:
                    self._plans.popitem(last=False)
            else:
                self._plans.move_to_end(fingerprint)
            RACE.detector.on_access(self, "_plans", True)
            return plan

    def observe(self, fingerprint: str, aggregates: dict) -> None:
        """Fold one trace's per-operator actuals
        (:class:`~repro.observability.profile.OperatorActuals` by operator
        id) into the plan's averages."""
        if not aggregates:
            return
        with self._lock:
            self.traces_observed += 1
            operators = self._plan(fingerprint).operators
            for op_id, actuals in aggregates.items():
                new = (float(actuals.rows), float(actuals.elapsed_ms),
                       float(actuals.roundtrips))
                # an operator's first trace seeds its averages
                n, *old = operators.get(op_id) or (0, *new)
                operators[op_id] = OperatorEwma(n + 1, *(
                    was + DECAY * (now - was) for was, now in zip(old, new)))

    def set_estimate(self, fingerprint: str, cost: float) -> None:
        """Record the plan's static cost estimate (admission path)."""
        with self._lock:
            self._plan(fingerprint).estimate = cost

    def operators(self, fingerprint: str) -> dict[int, OperatorEwma]:
        """A copy of the plan's operator actuals (the values are immutable)."""
        with self._lock:
            plan = self._plans.get(fingerprint)
            return dict(plan.operators) if plan is not None else {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "traces_observed": self.traces_observed,
                "plans": {
                    fp: {
                        "estimate": plan.estimate,
                        "operators": {op_id: plan.operators[op_id].to_dict()
                                      for op_id in sorted(plan.operators)},
                    }
                    for fp, plan in sorted(self._plans.items())
                },
            }
