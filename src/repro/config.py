"""The engine configuration: every scalar setting of one server as one
frozen, validated value.

A :class:`~repro.services.platform.Platform` holds exactly one
:class:`EngineConfig`; ``Platform.configure(**changes)`` builds the next
one with :func:`dataclasses.replace` (which re-runs the validation, so a
rejected change applies nothing) and installs it in one assignment: the
compiler's ``options.config`` and the runtime's ``ctx.config`` are the
same object.  A field declared with :func:`_shapes_plans` is read by
the compiler, so changing it invalidates every cached plan; every other
field is read as queries run.  What is *not* here, and why, is in
DESIGN.md "Configuration".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .observability.continuous import ContinuousConfig

#: PP-k's static block size: "ALDSP uses a medium-sized k value (20) that
#: has been empirically shown to work well" (section 4.2)
DEFAULT_PPK_BLOCK_SIZE = 20
#: rows one pull moves through the FLWOR pipeline; 1 is a batch of one —
#: the same pipeline at its laziest, not another runtime
DEFAULT_BATCH_SIZE = 256
#: the join repertoire the costing pass chooses from (and can be forced to)
STRATEGIES = ("ppk", "index-join", "ship-all")


def _shapes_plans(default):
    return field(default=default, metadata={"shapes_plans": True})


@dataclass(frozen=True)
class EngineConfig:
    # -- compile time: these shape compiled plans ---------------------------

    #: push SQL to the sources (off: every table access is a full scan and
    #: all filtering and joining happens in the middleware)
    pushdown: bool = _shapes_plans(True)
    #: PP-k's static block size (the adaptive loop's cold-start value)
    ppk_block_size: int = _shapes_plans(DEFAULT_PPK_BLOCK_SIZE)
    #: push same-database clause runs as one SQL join
    clause_join_pushdown: bool = _shapes_plans(True)
    #: hoist correlated sub-FLWORs into PP-k lets (off: the correlated
    #: access runs per outer tuple in the middleware)
    hoist_correlated: bool = _shapes_plans(True)
    #: ask pushed scans for ORDER BY when a downstream FLWGOR groups on
    #: their columns (off: the middleware group-by sorts)
    request_clustering: bool = _shapes_plans(True)
    #: pin every convertible join region to one strategy instead of the
    #: costed choice (ablation; ``"ppk"`` is the fixed heuristics' plan)
    force_strategy: str | None = _shapes_plans(None)

    # -- run time: read as queries run -----------------------------------

    #: rows one pull moves through the FLWOR pipeline (results are the
    #: same at every size; it trades time to first item for dispatch)
    batch_size: int = DEFAULT_BATCH_SIZE
    #: prefetch PP-k block N+1 while block N joins (section 5.4 overlap)
    ppk_pipelining: bool = True
    #: PP-k block fetches in flight while the pending window joins;
    #: clamped to ``async_workers`` at execution
    ppk_prefetch_window: int = 1
    #: re-size each PP-k block from observed source behaviour
    adaptive_ppk: bool = False
    #: scatter-execute compiler-stamped independent let-bound regions
    parallel_regions: bool = True
    #: the async executor's worker pool size
    async_workers: int = 8
    #: the per-database prepared-statement caches
    statement_cache: bool = True
    #: re-plan mid-query when observed cardinality diverges from the
    #: estimate by more than this factor (None: never)
    replan_threshold: float | None = None
    #: a source failure that survives its retry budget degrades to an
    #: empty sequence instead of failing the query
    partial_results: bool = False
    #: off: installing a tracing policy and ``profile`` fail with ALDSP-E501
    tracing_allowed: bool = True
    #: the engine tracer's sampling and retention policy (None: off)
    continuous: ContinuousConfig | None = None

    def __post_init__(self) -> None:
        for name in ("ppk_block_size", "ppk_prefetch_window", "batch_size",
                     "async_workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.replan_threshold is not None and self.replan_threshold <= 1.0:
            raise ValueError("replan_threshold must be > 1.0 (or None)")
        if self.force_strategy is not None and self.force_strategy not in STRATEGIES:
            raise ValueError(f"force_strategy must be one of {STRATEGIES} or "
                             f"None, got {self.force_strategy!r}")


#: the fields whose value shapes compiled plans: changing one invalidates them
COMPILE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(EngineConfig) if f.metadata.get("shapes_plans"))
