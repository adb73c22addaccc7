"""``explain analyze``: the plan render annotated with observed actuals.

``Platform.profile(query)`` executes the query as a request whose
recording is forced, reads that request's own
:class:`~repro.observability.tracer.QueryTracer` back and re-renders
the compiled plan through :func:`repro.compiler.explain.explain`, passing
an annotator that joins the span tree back to the plan by **operator id**
— the stable pre-order ids the compiler stamps on operator nodes
(:func:`repro.compiler.explain.assign_operator_ids`), recorded as the
``op`` attribute on each operator's spans.

Events below an operator span (source roundtrips, retry attempts, breaker
rejections, cache lookups) are attributed to the *nearest enclosing*
operator, so a PP-k clause's retries do not leak into the region that
happens to surround it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tracer import QueryTracer, Span


@dataclass
class OperatorActuals:
    """Aggregated observations for one plan operator."""

    spans: int = 0
    elapsed_ms: float = 0.0
    #: kind -> [span count, summed elapsed] (e.g. PP-k fetch vs join)
    by_kind: dict = field(default_factory=dict)
    rows: int = 0
    roundtrips: int = 0
    retries: int = 0
    breaker_rejections: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    degraded: int = 0
    #: summed numeric facts reported by the operator (groups, index size...)
    facts: dict = field(default_factory=dict)


#: span attrs that aggregate into ``facts`` when present
_FACT_ATTRS = ("groups", "tuples", "index_size", "blocks", "branches", "k")


def aggregate_operators(roots: list[Span]) -> dict[int, OperatorActuals]:
    """Fold a span forest into per-operator actuals keyed by operator id."""
    out: dict[int, OperatorActuals] = {}
    for root in roots:
        _fold(root, None, out)
    return out


def _fold(span: Span, enclosing: int | None, out: dict[int, OperatorActuals]) -> None:
    op = span.attrs.get("op")
    if op is not None:
        acts = out.setdefault(op, OperatorActuals())
        acts.spans += 1
        acts.elapsed_ms += span.elapsed_ms
        entry = acts.by_kind.setdefault(span.kind, [0, 0.0])
        entry[0] += 1
        entry[1] += span.elapsed_ms
        acts.rows += span.attrs.get("rows", 0)
        if span.attrs.get("degraded"):
            acts.degraded += 1  # race-ok: OperatorActuals is a snapshot-time local accumulator
        if span.attrs.get("hit") is True:
            acts.cache_hits += 1
        elif span.attrs.get("hit") is False:
            acts.cache_misses += 1
        for fact in _FACT_ATTRS:
            value = span.attrs.get(fact)
            if isinstance(value, (int, float)):
                acts.facts[fact] = acts.facts.get(fact, 0) + value
        enclosing = op
    elif enclosing is not None:
        acts = out[enclosing]
        if span.kind == "source.roundtrip":
            acts.roundtrips += 1  # race-ok: OperatorActuals is a snapshot-time local accumulator
        elif span.kind == "source.attempt" and span.attrs.get("attempt", 1) > 1:
            acts.retries += 1  # race-ok: OperatorActuals is a snapshot-time local accumulator
        elif span.kind == "breaker.rejected":
            acts.breaker_rejections += 1
    for child in span.children:
        _fold(child, enclosing, out)


def format_actuals(op: int, acts: OperatorActuals | None,
                   est_rows: float | None = None) -> str:
    """The ``[actual: ...]`` suffix for one plan line.  When the costing
    pass stamped an estimate, it renders next to the actual
    (``est_rows=… act_rows=…``) so estimate/actual divergence is visible
    in place; plans without stamps render exactly as before."""
    if acts is None:
        return f"  [#{op} actual: not executed]"
    parts = [f"{acts.spans} span(s)", f"{acts.elapsed_ms:.3f}ms"]
    if est_rows is not None:
        parts.append(f"est_rows={est_rows:.0f}")
        parts.append(f"act_rows={acts.rows}")
    elif acts.rows:
        parts.append(f"rows={acts.rows}")
    if acts.roundtrips:
        parts.append(f"roundtrips={acts.roundtrips}")
    if acts.retries:
        parts.append(f"retries={acts.retries}")
    if acts.breaker_rejections:
        parts.append(f"breaker_rejected={acts.breaker_rejections}")
    if acts.cache_hits or acts.cache_misses:
        parts.append(f"cache={acts.cache_hits}/{acts.cache_hits + acts.cache_misses}")
    if acts.degraded:
        parts.append(f"degraded={acts.degraded}")
    for fact, value in sorted(acts.facts.items()):
        parts.append(f"{fact}={value:g}")
    if len(acts.by_kind) > 1:
        breakdown = " ".join(
            f"{kind}:{count}x/{elapsed:.3f}ms"
            for kind, (count, elapsed) in sorted(acts.by_kind.items())
        )
        parts.append(f"({breakdown})")
    return f"  [#{op} actual: {', '.join(parts)}]"


def make_annotator(aggregates: dict[int, OperatorActuals]):
    """An ``annotate(node)`` callback for :func:`repro.compiler.explain.explain`."""
    from ..compiler.algebra import Costed, SourceCall
    from ..xquery import ast_nodes as ast

    def annotate(node) -> str:
        op = node.op_id
        if op is None:
            return ""
        acts = aggregates.get(op)
        if acts is None and isinstance(node, ast.FunctionCall) \
                and not isinstance(node, SourceCall):
            # A plain user call leaves no spans unless cached/async — an
            # absent aggregate is not evidence it never ran.
            return ""
        rows = node.est_rows if isinstance(node, Costed) else None
        return format_actuals(op, acts, rows)

    return annotate


@dataclass
class QueryProfile:
    """The result of ``Platform.profile``: the annotated plan render plus
    the raw trace for programmatic inspection."""

    text: str
    root: Span | None
    tracer: QueryTracer
    items: int
    elapsed_ms: float
    aggregates: dict[int, OperatorActuals]
    #: rows-per-batch by operator label (P-BATCH) — kept out of ``text``
    #: so the rendered plan stays byte-identical across batch sizes
    batches: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def profile_render(plan_expr, tracer: QueryTracer) -> tuple[str, dict[int, OperatorActuals]]:
    """Render ``plan_expr`` annotated with the tracer's recorded actuals."""
    from ..compiler.explain import explain

    aggregates = aggregate_operators(tracer.roots)
    text = explain(plan_expr, annotate=make_annotator(aggregates))
    return text, aggregates
