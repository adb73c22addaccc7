"""Observability plane (O-OBS): query tracing, operator profiling, the
unified metrics registry with its rolling window, and the continuous
production plane (O-CONT: sampled tracing, flight recorder, plan
stats).  See DESIGN.md sections O-OBS and O-CONT."""

from .continuous import (
    TRACE_ALL,
    ContinuousConfig,
    ContinuousTracer,
    FlightRecord,
    FlightRecorder,
    TraceSampler,
    plan_fingerprint,
)
from .export import (
    chrome_trace,
    chrome_trace_json,
    render_metrics,
    render_span_tree,
    render_window,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedCounter,
    WindowedHistogram,
    nearest_rank,
    series_name,
)
from .profile import (
    OperatorActuals,
    QueryProfile,
    aggregate_operators,
    make_annotator,
    profile_render,
)
from .tracer import NOOP_SPAN, QueryTracer, Request, Span

__all__ = [
    "NOOP_SPAN",
    "TRACE_ALL",
    "ContinuousConfig",
    "ContinuousTracer",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorActuals",
    "QueryProfile",
    "QueryTracer",
    "Request",
    "Span",
    "TraceSampler",
    "WindowedCounter",
    "WindowedHistogram",
    "aggregate_operators",
    "chrome_trace",
    "chrome_trace_json",
    "make_annotator",
    "nearest_rank",
    "plan_fingerprint",
    "profile_render",
    "render_metrics",
    "render_span_tree",
    "render_window",
    "series_name",
]
