"""End-to-end observability: metrics registry, span tracing, exporters.

See docs/OBSERVABILITY.md for the naming conventions and span taxonomy,
and ``python -m repro.obs report`` for the resource-attribution CLI.
"""

from repro.obs.export import (
    TraceSchemaError,
    chrome_trace,
    render_critical_path,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.observability import (
    MILESTONES,
    PHASES,
    Observability,
    PhaseBreakdown,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Meter,
    MetricNameError,
    MetricsRegistry,
)
from repro.obs.spans import Instant, Span, SpanTracer

__all__ = [
    "MILESTONES",
    "PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "Meter",
    "MetricNameError",
    "MetricsRegistry",
    "Observability",
    "PhaseBreakdown",
    "Span",
    "SpanTracer",
    "TraceSchemaError",
    "chrome_trace",
    "render_critical_path",
    "validate_chrome_trace",
    "write_chrome_trace",
]
