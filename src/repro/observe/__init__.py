"""``repro.observe`` — tracing, metrics, and profiling.

The subsystem the paper's evaluation section implies: one span record
for every compiler pass, VM run and request step, per-procedure VM
profiles that attribute the Table 3 / Figure 2 counters to code
objects, and exporters for Chrome ``trace_event`` JSON and flat
metrics JSON.

The default :data:`NULL_TRACER` is a no-op; hot paths guard on
``tracer.enabled`` (or ``profiler is None``) so observability costs
nothing when off.
"""

from repro.observe.export import chrome_trace, metrics_dict
from repro.observe.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    lint_openmetrics,
    load_snapshot,
    render_openmetrics,
)
from repro.observe.profile import ProcProfile, VMProfiler
from repro.observe.recorder import (
    FLIGHT_RECORDER,
    FlightRecorder,
    active_trace,
    get_flight_recorder,
    set_active_trace,
)
from repro.observe.reqtrace import (
    ReqTracer,
    RequestTrace,
    TailSampler,
    build_reqtracer,
    format_traceparent,
    parse_traceparent,
)
from repro.observe.spanstore import SpanStore
from repro.observe.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceError,
    Tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceError",
    "new_trace_id",
    "new_span_id",
    "ProcProfile",
    "VMProfiler",
    "chrome_trace",
    "metrics_dict",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "render_openmetrics",
    "lint_openmetrics",
    "load_snapshot",
    "FlightRecorder",
    "FLIGHT_RECORDER",
    "get_flight_recorder",
    "active_trace",
    "set_active_trace",
    "ReqTracer",
    "RequestTrace",
    "TailSampler",
    "SpanStore",
    "build_reqtracer",
    "format_traceparent",
    "parse_traceparent",
]
