"""``repro.telemetry`` — replay instrumentation, free when disabled.

Public surface:

* :func:`get_registry`, :func:`telemetry_enabled`, :func:`set_enabled`,
  :func:`enabled_telemetry` — the process-wide switchboard;
* :class:`MetricsRegistry` with :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` (fixed buckets), :class:`Timer` (wall clock);
* :class:`SpanRecorder` / :class:`Span` — bounded pipeline tracing;
* exporters: :func:`to_jsonl`, :func:`to_prometheus`,
  :func:`write_jsonl`, :func:`format_table`.

Enable for a process with ``TRACER_TELEMETRY=1`` (the CI telemetry
matrix job does exactly this) or for a scope with
:func:`enabled_telemetry`.  Replay instruments are recorded once per
replay, after it finishes (:mod:`repro.replay.instruments`), so the
flag never changes which engine runs.
"""

from .dtrace import (
    DTRACE_ENV,
    SpanHandle,
    TraceContext,
    build_tree,
    new_trace_id,
    render_tree,
    tracing_scope,
)
from .exporters import format_table, to_jsonl, to_prometheus, write_jsonl
from .flightrec import (
    DEFAULT_CAPACITY,
    FLIGHTREC_ENV,
    FlightEvent,
    FlightRecorder,
    arm_autodump,
    autodump,
    autodump_armed,
    get_flight_recorder,
    install_excepthook,
)
from .registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    TELEMETRY_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    Timer,
    enabled_telemetry,
    get_registry,
    set_enabled,
    telemetry_enabled,
)
from .stream import (
    TELEMETRY_INTERVAL_ENV,
    IntervalFrame,
    IntervalRecorder,
    default_interval,
    frames_to_jsonl,
    resolve_interval,
    write_frames_jsonl,
)
from .spans import (
    DEFAULT_MAX_SPANS,
    SPAN_DISPATCH,
    SPAN_FAULT,
    SPAN_QUEUE,
    SPAN_SERVICE,
    SPAN_STAGE,
    Span,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "IntervalFrame",
    "IntervalRecorder",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "TelemetryError",
    "Timer",
    "SpanHandle",
    "TraceContext",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_SPANS",
    "DTRACE_ENV",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FLIGHTREC_ENV",
    "TELEMETRY_ENV",
    "TELEMETRY_INTERVAL_ENV",
    "SPAN_DISPATCH",
    "SPAN_FAULT",
    "SPAN_QUEUE",
    "SPAN_SERVICE",
    "SPAN_STAGE",
    "arm_autodump",
    "autodump",
    "autodump_armed",
    "build_tree",
    "default_interval",
    "enabled_telemetry",
    "format_table",
    "frames_to_jsonl",
    "get_flight_recorder",
    "get_registry",
    "install_excepthook",
    "new_trace_id",
    "render_tree",
    "resolve_interval",
    "set_enabled",
    "telemetry_enabled",
    "to_jsonl",
    "to_prometheus",
    "tracing_scope",
    "write_frames_jsonl",
    "write_jsonl",
]
