"""Observability substrate: in-process metrics and span/event tracing.

``repro.obs`` holds the runtime's two instrumentation surfaces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labelled counters, rendered as Prometheus text or as a JSON snapshot.
  ``repro campaign metrics`` fills a fresh registry from the store's
  summaries (:func:`repro.runtime.summary.campaign_metrics`); the
  process-global one keeps only a few live store and scheduler counters;
* :mod:`repro.obs.trace` — nested ``span("phase", k=...)`` context
  managers writing an append-only JSONL sidecar (``trace.jsonl``), with
  a process-global no-op default so instrumented hot paths cost ~nothing
  when tracing is off.

The hard invariant, asserted by the differential harnesses: nothing in
this package may perturb results — campaign digests are byte-identical
with observability on and off.  See ``docs/observability.md`` for the
metric catalog and the trace-event schema.
"""

from repro.obs.metrics import (
    REGISTRY,
    SNAPSHOT_VERSION,
    Counter,
    MetricFamily,
    MetricsRegistry,
    counter,
    format_value,
    get_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    RECORD_TYPES,
    TRACE_FILENAME,
    TRACE_VERSION,
    JsonlTracer,
    NullTracer,
    event,
    get_tracer,
    read_trace,
    set_tracer,
    span,
    tracing,
    tracing_enabled,
    validate_trace,
)

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "REGISTRY",
    "get_registry",
    "counter",
    "format_value",
    "SNAPSHOT_VERSION",
    "NullTracer",
    "JsonlTracer",
    "NULL_TRACER",
    "TRACE_FILENAME",
    "TRACE_VERSION",
    "RECORD_TYPES",
    "span",
    "event",
    "tracing",
    "tracing_enabled",
    "get_tracer",
    "set_tracer",
    "read_trace",
    "validate_trace",
]
