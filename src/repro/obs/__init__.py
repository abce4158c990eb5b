"""``repro.obs`` — metrics, tracing, and timing for the serving stack.

Three small modules, importable from anywhere in ``repro`` (this package
depends only on the standard library and :mod:`repro.stats`, so every
layer — ``runtime.locks`` included — can instrument itself without import
cycles):

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` with
  labeled ``Counter``/``Gauge``/``Histogram`` (log-spaced buckets,
  interpolated p50/p95/p99, O(1) memory), JSON + Prometheus export, and
  registry-backed views over the per-layer ``*Stats`` counters, merged
  by the same sum-or-max rule as ``CounterStats.merge``.
* :mod:`repro.obs.trace` — ``span()`` contexts with thread-local
  propagation onto fan-out pool threads, a bounded ``TraceRecorder``, and
  Chrome trace-event export.
* :mod:`repro.obs.timing` — the sanctioned clock (``now()``)
  enforced by the ``timing-discipline`` lint rule.

Metrics are on by default (env ``REPRO_OBS_METRICS=0`` to disable);
tracing is off by default (env ``REPRO_OBS_TRACE=1`` or
``configure(tracing=True)`` to enable).  Both switches reduce every
instrument to an attribute-read-and-return when off.
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure,
    counter,
    default_registry,
    gauge,
    histogram,
    log_buckets,
    metrics_enabled,
    observability,
    register_stats,
    tracing_enabled,
)
from .timing import now
from .trace import (
    Span,
    TraceRecorder,
    carry_current_span,
    chrome_trace,
    current_span,
    default_recorder,
    export_spans,
    import_spans,
    span,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceRecorder",
    "carry_current_span",
    "chrome_trace",
    "configure",
    "counter",
    "current_span",
    "default_recorder",
    "default_registry",
    "export_spans",
    "gauge",
    "import_spans",
    "histogram",
    "log_buckets",
    "metrics_enabled",
    "now",
    "observability",
    "register_stats",
    "span",
    "tracing_enabled",
]
