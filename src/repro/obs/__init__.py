"""``repro.obs`` — end-to-end observability: tracing, metrics, reports.

The subsystem every future performance PR measures against.  Four
pieces, all zero-dependency:

* **Tracing core** (:mod:`~repro.obs.span`, :mod:`~repro.obs.tracer`) —
  hierarchical spans with a context-manager/decorator API, monotonic
  timestamps and a thread-safe in-memory collector.  Disabled tracing
  degrades to a stateless null sink: one attribute lookup per event,
  zero allocations.
* **Metrics** (:mod:`~repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms with bracketed percentile estimates, plus the
  :mod:`~repro.obs.bridge` feeding existing accounting
  (``LinkStats``, ``ResourceReport``, ``PhaseTimings``) into a registry.
* **Exporters** (:mod:`~repro.obs.export`) — JSONL span dumps, Chrome
  ``trace_event`` JSON for ``about://tracing``, and a console tree.
* **RunReport** (:mod:`~repro.obs.report`) — spans + metrics + config
  fingerprint bundled into one machine-readable JSON artifact,
  consumed by ``repro report`` and emitted by the bench runner.

Span taxonomy, metric names and the RunReport schema are documented in
``docs/OBSERVABILITY.md``.
"""

from .export import (
    read_jsonl,
    render_span_tree,
    span_from_dict,
    span_to_dict,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from .report import RunReport, config_fingerprint
from .span import NULL_SINK, NullCollector, Span, SpanCollector
from .tracer import NULL_SPAN, TRACER, Tracer, traced

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SINK",
    "NULL_SPAN",
    "NullCollector",
    "RunReport",
    "Span",
    "SpanCollector",
    "TRACER",
    "Tracer",
    "config_fingerprint",
    "exponential_buckets",
    "read_jsonl",
    "render_span_tree",
    "span_from_dict",
    "span_to_dict",
    "to_chrome_trace",
    "traced",
    "write_chrome_trace",
    "write_jsonl",
]
