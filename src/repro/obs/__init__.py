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
