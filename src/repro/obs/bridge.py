"""Bridges from existing accounting into a :class:`MetricsRegistry`.

The codebase already keeps careful books — per-link ``LinkStats``,
per-enclave ``ResourceReport``, per-phase ``PhaseTimings`` — but every
bench re-aggregated them by hand.  These functions translate each of
those into metric names once, so the RunReport (and anything else
reading the registry) sees one coherent namespace.  The name ↔ paper
table/figure mapping lives in ``docs/OBSERVABILITY.md``.

Imports of the instrumented layers happen inside the functions: the
``obs`` package stays import-light and cycle-free (``net``/``core``
import ``obs``, never the reverse at module scope).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable

from .metrics import MetricsRegistry, exponential_buckets
from .span import Span

#: Bucket bounds for byte-sized histograms: 16 B … 1 GiB.
BYTE_BUCKETS = exponential_buckets(16, 4.0, 14)
#: Bucket bounds for millisecond-scale durations: 1 µs … ~4.7 min.
SECONDS_BUCKETS = exponential_buckets(1e-6, 4.0, 14)


def metric_slug(label: str) -> str:
    """A human phase label as a metric-name component.

    ``"Indexing/Sorting/AlleleFreq."`` → ``"indexing_sorting_allelefreq"``.
    """
    slug = re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")
    return slug or "unnamed"


def record_timings(registry: MetricsRegistry, timings) -> None:
    """Feed :class:`~repro.core.timing.PhaseTimings` into phase gauges."""
    for label, seconds in timings.seconds_by_label.items():
        registry.gauge(f"phase.{metric_slug(label)}_ms").set(seconds * 1000.0)
    registry.gauge("phase.model_ms").set(timings.total_seconds * 1000.0)


def record_network(registry: MetricsRegistry, network) -> None:
    """Feed a ``SimulatedNetwork``'s link accounting into net metrics.

    Aggregation goes through :meth:`LinkStats.merge` — the same path
    ``SimulatedNetwork.total_stats`` uses — so the bridge can never
    drift from the network's own arithmetic.
    """
    from ..net.message import LinkStats  # function-level: avoids import cycle

    total = LinkStats()
    per_link = registry.histogram("net.link_wire_bytes", bounds=BYTE_BUCKETS)
    for stats in network.links().values():
        total.merge(stats)
        per_link.observe(stats.wire_bytes)
    registry.counter("net.messages").inc(total.messages)
    registry.counter("net.wire_bytes").inc(total.wire_bytes)
    registry.counter("net.payload_bytes").inc(total.payload_bytes)
    registry.gauge("net.links").set(len(network.links()))
    registry.gauge("net.sim_time_s").set(network.simulated_time)


def record_resources(registry: MetricsRegistry, reports: Dict[str, object]) -> None:
    """Feed per-enclave ``ResourceReport`` objects into tee metrics."""
    peak = registry.histogram("tee.enclave_peak_memory_bytes", bounds=BYTE_BUCKETS)
    total_ecalls = 0
    for enclave_id, report in sorted(reports.items()):
        registry.gauge(f"tee.peak_memory_bytes.{metric_slug(enclave_id)}").set(
            report.peak_memory_bytes
        )
        registry.gauge(f"tee.cpu_utilization.{metric_slug(enclave_id)}").set(
            report.cpu_utilization
        )
        peak.observe(report.peak_memory_bytes)
        total_ecalls += report.ecall_count
    registry.counter("tee.ecalls").inc(total_ecalls)


def record_rounds(registry: MetricsRegistry, accounting) -> None:
    """Feed :class:`~repro.core.timing.RoundAccounting` into round metrics.

    ``protocol.ocall_rounds.<kind>`` counts request/response rounds per
    OCALL kind (the batched LR protocol shows up here as a single ``lr``
    round per study); ``protocol.round_concurrency`` is the mean member
    fan-out per round, and ``protocol.parallel_saving_s`` the seconds
    the parallel-federation clock model removed from the measured trace.
    """
    registry.counter("protocol.ocall_rounds").inc(accounting.rounds)
    for kind, count in sorted(accounting.rounds_by_kind.items()):
        registry.counter(f"protocol.ocall_rounds.{metric_slug(kind)}").inc(count)
    registry.counter("protocol.concurrent_rounds").inc(
        accounting.concurrent_rounds
    )
    registry.gauge("protocol.round_concurrency").set(accounting.mean_concurrency)
    registry.gauge("protocol.parallel_saving_s").set(accounting.parallel_saving)
    registry.gauge("protocol.round_member_s").set(accounting.parallel_seconds)


def record_cache_stats(registry: MetricsRegistry, stats: Dict[str, int]) -> None:
    """Feed the leader enclave's LD exchange counters into metrics.

    ``enclave.ld_pairs_requested`` counts the walks' comparisons, one
    per compared pair; ``enclave.ld_pairs_fetched`` counts padded pair
    rows, so it covers every pair the walks can reach plus the padding
    to the public bound; ``enclave.ld_overflow_rounds`` counts the
    padded rounds a union too big for that bound took beyond the
    planned exchange.
    """
    for name in ("ld_pairs_requested", "ld_pairs_fetched", "ld_overflow_rounds"):
        registry.counter(f"enclave.{name}").inc(int(stats.get(name, 0)))


def record_shard(
    registry: MetricsRegistry,
    plan,
    tree,
    stats: Dict[str, Dict[str, int]],
    repair: Dict[str, int] = None,
) -> None:
    """Feed SNP-range sharding accounting into ``shard.*`` metrics.

    ``plan``/``tree`` are the study's
    :class:`~repro.core.shard.ShardPlan` and
    :class:`~repro.core.shard.AggregationTree`; ``stats`` maps enclave
    id to the per-enclave counters its ``shard_stats`` ECALL exports.
    Counters sum across the federation (tasks, partials, combine
    bytes); the per-enclave peak partial size lands in a gauge per
    enclave plus a histogram, which is what the bench reads to confirm
    the O(L/S) memory claim.

    ``repair``, when given, is the orchestrator's fault-tolerance
    accounting for the tree rounds: the repair epoch lands in a gauge
    (it is a level, not an event count) and everything else — member
    replacements, task re-runs, per-level delivery retries, re-shipped
    partials, integrity verify runs — in ``shard.repair.*`` counters,
    so every masked combine-round fault leaves a trace in the report.
    """
    registry.gauge("shard.ranges").set(plan.num_shards)
    registry.gauge("shard.max_width").set(plan.max_width)
    registry.gauge("shard.tree_depth").set(tree.depth)
    registry.gauge("shard.aggregation_rounds").set(len(tree.levels()))
    if repair:
        registry.gauge("shard.repair.epoch").set(int(repair.get("epoch", 0)))
        for name, value in sorted(repair.items()):
            if name == "epoch":
                continue
            registry.counter(f"shard.repair.{metric_slug(name)}").inc(
                int(value)
            )
    peak = registry.histogram(
        "shard.peak_partial_bytes", bounds=BYTE_BUCKETS
    )
    for enclave_id, counters in sorted(stats.items()):
        registry.counter("shard.tasks_opened").inc(
            int(counters.get("tasks_opened", 0))
        )
        registry.counter("shard.tasks_accepted").inc(
            int(counters.get("tasks_accepted", 0))
        )
        registry.counter("shard.partials_emitted").inc(
            int(counters.get("partials_emitted", 0))
        )
        registry.counter("shard.partials_ingested").inc(
            int(counters.get("partials_ingested", 0))
        )
        registry.counter("shard.partial_bytes").inc(
            int(counters.get("partial_bytes", 0))
        )
        peak_bytes = int(counters.get("peak_partial_bytes", 0))
        registry.gauge(
            f"shard.peak_partial_bytes.{metric_slug(enclave_id)}"
        ).set(peak_bytes)
        peak.observe(peak_bytes)


def record_faults(registry: MetricsRegistry, counters: Dict[str, int]) -> None:
    """Feed a ``FaultInjector``'s counters into ``faults.*`` metrics.

    One counter per injected-fault kind (drops, duplicates, delays,
    corruptions, partition blocks, crashes...), so a chaos run's report
    states exactly what was thrown at it.
    """
    for name, value in sorted(counters.items()):
        registry.counter(f"faults.{metric_slug(name)}").inc(int(value))


def record_integrity(registry: MetricsRegistry, counters: Dict[str, int]) -> None:
    """Feed the integrity monitor's ledger into ``integrity.*`` metrics.

    One counter per Byzantine-detection mechanism (equivocation echo,
    transcript cross-check, checkpoint freshness, sealed-restore
    authentication) plus the quarantine count, so every detection a
    chaos run triggers is visible in the RunReport.
    """
    for name, value in sorted(counters.items()):
        registry.counter(f"integrity.{metric_slug(name)}").inc(int(value))


def record_resilience(
    registry: MetricsRegistry,
    stats: Dict[str, float],
    supervision: Dict[str, object] = None,
) -> None:
    """Feed round-engine (and supervisor) stats into metrics.

    ``resilience.retries`` counts the retries of every round kind —
    OCALL rounds, tree-combine levels and echo rings —
    ``resilience.backoff_s`` the simulated seconds the retrying side
    waited, and the ``failovers``/``leader_crashes`` counters record the
    supervisor's recovery work — all visible in the RunReport, so every
    masked fault leaves a trace.  ``shard.repair.level_retries``
    (:func:`record_shard`) is the combine-round subset of the retries.
    """
    backoff_seconds = float(stats.get("backoff_seconds", 0.0))
    registry.gauge("resilience.backoff_s").set(backoff_seconds)
    # High-water marks are levels, not event counts: report as gauges.
    high_water = int(stats.get("dedup_seen_high_water", 0))
    registry.gauge("resilience.dedup_seen_high_water").set(high_water)
    for name, value in sorted(stats.items()):
        if name in ("backoff_seconds", "dedup_seen_high_water"):
            continue
        registry.counter(f"resilience.{metric_slug(name)}").inc(int(value))
    if supervision:
        registry.counter("resilience.failovers").inc(
            int(supervision.get("failovers", 0))
        )
        registry.counter("resilience.leader_crashes").inc(
            int(supervision.get("crashes_handled", 0))
        )


def record_spans(registry: MetricsRegistry, spans: Iterable[Span]) -> None:
    """Aggregate span-level detail the accounting objects cannot provide.

    Per-message byte sizes and per-ECALL durations only exist as trace
    events; this turns them into percentile-capable histograms.
    """
    message_bytes = registry.histogram("net.message_bytes", bounds=BYTE_BUCKETS)
    ecall_seconds = registry.histogram("tee.ecall_seconds", bounds=SECONDS_BUCKETS)
    rounds = registry.counter("protocol.rounds")
    spans = list(spans)
    for span in spans:
        if span.name == "net.send":
            wire = span.attributes.get("wire_bytes")
            if isinstance(wire, (int, float)):
                message_bytes.observe(wire)
        elif span.name == "ecall":
            ecall_seconds.observe(span.duration_seconds)
        elif span.name == "round":
            rounds.inc()
    registry.counter("obs.spans").inc(len(spans))


def record_service(registry: MetricsRegistry, stats: Dict[str, object]) -> None:
    """Feed :class:`~repro.serve.service.FederationService` stats into metrics.

    Counters (submissions, completions, rejections, warm pool hits,
    cold provisions, retired slots, gated rounds) land under
    ``serve.*``; levels and durations (queue depth, active sessions,
    wait/wall seconds, warm-hit rate) are gauges.  The service calls
    this for its aggregate snapshot and once per finished session, so
    a session's RunReport carries the same namespace the soak-job
    artifact uses.
    """
    gauge_keys = {
        "queue_depth",
        "active_sessions",
        "queue_depth_high_water",
        "warm_hit_rate",
        "wait_seconds",
        "run_seconds",
        "round_wait_seconds",
        "pool_memory_bytes",
    }
    for name, value in sorted(stats.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name in gauge_keys or name.endswith("_seconds"):
            registry.gauge(f"serve.{metric_slug(name)}").set(float(value))
        else:
            registry.counter(f"serve.{metric_slug(name)}").inc(int(value))
