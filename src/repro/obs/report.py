"""Machine-readable run reports.

A :class:`RunReport` is the single artifact a traced run leaves behind:
spans, the metrics snapshot, a fingerprint of the study configuration
that produced it, and free-form metadata — one JSON document that a
dashboard, a regression checker, or ``repro report`` can consume
without re-running anything.  The schema is documented in
``docs/OBSERVABILITY.md``; ``schema_version`` gates forward
compatibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ObservabilityError
from .export import render_span_tree, span_from_dict, span_to_dict
from .span import Span

SCHEMA_VERSION = 1

#: Config fields that do not affect study *outcomes* and are excluded
#: from the fingerprint, so traced and untraced runs of one study match —
#: as do sequential and parallel executions, whose outcome equivalence
#: the test suite enforces.  Fault injection and resilience knobs are
#: excluded for the same reason: a faulted run either completes with
#: bit-identical outcomes or aborts with a classified error (enforced
#: by the chaos suite), so they are not part of a run's identity.  The
#: integrity checks verify outcomes rather than change them, so they
#: are excluded on the same grounds.
FINGERPRINT_EXCLUDED_FIELDS = (
    "observability",
    "execution",
    "faults",
    "resilience",
    "integrity",
)


def config_fingerprint(config: Any) -> str:
    """SHA-256 over a canonical JSON rendering of a (dataclass) config.

    Observability switches are excluded (see
    :data:`FINGERPRINT_EXCLUDED_FIELDS`): enabling tracing must not
    change a run's identity.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = dict(config)
    else:
        raise ObservabilityError(
            f"cannot fingerprint a {type(config).__name__}; "
            "expected a dataclass or dict"
        )
    for excluded in FINGERPRINT_EXCLUDED_FIELDS:
        payload.pop(excluded, None)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunReport:
    """Spans + metrics + config fingerprint of one run, as one document."""

    study_id: str
    config_fingerprint: str
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "study_id": self.study_id,
            "config_fingerprint": self.config_fingerprint,
            "meta": dict(self.meta),
            "metrics": self.metrics,
            "spans": [span_to_dict(span) for span in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        try:
            version = int(payload["schema_version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError("run report misses schema_version") from exc
        if version > SCHEMA_VERSION:
            raise ObservabilityError(
                f"run report schema v{version} is newer than supported "
                f"v{SCHEMA_VERSION}"
            )
        try:
            return cls(
                study_id=str(payload["study_id"]),
                config_fingerprint=str(payload["config_fingerprint"]),
                spans=[span_from_dict(s) for s in payload.get("spans", [])],
                metrics=dict(payload.get("metrics") or {}),
                meta=dict(payload.get("meta") or {}),
                schema_version=version,
            )
        except (KeyError, TypeError) as exc:
            raise ObservabilityError(f"malformed run report: {exc}") from exc

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"run report is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ObservabilityError("run report must be a JSON object")
        return cls.from_dict(payload)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- queries -----------------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Corrected seconds per protocol phase, summed from phase spans."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.name != "phase":
                continue
            label = str(span.attributes.get("label", "?"))
            totals[label] = totals.get(label, 0.0) + span.duration_seconds
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        """Human-readable summary for ``repro report``."""
        lines = [
            f"RunReport (schema v{self.schema_version})",
            f"  study:       {self.study_id}",
            f"  config:      {self.config_fingerprint[:16]}...",
        ]
        for key, value in sorted(self.meta.items()):
            if key == "quarantined":
                continue  # rendered as its own section below
            lines.append(f"  {key + ':':<12} {value}")

        quarantined = self.meta.get("quarantined") or []
        if quarantined:
            lines.append("")
            lines.append(f"Quarantined nodes ({len(quarantined)}):")
            for report in quarantined:
                lines.append(
                    f"  {report.get('member_id', '?'):<12s} "
                    f"step={report.get('round_kind', '?'):<10s} "
                    f"cause={report.get('cause', '?')} "
                    f"(failovers so far: {report.get('attempts', 0)})"
                )

        phases = self.phase_seconds()
        if phases:
            lines.append("")
            lines.append("Phases (parallel-corrected):")
            for label, seconds in phases.items():
                lines.append(f"  {label:<32s} {seconds * 1000.0:10.1f} ms")
            lines.append(
                f"  {'Total':<32s} {sum(phases.values()) * 1000.0:10.1f} ms"
            )

        counters: Dict[str, Any] = self.metrics.get("counters", {})
        gauges: Dict[str, Any] = self.metrics.get("gauges", {})
        histograms: Dict[str, Any] = self.metrics.get("histograms", {})
        if counters or gauges or histograms:
            lines.append("")
            lines.append("Metrics:")
            for name, value in sorted(counters.items()):
                lines.append(f"  {name:<36s} {value:,}")
            for name, value in sorted(gauges.items()):
                lines.append(f"  {name:<36s} {value:,.4g}")
            for name, histogram in sorted(histograms.items()):
                count = histogram.get("count", 0)
                p50, p99 = histogram.get("p50"), histogram.get("p99")
                p50_s = "-" if p50 is None else f"{p50:.4g}"
                p99_s = "-" if p99 is None else f"{p99:.4g}"
                lines.append(
                    f"  {name:<36s} n={count:,} p50<={p50_s} p99<={p99_s}"
                )

        counts = self.span_counts()
        if counts:
            summary = ", ".join(f"{n}×{c}" for n, c in sorted(counts.items()))
            lines.append("")
            lines.append(f"Spans ({len(self.spans)} total): {summary}")
            tree = render_span_tree(self.spans)
            if tree:
                lines.append("")
                lines.append(tree)
        return "\n".join(lines)
