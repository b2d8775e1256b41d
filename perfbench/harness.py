"""Shared plumbing of the repository benchmark.

* :func:`bootstrap` puts the checkout's ``src/`` first on ``sys.path``
  and refuses to run against any other copy of ``repro``;
* :func:`host_record` describes the machine a result was measured on;
* the sample statistics (median, the tail-percentile rule) every
  metric is reported with;
* :func:`decisions_of` / :func:`check_decisions`, the bit-for-bit
  decision check against a reference computed once per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

#: The benchmark directory and the checkout root above it.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Samples a percentile must have above it before it may be reported.
TAIL_MARGIN = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def has_sources() -> bool:
    """Whether the checkout holds the program next to the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def bootstrap() -> None:
    """Make ``import repro`` load the checkout's sources.

    Raises :class:`BenchError` when the checkout has no ``src/repro``
    (for instance a directory holding only the benchmark): an installed
    copy elsewhere must never be measured in its place.
    """
    if not has_sources():
        raise BenchError(f"no repro sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    loaded = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([loaded, SRC]) != SRC:
        raise BenchError(f"imported repro from {loaded}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def host_record() -> Dict[str, Any]:
    """CPU, interpreter and library versions of the measuring host."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- sample statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that still
    has at least :data:`TAIL_MARGIN` samples above it.

    With ``n`` sorted samples that is the ``(n - 10)``-th, reported as
    percentile ``100 * (n - 10) / n``.  Below 20 samples that point
    lies under the median, which then stands in (percentile 50).
    """
    ordered = sorted(values)
    count = len(ordered) - TAIL_MARGIN
    percentile = 100.0 * count / len(ordered)
    if percentile < 50.0:
        return median(ordered), 50.0
    return float(ordered[count - 1]), percentile


# -- decisions -----------------------------------------------------------------


def decisions_of(result: Any) -> Dict[str, Any]:
    """The decision fields of a ``StudyResult`` (or its ``--json`` dict).

    Everything a release depends on and nothing that may legitimately
    differ between deployments (timings, bytes, round counts).
    """
    if isinstance(result, dict):
        collusion = result.get("collusion")
        return {
            "l_prime": list(result["l_prime"]),
            "l_double_prime": list(result["l_double_prime"]),
            "l_safe": list(result["l_safe"]),
            "release_power": float(result["release_power"]),
            "baseline_safe": (
                list(collusion["baseline_safe"]) if collusion else None
            ),
        }
    collusion = result.collusion
    decisions = {
        "l_prime": list(result.l_prime),
        "l_double_prime": list(result.l_double_prime),
        "l_safe": list(result.l_safe),
        "release_power": float(result.release_power),
        "baseline_safe": (
            list(collusion.baseline_safe) if collusion is not None else None
        ),
    }
    if collusion is not None:
        decisions["combinations"] = sorted(
            (list(o.member_ids), o.f, list(o.safe_snps))
            for o in collusion.outcomes
        )
    return decisions


def check_decisions(
    observed: Dict[str, Any], expected: Dict[str, Any]
) -> List[str]:
    """Names of the decision fields on which ``observed`` differs.

    Only fields present in ``expected`` are compared, so a reference
    without per-combination sets checks the CLI's smaller ``--json``.
    """
    return sorted(
        key for key, value in expected.items() if observed.get(key) != value
    )


# -- output --------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def emit(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]]
) -> None:
    """Print the result object as the last line of standard output."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def render(
    workload: str, metrics: Dict[str, Dict[str, Any]], notes: Optional[Dict[str, Any]] = None
) -> str:
    """Human-readable metric table printed above the result line."""
    lines = [f"== {workload}"]
    for name, entry in metrics.items():
        value = entry["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<40s} {text:>14s} {entry['unit']}")
    for key, value in (notes or {}).items():
        lines.append(f"  # {key}: {json.dumps(value)}")
    return "\n".join(lines)
