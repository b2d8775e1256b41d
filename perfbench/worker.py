"""One workload in a process of its own: setup, reference, one pass.

Usage (``run.py`` spawns it)::

    python perfbench/worker.py --workload W --seed S --workdir D --setup-only
    python perfbench/worker.py --workload W --seed S --workdir D \\
        --seconds N --trace 0|1

Prints ``READY`` once setup is done, so the parent can time setup from
process start, and then (unless ``--setup-only``) computes the
reference decisions, runs the timed or the traced pass and prints one
``RESULT <json>`` line.  A process that ran nothing but this workload
is what ``peak_rss_mb`` measures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List

import harness
import spec
import workloads
from ledger import Ledger, layer_metrics, parse_importtime

#: Process starts timed for the ``startup.*`` metrics.
STARTUP_SAMPLES = 3


def _child_seconds(command: List[str]) -> tuple:
    begin = time.perf_counter()
    done = subprocess.run(
        command,
        env=harness.child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=workloads.STUDY_TIMEOUT,
        check=True,
    )
    return time.perf_counter() - begin, done.stderr


def startup_metrics(reports: List[str]) -> Dict[str, float]:
    """``startup.*``: a bare interpreter, and the ``import repro.cli`` report.

    ``reports`` are the traced pass's own ``-X importtime`` reports
    (cold-cli); without them a child imports ``repro.cli`` to make some.
    """
    python = sys.executable
    if not reports:
        reports = [
            _child_seconds([python, "-X", "importtime", "-c", "import repro.cli"])[1]
            for _ in range(STARTUP_SAMPLES)
        ]
    parsed = [parse_importtime(report) for report in reports]
    metrics = {
        name: harness.median([values[name] for values in parsed])
        for name in parsed[0]
    }
    metrics["startup.interpreter_s"] = harness.median(
        [_child_seconds([python, "-c", "pass"])[0] for _ in range(STARTUP_SAMPLES)]
    )
    return metrics


def timed_pass(workload: workloads.Workload, seconds: float) -> Dict[str, Any]:
    phase = workloads.run_phase(workload, seconds, "timed")
    return {
        "samples": [asdict(sample) for sample in phase.samples],
        "elapsed_s": phase.elapsed_s,
        "child_rss_mib": getattr(workload, "child_rss_mib", 0.0),
    }


def traced_pass(workload: workloads.Workload, seconds: float) -> Dict[str, Any]:
    """Untraced studies, then the same studies under the ledger.

    Each half covers at least half the cohorts; the per-layer metrics
    carry no bound, so the pass need not be as long as a timed one.
    """
    least = spec.COHORTS // 2
    untraced = workloads.run_phase(workload, seconds / 2, "untraced", None, least)
    ledger = Ledger()
    with ledger.installed(roots=workload.roots()):
        traced = workloads.run_phase(workload, seconds / 2, "traced", ledger, least)
    ok_walls = [
        [sample.wall_s for sample in phase.samples if sample.ok]
        for phase in (untraced, traced)
    ]
    overhead = (
        harness.median(ok_walls[1]) / harness.median(ok_walls[0])
        if all(ok_walls)
        else 0.0
    )
    metrics = layer_metrics(
        ledger.snapshot(),
        startup=startup_metrics(workload.startup_reports()),
        service=workload.layer_extras(),
        overhead_ratio=overhead,
    )
    return {
        "samples": [asdict(s) for s in untraced.samples + traced.samples],
        "metrics": metrics,
        "reconciliation_error_s": ledger.reconciliation_error(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.bootstrap()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.compute_reference()
        run = traced_pass if args.trace else timed_pass
        result = run(workload, args.seconds)
    finally:
        workload.close()
    result["host"] = harness.host_record()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
