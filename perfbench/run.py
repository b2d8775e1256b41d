"""The repository benchmark: one command, every workload, checked decisions.

Usage::

    python3 perfbench/run.py --workload serve-warm --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, both passes
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With ``--trace 0`` a run times setup :data:`spec.SETUP_SAMPLES` times
(fresh processes) and then runs the workload's studies for ``--seconds``
in one more fresh process, with no wrapper installed; it prints the
end-to-end metrics.  With ``--trace 1`` it runs the traced pass and
prints the per-layer metrics.  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; human-readable tables, the host record and the seed go
above it.  A study whose decisions differ from the reference fails the
run (exit code 1).  Without the program's sources next to the benchmark
the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import harness
import spec

WORKER = os.path.join(harness.BENCH_DIR, "worker.py")
WORK_ROOT = os.path.join(harness.BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(harness.BENCH_DIR, "results")
#: Wall-clock budget of one workload run, setup included.
RUN_BUDGET_S = 170.0
#: Bound on a single setup process.
SETUP_BUDGET_S = 60.0


@dataclass
class WorkerRun:
    """What the parent saw of one worker process."""

    ready_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    exit_code: Optional[int] = None
    peak_rss_mib: float = 0.0


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended on its own meanwhile


def spawn_worker(arguments: List[str], budget_s: float) -> WorkerRun:
    """Run a worker to its exit, timing spawn-to-``READY``."""
    run = WorkerRun()
    begin = time.perf_counter()
    # A session of its own, so a runaway worker is killed together with
    # the CLI processes it spawned.
    child = subprocess.Popen(
        [sys.executable, WORKER, *arguments],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(budget_s, _kill_session, (child.pid,))
    watchdog.start()
    try:
        for line in child.stdout:
            if line.startswith("READY") and run.ready_s is None:
                run.ready_s = time.perf_counter() - begin
            elif line.startswith("RESULT "):
                run.result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        _pid, status, rusage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    child.returncode = run.exit_code = os.waitstatus_to_exitcode(status)
    run.peak_rss_mib = rusage.ru_maxrss / 1024.0
    return run


def end_to_end(
    samples: List[Dict[str, Any]],
    elapsed_s: float,
    setup_s: List[float],
    peak_rss_mib: float,
) -> tuple:
    """(metrics, notes) of a timed pass; failed studies carry no time."""
    ok = [sample for sample in samples if not sample["error"]]
    walls = [1000.0 * sample["wall_s"] for sample in ok] or [0.0]
    tail, percentile = harness.tail(walls)
    values = {
        "wall_ms_p50": harness.median(walls),
        "wall_ms_tail": tail,
        "model_ms_p50": harness.median(
            [1000.0 * sample["model_s"] for sample in ok] or [0.0]
        ),
        "studies_per_s": len(ok) / elapsed_s if elapsed_s else 0.0,
        "wire_bytes_per_study": harness.median(
            [float(sample["wire_bytes"]) for sample in ok] or [0.0]
        ),
        "setup_s": harness.median(setup_s),
        "peak_rss_mb": peak_rss_mib,
    }
    metrics = {
        name: harness.metric(values[name], unit)
        for name, unit, _better, _bound in spec.END_TO_END
    }
    notes = {
        "wall_ms_tail percentile": f"p{percentile:.1f} of {len(walls)} studies",
        "setup_s samples": [round(value, 4) for value in setup_s],
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns the result object plus notes."""
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    load_before = os.getloadavg()
    try:
        setup_s: List[float] = []
        if not trace:
            for _ in range(spec.SETUP_SAMPLES - 1):
                probe = spawn_worker(common + ["--setup-only"], SETUP_BUDGET_S)
                if probe.exit_code != 0 or probe.ready_s is None:
                    raise harness.BenchError(f"{name}: setup failed")
                setup_s.append(probe.ready_s)
        main = spawn_worker(
            common + ["--seconds", str(seconds), "--trace", str(int(trace))],
            max(deadline - time.perf_counter(), 1.0),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if main.exit_code != 0 or main.result is None or main.ready_s is None:
        raise harness.BenchError(f"{name}: worker exited with {main.exit_code}")
    result = main.result
    samples = result["samples"]
    failed = sum(1 for sample in samples if sample["error"])
    notes: Dict[str, Any] = {}
    if trace:
        metrics = {
            metric: harness.metric(result["metrics"][metric], unit)
            for metric, unit in spec.PER_LAYER
        }
        error = result["reconciliation_error_s"]
        notes["study-thread self + other.self_s - traced wall"] = f"{error:.3g} s"
        reconciled = abs(error) <= 1e-6 * max(len(samples), 1)
    else:
        setup_s.append(main.ready_s)
        rss = result["child_rss_mib"] or main.peak_rss_mib
        metrics, notes = end_to_end(samples, result["elapsed_s"], setup_s, rss)
        reconciled = True
    # Printed, not in BENCHMARK.json: it is 0 at a correct commit, and
    # `failed` / `attempted` carry it in the result line.
    notes["failed_fraction"] = failed / len(samples) if samples else 1.0
    for sample in samples:
        if sample["error"]:
            notes.setdefault("first failure", sample["error"])
    host = dict(result["host"], loadavg_before=list(load_before))
    host["loadavg_after"] = list(os.getloadavg())
    notes["host"] = host
    notes["seed"] = seed
    return {
        "correct": failed == 0 and reconciled and bool(samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def write_spec() -> str:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.benchmark_json(), handle, indent=2)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted({**spec.WORKLOADS, **spec.MANUAL_WORKLOADS})
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        print(f"wrote {write_spec()}")
        return 0
    if not harness.has_sources():
        print(f"error: no repro sources under {harness.SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else [*spec.WORKLOADS, *spec.MANUAL_WORKLOADS]
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    try:
        for name in names:
            for trace in passes:
                result = run_workload(name, args.seed, args.seconds, trace)
                label = f"{name} ({'traced' if trace else 'timed'})"
                print(harness.render(label, result["metrics"], result["notes"]))
                results[f"{name}/{'trace' if trace else 'timed'}"] = result
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{key}/{metric}": entry
                for key, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"seed-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
        print(f"# results written to {path}")
    harness.emit(final["correct"], final["attempted"], final["failed"], final["metrics"])
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
