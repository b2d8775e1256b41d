"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/stability.py --workload collusion-sharded --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, then prints, per metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and that spread as a share of the
metric's bound.  A benchmark is steady on a workload when every spread
but ``setup_s``'s stays well under its bound.  The raw values go to
``perfbench/results/stability-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness
import spec

RUN = os.path.join(harness.BENCH_DIR, "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted({**spec.WORKLOADS, **spec.MANUAL_WORKLOADS}),
        required=True,
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    args = parser.parse_args(argv)

    values = {name: [] for name, _unit, _better, _bound in spec.END_TO_END}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={values[name][-1]:.6g}" for name in values
        ), flush=True)

    print(f"== {args.workload}: {len(args.seeds)} runs")
    for name, unit, _better, bound in spec.END_TO_END:
        series = values[name]
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        print(
            f"  {name:<22s} median {q2:12.6g} {unit:<6s} q1 {q1:12.6g} "
            f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound:5.2f}  "
            f"spread/bound {spread / bound:5.2f}"
        )
    os.makedirs(os.path.join(harness.BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(harness.BENCH_DIR, "results", f"stability-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seeds": args.seeds, "values": values}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
