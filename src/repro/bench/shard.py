"""Machine-readable sharding benchmark: shard counts head to head.

Runs the GenDPR pipeline over one large-L workload for every requested
shard count with both collusion settings (f = 0 and f = 1), then emits
one JSON document — ``BENCH_shard.json`` by default — with wall-clock
and modeled times, wire accounting, the tree-aggregation gauges
(``shard.*``) and the measured speedup of every batched numpy kernel
over its per-SNP scalar reference (the hot path the shard pipeline
replaced).  ``docs/PERFORMANCE.md`` describes how to read it.

The emitter doubles as the equivalence gate used in CI: for every
(f, S) cell it asserts that the sharded run produced bit-identical
study *decisions* to the flat S = 1 run, that the per-enclave peak
partial frame shrinks as O(L/S), and that the leader's per-round
fan-in stays at the tree arity — the process exits non-zero when any
of those fails.

Run as::

    PYTHONPATH=src python -m repro.bench.shard --out BENCH_shard.json \
        [--snps 2000] [--gdos 5] [--shards 1,2,4,8] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import (
    CollusionPolicy,
    FaultConfig,
    ObservabilityConfig,
    ResilienceConfig,
    ShardingConfig,
)
from ..core.phases import StudyResult
from ..core.protocol import run_study
from ..errors import ReproError
from ..stats import chisq, ld, lr_test
from ..tee.storage import pack_columns
from .workloads import (
    PAPER_CASE_FULL,
    bench_scale,
    clear_cohort_cache,
    paper_cohort,
    paper_config,
    scaled,
)

#: Shard counts compared by default — the invariant set the tests pin.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
#: Seed of the chaos plan armed for the faulted-run section.
FAULT_SEED = 7
#: Per-envelope fault probability of that plan.
FAULT_INTENSITY = 0.1
#: Generous ceiling on modeled-time overhead of a faulted supervised
#: run over its clean sharded cell: retry backoff and tree repair cost
#: simulated seconds, but masking a 10% fault rate must never blow the
#: run up by more than this factor.
FAULTED_OVERHEAD_BUDGET = 10.0
#: Sliding window of the greedy LD walk (mirrors the enclave constant).
LD_WINDOW = 25
#: Elements the scalar references are timed over before extrapolating;
#: the full-size loops are exactly what the kernels replaced and would
#: dominate the bench's own runtime.
SCALAR_SAMPLE = 400


def study_decisions(result: StudyResult) -> Dict[str, Any]:
    """The decision fields of a result — everything but timings.

    Unlike the fig5 gate this omits the OCALL round book: sharded runs
    legitimately add ``shard:*`` rounds, while every *decision* must
    stay bit-identical.
    """
    collusion = None
    if result.collusion is not None:
        collusion = {
            "baseline_safe": list(result.collusion.baseline_safe),
            "outcomes": sorted(
                (list(o.member_ids), o.f, list(o.safe_snps))
                for o in result.collusion.outcomes
            ),
        }
    return {
        "l_prime": list(result.l_prime),
        "l_double_prime": list(result.l_double_prime),
        "l_safe": list(result.l_safe),
        "release_power": result.release_power,
        "collusion": collusion,
    }


def _shard_gauges(result: StudyResult) -> Dict[str, float]:
    report = result.observability
    if report is None:
        return {}
    gauges = report.metrics["gauges"]
    counters = report.metrics["counters"]
    peaks = [
        value
        for name, value in gauges.items()
        if name.startswith("shard.peak_partial_bytes.")
    ]
    return {
        "max_width": gauges.get("shard.max_width", 0.0),
        "aggregation_rounds": gauges.get("shard.aggregation_rounds", 0.0),
        "peak_partial_bytes": max(peaks) if peaks else 0.0,
        "partial_bytes_total": counters.get("shard.partial_bytes", 0),
    }


def _run_cell(
    num_snps: int,
    gdos: int,
    f: int,
    shards: int,
    faults: Optional[FaultConfig] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> Tuple[StudyResult, Dict[str, Any]]:
    cohort, _truth = paper_cohort(PAPER_CASE_FULL, num_snps)
    collusion = CollusionPolicy((f,)) if f > 0 else CollusionPolicy.none()
    config = paper_config(
        num_snps,
        study_id=f"shard-G{gdos}-f{f}-S{shards}",
        collusion=collusion,
    )
    config = replace(
        config,
        sharding=ShardingConfig.over(shards),
        observability=ObservabilityConfig(enabled=True),
    )
    if faults is not None:
        config = replace(config, faults=faults)
    if resilience is not None:
        config = replace(config, resilience=resilience)
    begin = time.perf_counter()
    result = run_study(cohort, config, gdos)
    wall_ms = (time.perf_counter() - begin) * 1000.0
    row: Dict[str, Any] = {
        "gdos": gdos,
        "f": f,
        "shards": shards,
        "wall_ms": wall_ms,
        "total_ms": result.timings.total_seconds * 1000.0,
        "network_bytes": result.network_bytes,
        "network_messages": result.network_messages,
        # Frames the leader ingests in one aggregation round: the flat
        # summary round fans in G-1 whole-L frames at once; the combine
        # tree bounds this at the heap arity regardless of G and L.
        "leader_fan_in": 2 if shards > 1 and gdos > 2 else max(gdos - 1, 0),
        "safe_snps": result.retained_after_lr,
        "release_power": result.release_power,
        "shard": _shard_gauges(result),
    }
    return result, row


def _time_kernel(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - begin)
    return best


def kernel_speedups(num_snps: int) -> List[Dict[str, Any]]:
    """Batched kernels vs the per-SNP scalar loops they replaced.

    The scalar references run over :data:`SCALAR_SAMPLE` elements and
    extrapolate linearly (they are the O(elements) loops the seed code
    shipped); the batched kernels run full size.  Inputs mirror the
    workload's dimensions at the current bench scale.
    """
    rng = np.random.default_rng(7)
    rows = scaled(PAPER_CASE_FULL)
    genotypes = (
        rng.random((rows, num_snps)) < rng.uniform(0.05, 0.5, num_snps)
    ).astype(np.int8)
    snps = list(range(num_snps))
    pairs = ld.window_pairs(snps, LD_WINDOW)
    num_pairs = pairs.shape[0]
    case_freq = rng.uniform(0.05, 0.6, num_snps)
    ref_freq = rng.uniform(0.05, 0.6, num_snps)
    n_case, n_control = rows, max(rows - 5, 1)
    case_counts = rng.integers(0, n_case + 1, size=num_snps)
    control_counts = rng.integers(0, n_control + 1, size=num_snps)
    sample_pairs = min(SCALAR_SAMPLE, num_pairs)
    sample_rows = min(50, rows)

    results: List[Dict[str, Any]] = []

    def record(kernel: str, elements: int, batched_s: float,
               scalar_sample_s: float, sample: int) -> None:
        scalar_s = scalar_sample_s * (elements / max(sample, 1))
        results.append(
            {
                "kernel": kernel,
                "elements": elements,
                "batched_s": batched_s,
                "scalar_s": scalar_s,
                "speedup": scalar_s / batched_s if batched_s > 0 else 0.0,
            }
        )

    record(
        "window_pairs",
        num_pairs,
        _time_kernel(ld.window_pairs, snps, LD_WINDOW),
        _time_kernel(ld.window_pairs_scalar, snps[:SCALAR_SAMPLE], LD_WINDOW),
        ld.window_pairs_scalar(snps[:SCALAR_SAMPLE], LD_WINDOW).shape[0],
    )
    record(
        "pair_moments",
        num_pairs,
        # Packed once, as the sealed store holds it; the oracle reads the
        # unpacked columns.
        _time_kernel(ld.pair_moments_kernel, pack_columns(genotypes), pairs),
        _time_kernel(
            ld.pair_moments_scalar, genotypes, pairs[:sample_pairs]
        ),
        sample_pairs,
    )
    record(
        "rank_pvalues",
        num_snps,
        _time_kernel(
            chisq.rank_pvalues, case_counts, control_counts, n_case, n_control
        ),
        _time_kernel(
            chisq.rank_pvalues_scalar,
            case_counts[:SCALAR_SAMPLE],
            control_counts[:SCALAR_SAMPLE],
            n_case,
            n_control,
        ),
        min(SCALAR_SAMPLE, num_snps),
    )
    record(
        "lr_matrix",
        rows * num_snps,
        _time_kernel(lr_test.lr_matrix, genotypes, case_freq, ref_freq),
        _time_kernel(
            lr_test.lr_matrix_scalar,
            genotypes[:sample_rows],
            case_freq,
            ref_freq,
        ),
        sample_rows * num_snps,
    )
    return results


def faulted_runs(
    num_snps: int,
    gdos: int,
    counts: Sequence[int],
    baseline: Dict[str, Any],
    clean_ms: Dict[int, float],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Sharded cells re-run under a seeded chaos plan, supervised.

    Every cell must either complete with decisions bit-identical to
    the flat fault-free baseline — within the modeled-time overhead
    budget — or abort classified.  Repair/retry counters land in the
    report so CI archives how much masking each plan needed.
    """
    faults = FaultConfig.chaos(FAULT_SEED, intensity=FAULT_INTENSITY)
    supervised = ResilienceConfig.supervised()
    section: List[Dict[str, Any]] = []
    problems: List[str] = []
    completed = 0
    for shards in counts:
        if shards == 1:
            continue
        row: Dict[str, Any] = {
            "shards": shards,
            "seed": FAULT_SEED,
            "intensity": FAULT_INTENSITY,
        }
        try:
            result, cell = _run_cell(
                num_snps, gdos, 0, shards,
                faults=faults, resilience=supervised,
            )
        except ReproError as exc:
            row["outcome"] = "classified_abort"
            row["error"] = type(exc).__name__
            section.append(row)
            continue
        completed += 1
        row["outcome"] = "completed"
        row["wall_ms"] = cell["wall_ms"]
        row["total_ms"] = cell["total_ms"]
        counters = result.observability.metrics["counters"]
        row["repair"] = {
            name: counters.get(f"shard.repair.{name}", 0)
            for name in (
                "repairs",
                "tasks_rerun",
                "level_retries",
                "partials_redelivered",
                "verify_runs",
            )
        }
        if study_decisions(result) != baseline:
            problems.append(f"faulted S={shards}: decisions diverged")
        clean = clean_ms.get(shards, 0.0)
        ratio = cell["total_ms"] / clean if clean else 0.0
        row["overhead_ratio"] = ratio
        if ratio > FAULTED_OVERHEAD_BUDGET:
            problems.append(
                f"faulted S={shards}: modeled overhead {ratio:.1f}x "
                f"exceeds the {FAULTED_OVERHEAD_BUDGET:.0f}x budget"
            )
        section.append(row)
    if not completed:
        problems.append("faulted: no cell completed")
    return section, problems


def fast_path_check(
    num_snps: int,
    gdos: int,
    shards: int,
    clean_row: Dict[str, Any],
    baseline: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[str]]:
    """Supervision with no armed faults must cost nothing on the wire.

    The resilient combine path sends exactly the frames the plain path
    sends (retries and repair traffic only exist once faults fire), so
    a supervised fault-free cell is gated on byte-identical network
    accounting against its unsupervised twin — the zero-overhead fast
    path the sharded pipeline promises.
    """
    result, row = _run_cell(
        num_snps, gdos, 0, shards,
        resilience=ResilienceConfig.supervised(),
    )
    problems: List[str] = []
    if study_decisions(result) != baseline:
        problems.append("fast-path: supervised decisions diverged")
    same_wire = (
        row["network_bytes"] == clean_row["network_bytes"]
        and row["network_messages"] == clean_row["network_messages"]
    )
    if not same_wire:
        problems.append(
            "fast-path: supervised fault-free run changed wire traffic "
            f"({row['network_messages']} msgs/{row['network_bytes']} B vs "
            f"{clean_row['network_messages']} msgs/"
            f"{clean_row['network_bytes']} B)"
        )
    counters = result.observability.metrics["counters"]
    summary = {
        "shards": shards,
        "network_bytes": row["network_bytes"],
        "network_messages": row["network_messages"],
        "wire_identical": same_wire,
        "repairs": counters.get("shard.repair.repairs", 0),
        "retries": counters.get("shard.repair.level_retries", 0),
    }
    if summary["repairs"] or summary["retries"]:
        problems.append("fast-path: repair machinery engaged without faults")
    return summary, problems


def shard_report(
    num_snps: int = 2000,
    gdos: int = 5,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    f_values: Sequence[int] = (0, 1),
) -> Dict[str, Any]:
    """Run every (f, S) cell and assemble the JSON document."""
    counts = sorted(set(shard_counts))
    if counts[0] != 1:
        counts = [1, *counts]
    runs: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    memory: List[Dict[str, Any]] = []
    baseline_f0: Optional[Dict[str, Any]] = None
    clean_ms_f0: Dict[int, float] = {}
    clean_rows_f0: Dict[int, Dict[str, Any]] = {}
    for f in f_values:
        baseline: Optional[Dict[str, Any]] = None
        flat_row: Optional[Dict[str, Any]] = None
        peaks: Dict[int, float] = {}
        for shards in counts:
            result, row = _run_cell(num_snps, gdos, f, shards)
            runs.append(row)
            decisions = study_decisions(result)
            if f == 0:
                clean_ms_f0[shards] = row["total_ms"]
                clean_rows_f0[shards] = row
            if shards == 1:
                baseline, flat_row = decisions, row
                if f == 0:
                    baseline_f0 = decisions
                continue
            if decisions != baseline:
                mismatches.append(f"f={f}, S={shards}")
            peaks[shards] = row["shard"]["peak_partial_bytes"]
            if row["leader_fan_in"] > 2 and gdos > 2:
                mismatches.append(f"f={f}, S={shards}: leader fan-in")
        sharded = sorted(peaks)
        shrinking = all(
            peaks[small] > peaks[large]
            for small, large in zip(sharded, sharded[1:])
        )
        if not shrinking:
            mismatches.append(f"f={f}: peak partial bytes not O(L/S)")
        memory.append(
            {
                "f": f,
                # The flat summary round's leader ingest: G-1 frames of
                # L int64 counts at once — the O(G·L) bound sharding
                # replaces.
                "flat_leader_ingest_bytes": (
                    (flat_row["leader_fan_in"] if flat_row else 0)
                    * num_snps
                    * 8
                ),
                "peak_partial_bytes_by_shards": {
                    str(s): peaks[s] for s in sharded
                },
                "scales_inversely": shrinking,
            }
        )
    faulted: List[Dict[str, Any]] = []
    fast_path: Dict[str, Any] = {}
    sharded_counts = [s for s in counts if s > 1]
    if sharded_counts and baseline_f0 is not None and 0 in f_values:
        faulted, fault_problems = faulted_runs(
            num_snps, gdos, counts, baseline_f0, clean_ms_f0
        )
        mismatches.extend(fault_problems)
        widest = max(sharded_counts)
        fast_path, fast_problems = fast_path_check(
            num_snps, gdos, widest, clean_rows_f0[widest], baseline_f0
        )
        mismatches.extend(fast_problems)
    kernels = kernel_speedups(num_snps)
    return {
        "benchmark": "shard",
        "snps": num_snps,
        "gdos": gdos,
        "shard_counts": counts,
        "f_values": list(f_values),
        "scale": bench_scale(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "memory": memory,
        "faulted": faulted,
        "fast_path": fast_path,
        "faulted_overhead_budget": FAULTED_OVERHEAD_BUDGET,
        "kernels": kernels,
        "min_kernel_speedup": min(k["speedup"] for k in kernels),
        "equivalent": not mismatches,
        "mismatched_cells": mismatches,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SNP-range sharding benchmark (shard counts head to head)"
    )
    parser.add_argument(
        "--out", default="BENCH_shard.json", help="output JSON path"
    )
    parser.add_argument("--snps", type=int, default=2000)
    parser.add_argument("--gdos", type=int, default=5)
    parser.add_argument(
        "--shards",
        default="1,2,4,8",
        help="comma-separated shard counts (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="population scale override (else REPRO_BENCH_SCALE)",
    )
    args = parser.parse_args(argv)
    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
        clear_cohort_cache()
    shard_counts = [int(s) for s in str(args.shards).split(",") if s]
    report = shard_report(args.snps, args.gdos, shard_counts)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for entry in report["memory"]:
        by_shards = entry["peak_partial_bytes_by_shards"]
        trail = ", ".join(f"S={s}: {int(v)}" for s, v in by_shards.items())
        print(
            f"f={entry['f']}: flat leader ingest "
            f"{entry['flat_leader_ingest_bytes']} B/round; "
            f"peak partial bytes {trail}"
        )
    for entry in report["faulted"]:
        if entry["outcome"] == "completed":
            repair = entry["repair"]
            print(
                f"faulted S={entry['shards']}: masked at "
                f"{entry['overhead_ratio']:.2f}x modeled overhead "
                f"({repair['level_retries']} retries, "
                f"{repair['repairs']} repairs)"
            )
        else:
            print(
                f"faulted S={entry['shards']}: classified abort "
                f"({entry['error']})"
            )
    if report["fast_path"]:
        fast = report["fast_path"]
        print(
            f"fast path S={fast['shards']}: supervised fault-free wire "
            f"{'identical' if fast['wire_identical'] else 'DIVERGED'}, "
            f"{fast['repairs']} repairs"
        )
    for kernel in report["kernels"]:
        print(
            f"kernel {kernel['kernel']}: {kernel['speedup']:.0f}x over the "
            f"scalar loop ({kernel['elements']} elements)"
        )
    if not report["equivalent"]:
        print(
            "EQUIVALENCE FAILURE: "
            + "; ".join(report["mismatched_cells"])
        )
        return 1
    print(f"all cells equivalent; report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
