"""Experiment runners: one paper row per function call.

Each runner executes one configuration and returns a flat dict — the
row of the corresponding paper table/figure — so the benchmark files
stay declarative and the reporting layer can render any collection of
rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..config import CollusionPolicy, ObservabilityConfig
from ..core.baseline import run_centralized_study
from ..core.naive import run_naive_study
from ..core.protocol import run_study
from ..core.timing import ALL_LABELS
from ..genomics.partition import partition_cohort
from ..genomics.population import Cohort
from .workloads import paper_config


def gendpr_row(
    cohort: Cohort,
    num_snps: int,
    num_members: int,
    *,
    collusion: Optional[CollusionPolicy] = None,
    study_id: Optional[str] = None,
    report_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run GenDPR once; return the timing/size/resource row.

    With ``report_path``, the run executes traced and its
    :class:`~repro.obs.report.RunReport` is saved there — the machine-readable
    companion of the rendered table, without changing the row contents.
    """
    config = paper_config(
        num_snps,
        study_id=study_id or f"gendpr-{num_snps}snps-{num_members}gdos",
        collusion=collusion,
    )
    if report_path is not None:
        config = replace(config, observability=ObservabilityConfig.tracing())
    result = run_study(cohort, config, num_members)
    if report_path is not None and result.observability is not None:
        result.observability.save(report_path)
    row: Dict[str, object] = {
        "system": "GenDPR",
        "gdos": num_members,
        "snps": num_snps,
        "genomes": cohort.case.num_individuals,
        "maf": result.retained_after_maf,
        "ld": result.retained_after_ld,
        "lr": result.retained_after_lr,
        "model_ms": result.timings.total_seconds * 1000.0,
        "network_bytes": result.network_bytes,
        "network_messages": result.network_messages,
        "release_power": result.release_power,
        "peak_memory_kib": max(result.enclave_peak_memory.values()) / 1024.0,
        "cpu_utilization": max(result.enclave_cpu_utilization.values()),
    }
    # Member-side resource view (the paper's Table 3 reports federation
    # members' TEEs; the leader aggregates and is reported separately).
    members = [g for g in result.enclave_peak_memory if g != result.leader_id]
    if members:
        row["member_peak_memory_kib"] = sum(
            result.enclave_peak_memory[g] for g in members
        ) / len(members) / 1024.0
        row["member_cpu_utilization"] = sum(
            result.enclave_cpu_utilization[g] for g in members
        ) / len(members)
    else:
        row["member_peak_memory_kib"] = row["peak_memory_kib"]
        row["member_cpu_utilization"] = row["cpu_utilization"]
    row["leader_peak_memory_kib"] = (
        result.enclave_peak_memory[result.leader_id] / 1024.0
    )
    for label in ALL_LABELS:
        row[label] = result.timings.get(label) * 1000.0
    if result.collusion is not None:
        baseline = set(result.collusion.baseline_safe)
        vulnerable = result.collusion.vulnerable_snps(tuple(result.l_safe))
        row["f0_safe"] = len(baseline)
        row["safe_with_tolerance"] = result.retained_after_lr
        row["vulnerable"] = len(vulnerable)
        row["combinations"] = result.collusion.combinations_evaluated
    return row


def centralized_row(
    cohort: Cohort, num_snps: int, num_members: int
) -> Dict[str, object]:
    """Run the centralized SecureGenome baseline once."""
    config = paper_config(
        num_snps, study_id=f"central-{num_snps}snps-{num_members}gdos"
    )
    result = run_centralized_study(cohort, config, num_members)
    row: Dict[str, object] = {
        "system": "Centralized",
        "gdos": num_members,
        "snps": num_snps,
        "genomes": cohort.case.num_individuals,
        "maf": result.retained_after_maf,
        "ld": result.retained_after_ld,
        "lr": result.retained_after_lr,
        "model_ms": result.timings.total_seconds * 1000.0,
        "network_bytes": result.network_bytes,
        "network_messages": result.network_messages,
        "release_power": result.release_power,
        "peak_memory_kib": max(result.enclave_peak_memory.values()) / 1024.0,
        "cpu_utilization": max(result.enclave_cpu_utilization.values()),
    }
    for label in ALL_LABELS:
        row[label] = result.timings.get(label) * 1000.0
    return row


def naive_row(
    cohort: Cohort, num_snps: int, num_members: int
) -> Dict[str, object]:
    """Run the naive per-member baseline once."""
    config = paper_config(
        num_snps, study_id=f"naive-{num_snps}snps-{num_members}gdos"
    )
    datasets = partition_cohort(cohort, num_members)
    result = run_naive_study(cohort, config, datasets)
    counts = result.phase_counts()
    return {
        "system": "Naive distributed",
        "gdos": num_members,
        "snps": num_snps,
        "genomes": cohort.case.num_individuals,
        "maf": counts["MAF"],
        "ld": counts["LD"],
        "lr": counts["LR"],
    }


def collusion_row(
    cohort: Cohort,
    num_snps: int,
    num_members: int,
    f_values: List[int],
) -> Dict[str, object]:
    """One Table 5 row: collusion-tolerant GenDPR for a (G, f) setting."""
    label = (
        f"f={f_values[0]}"
        if len(f_values) == 1
        else "f={" + ",".join(str(f) for f in f_values) + "}"
    )
    row = gendpr_row(
        cohort,
        num_snps,
        num_members,
        collusion=CollusionPolicy(tuple(f_values)),
        study_id=f"collusion-G{num_members}-{label}",
    )
    row["setting"] = f"G = {num_members}, {label}"
    f0_safe = int(row["f0_safe"])
    if f0_safe:
        row["safe_pct"] = 100.0 * int(row["safe_with_tolerance"]) / f0_safe
        row["vulnerable_pct"] = 100.0 * int(row["vulnerable"]) / f0_safe
    else:
        row["safe_pct"] = row["vulnerable_pct"] = 0.0
    return row
