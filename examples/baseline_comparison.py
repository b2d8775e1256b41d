#!/usr/bin/env python3
"""GenDPR vs centralized vs naive — the Table 4 story in one script.

Runs the same study three ways:

* **Centralized** — SecureGenome in one TEE; every member ships its
  (encrypted) genomes to a central enclave.  Correct, but genomes cross
  institutional borders (a GDPR problem) at genome-scale bandwidth.
* **GenDPR** — the distributed protocol; only aggregate statistics
  move, and the selected SNPs match the centralized verdict *exactly*.
* **Naive distributed** — each member verifies on its local shard and
  the leader intersects; cheap, but the LD and LR phases need globally
  aggregated statistics, so the naive verdict diverges.

Run:  python examples/baseline_comparison.py
"""

from __future__ import annotations

from repro.config import StudyConfig
from repro.core.baseline import run_centralized_study
from repro.core.naive import run_naive_study
from repro.core.protocol import run_study
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

NUM_SNPS = 600
NUM_MEMBERS = 3


def main() -> None:
    spec = SyntheticSpec(
        num_snps=NUM_SNPS, num_case=1_200, num_control=1_000, seed=4
    )
    cohort, _ = generate_cohort(spec)
    config = StudyConfig(snp_count=NUM_SNPS, study_id="baselines")

    central = run_centralized_study(cohort, config, NUM_MEMBERS)
    gendpr = run_study(cohort, config, NUM_MEMBERS)
    naive = run_naive_study(
        cohort, config, partition_cohort(cohort, NUM_MEMBERS)
    )

    print(f"Study: {cohort.describe()}, {NUM_MEMBERS} GDOs\n")
    print(f"{'system':<20s} {'MAF':>6s} {'LD':>6s} {'LR':>6s} "
          f"{'net bytes':>12s} {'time(ms)':>10s}")
    print("-" * 64)
    rows = [
        ("Centralized", central.phase_counts(), central.network_bytes,
         central.timings.total_seconds * 1e3),
        ("GenDPR", gendpr.phase_counts(), gendpr.network_bytes,
         gendpr.timings.total_seconds * 1e3),
        ("Naive distributed", naive.phase_counts(), None, None),
    ]
    for name, counts, net, ms in rows:
        net_s = f"{net:,}" if net is not None else "-"
        ms_s = f"{ms:.1f}" if ms is not None else "-"
        print(f"{name:<20s} {counts['MAF']:>6d} {counts['LD']:>6d} "
              f"{counts['LR']:>6d} {net_s:>12s} {ms_s:>10s}")

    exact = (gendpr.l_prime == central.l_prime
             and gendpr.l_double_prime == central.l_double_prime
             and gendpr.l_safe == central.l_safe)
    print(f"\nGenDPR == centralized, phase by phase: {exact}")
    naive_disjoint = set(naive.l_safe) - set(central.l_safe)
    print(f"Naive SNPs not in the correct verdict: {len(naive_disjoint)} "
          f"(these selections are untrustworthy)")
    print(f"\nGenome bytes the centralized design shipped: "
          f"{cohort.case.nbytes:,}+ — GenDPR shipped none.")


if __name__ == "__main__":
    main()
