#!/usr/bin/env python3
"""Quickstart: run one GenDPR study end to end.

Builds a synthetic federation cohort, runs the three-phase distributed
verification across three genome data owners, and prints what a GWAS
federation actually gets out of GenDPR: the safe SNP subset, the
per-phase timings, and the traffic that crossed between sites.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.config import StudyConfig
from repro.core.protocol import run_study
from repro.genomics.synthetic import SyntheticSpec, generate_cohort


def main() -> None:
    # 1. A study cohort: 1,200 case genomes (the population with the
    #    phenotype of interest) and 1,000 controls, over 800 SNPs.  The
    #    control population doubles as the public reference set, as in
    #    the paper's evaluation.
    spec = SyntheticSpec(num_snps=800, num_case=1200, num_control=1000, seed=1)
    cohort, _truth = generate_cohort(spec)
    print(f"Cohort: {cohort.describe()}")

    # 2. Study parameters: the SecureGenome thresholds the paper adopts
    #    (MAF >= 0.05, LD p-value >= 1e-5, LR-test alpha=0.1 / beta=0.9)
    #    are the defaults of PrivacyThresholds.
    config = StudyConfig(snp_count=800, study_id="quickstart")

    # 3. Run the distributed protocol over a 3-member federation.  Each
    #    member's genomes stay on its premises; only encrypted
    #    intermediate statistics move between the (simulated) enclaves.
    result = run_study(cohort, config, num_members=3)

    print(f"\n{result.summary()}\n")
    print(f"Leader GDO:          {result.leader_id}")
    print(f"Desired SNPs (L_des): {result.l_des}")
    print(f"After MAF     (L'):   {result.retained_after_maf}")
    print(f"After LD      (L''):  {result.retained_after_ld}")
    print(f"Safe release (L_safe): {result.retained_after_lr}")
    print(f"Residual attack power: {result.release_power:.3f} "
          f"(threshold {config.thresholds.power_threshold})")

    print("\nPer-task running time (ms):")
    for label, ms in result.timings.as_milliseconds().items():
        print(f"  {label:<30s} {ms:10.1f}")

    print(f"\nInter-site traffic: {result.network_bytes:,} bytes in "
          f"{result.network_messages} messages")
    print(f"Raw genomes held in federation: {cohort.case.nbytes:,} bytes "
          f"(never transmitted)")


if __name__ == "__main__":
    main()
