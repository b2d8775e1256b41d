#!/usr/bin/env python3
"""Dynamic federated study: re-assessment as genomes arrive.

GWAS federations grow: labs sequence new participants continuously.
GenDPR builds on DyPS's dynamic setting, where the release assessment
re-runs "as soon as new genomes become available".  This example drives
a three-lab federation through four epochs of data arrival and shows
the release ledger evolving — including *revocations*: SNPs an early
small cohort deemed safe that the larger cohort does not.

Run:  python examples/dynamic_study.py
"""

from __future__ import annotations

from repro.config import StudyConfig
from repro.core.dynamic import DynamicStudy
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

NUM_SNPS = 400
LABS = ["lab-boston", "lab-lyon", "lab-osaka"]


def main() -> None:
    spec = SyntheticSpec(
        num_snps=NUM_SNPS,
        num_case=1_200,
        num_control=900,
        case_drift_sd=0.06,
        seed=33,
    )
    cohort, _ = generate_cohort(spec)
    config = StudyConfig(snp_count=NUM_SNPS, study_id="dynamic-amd")

    study = DynamicStudy(
        cohort.panel,
        cohort.reference,
        config,
        LABS,
        min_cohort_size=250,
    )

    # Four waves of sequencing results, arriving lab by lab.
    case = cohort.case.array()
    waves = [
        {"lab-boston": (0, 90)},
        {"lab-lyon": (90, 260), "lab-osaka": (260, 420)},
        {"lab-boston": (420, 700), "lab-lyon": (700, 900)},
        {"lab-osaka": (900, 1200)},
    ]

    print(f"{'epoch':>5s} {'genomes':>8s} {'assessed':>9s} {'safe':>5s} "
          f"{'new':>4s} {'revoked':>8s}")
    print("-" * 45)
    for wave in waves:
        for lab, (start, stop) in wave.items():
            study.submit_batch(lab, GenotypeMatrix(case[start:stop]))
        report = study.close_epoch()
        safe = len(report.result.l_safe) if report.result else 0
        print(f"{report.epoch:>5d} {report.total_case_genomes:>8d} "
              f"{str(report.assessed):>9s} {safe:>5d} "
              f"{len(report.newly_released):>4d} {len(report.revoked):>8d}")

    exposure = study.revocation_exposure()
    print(f"\nCurrently released SNPs: {len(study.released_snps)}")
    if exposure:
        print(f"Revocation exposure: {len(exposure)} SNPs were published by "
              f"an earlier epoch\nbut are unsafe under the grown cohort — "
              f"already-public statistics cannot be\nunpublished; the ledger "
              f"surfaces them for the federation's governance process.")
    else:
        print("No revocations occurred: every early release stayed safe as "
              "the cohort grew.")


if __name__ == "__main__":
    main()
