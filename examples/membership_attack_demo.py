#!/usr/bin/env python3
"""Why unchecked GWAS releases are dangerous — and what GenDPR prevents.

Plays the adversary of the paper's threat model: armed with a victim's
genotype and a public reference population, attack

  (a) a naive release that publishes statistics over *every* SNP, and
  (b) GenDPR's verified release over the safe subset only,

with both the likelihood-ratio detector (Sankararaman et al.) and
Homer's distance statistic.  The naive release identifies most of the
study's participants; the verified release stays near the detector's
false-positive budget.

Run:  python examples/membership_attack_demo.py
"""

from __future__ import annotations

from repro.attacks.evaluation import evaluate_attack
from repro.attacks.membership import HomerAttack, LrAttack
from repro.config import PrivacyThresholds, StudyConfig
from repro.core.protocol import run_study
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

NUM_SNPS = 500


def main() -> None:
    # A leaky cohort: noticeable case-frequency drift at every SNP.
    spec = SyntheticSpec(
        num_snps=NUM_SNPS,
        num_case=900,
        num_control=900,
        case_drift_sd=0.12,
        seed=14,
    )
    cohort, _ = generate_cohort(spec)
    # A strict study: identification power must stay below 0.4.
    config = StudyConfig(
        snp_count=NUM_SNPS,
        thresholds=PrivacyThresholds(power_threshold=0.4),
        study_id="attack-demo",
    )
    result = run_study(cohort, config, num_members=3)

    naive_snps = list(range(NUM_SNPS))  # publish everything
    safe_snps = result.l_safe  # GenDPR's verdict

    print(f"Cohort: {cohort.describe()}")
    print(f"GenDPR retained {len(safe_snps)} of {NUM_SNPS} SNPs as safe")
    print("(the power threshold binds the protocol's internal calibration; "
          "an external\n re-evaluation below uses fresh reference splits, "
          "so its estimates carry noise)\n")

    print(f"{'release':<22s} {'detector':<12s} {'power':>7s} {'fpr':>6s} {'advantage':>10s}")
    print("-" * 60)
    for release_name, snps in (("ALL SNPs (unchecked)", naive_snps),
                               ("GenDPR safe subset", safe_snps)):
        for detector in (LrAttack, HomerAttack):
            evaluation = evaluate_attack(cohort, snps, alpha=0.1, detector=detector)
            print(
                f"{release_name:<22s} {detector.__name__:<12s} "
                f"{evaluation.power:>7.3f} {evaluation.false_positive_rate:>6.3f} "
                f"{evaluation.advantage:>10.3f}"
            )

    # Single-victim walkthrough with the LR detector on the unchecked
    # release: score one actual participant and one outsider.
    case_freq = cohort.case.allele_counts() / cohort.case.num_individuals
    ref_freq = cohort.reference.allele_counts() / cohort.reference.num_individuals
    attack = LrAttack(
        case_freq, ref_freq, cohort.reference.array()[:400], alpha=0.1
    )
    participant = attack.infer(cohort.case.array()[0])
    outsider = attack.infer(cohort.reference.array()[450])
    print("\nSingle-victim LR test against the unchecked release:")
    print(f"  participant: score {participant.score:8.2f} "
          f"(threshold {participant.threshold:.2f}) -> "
          f"{'IDENTIFIED' if participant.inferred_member else 'not identified'}")
    print(f"  outsider:    score {outsider.score:8.2f} "
          f"(threshold {outsider.threshold:.2f}) -> "
          f"{'false positive' if outsider.inferred_member else 'correctly rejected'}")


if __name__ == "__main__":
    main()
