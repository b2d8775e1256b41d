#!/usr/bin/env python3
"""Collusion-tolerant verification (paper Section 5.6 / Table 5).

Honest-but-curious federation members can pool what they know and
subtract their own contributions from released statistics, isolating
the honest members' aggregate — which may be identifiable even when the
full federation's release is safe.  GenDPR re-runs every verification
phase over all C(G, G-f) honest-member combinations and releases only
SNPs that are safe in every one.

This script contrasts a plain release with tolerant releases at
increasing f for a 4-member federation, and shows what the withheld
("vulnerable") SNPs would have exposed.

Run:  python examples/collusion_tolerance.py
"""

from __future__ import annotations

from repro.attacks.membership import LrAttack, collusion_adjusted_frequencies
from repro.config import CollusionPolicy, StudyConfig
from repro.core.protocol import run_study
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

NUM_MEMBERS = 4
NUM_SNPS = 600


def main() -> None:
    spec = SyntheticSpec(
        num_snps=NUM_SNPS,
        num_case=1_400,
        num_control=1_200,
        num_sites=NUM_MEMBERS,
        site_effect_sd=0.05,
        case_drift_sd=0.05,
        seed=21,
    )
    cohort, _ = generate_cohort(spec)

    policies = [
        ("f = 1", CollusionPolicy.static(1)),
        ("f = 2", CollusionPolicy.static(2)),
        ("f = 3 (all-but-one)", CollusionPolicy.static(3)),
        ("f = {1,2,3} (conservative)", CollusionPolicy.conservative(NUM_MEMBERS)),
    ]

    print(f"{NUM_MEMBERS}-member federation, {NUM_SNPS} SNPs\n")
    header = f"{'policy':<28s} {'combos':>6s} {'plain':>6s} {'safe':>6s} {'withheld':>9s} {'time(ms)':>9s}"
    print(header)
    print("-" * len(header))

    for label, policy in policies:
        config = StudyConfig(
            snp_count=NUM_SNPS,
            collusion=policy,
            seed=2,
            study_id=f"collusion-{label}",
        )
        result = run_study(cohort, config, NUM_MEMBERS)
        report = result.collusion
        vulnerable = report.vulnerable_snps(tuple(result.l_safe))
        print(
            f"{label:<28s} {report.combinations_evaluated:>6d} "
            f"{len(report.baseline_safe):>6d} {result.retained_after_lr:>6d} "
            f"{len(vulnerable):>9d} {result.timings.total_seconds * 1000:>9.1f}"
        )

    # --- The actual coalition attack -------------------------------------
    # Under f = G-1, the colluders are every member but one.  They know
    # their own data, so from any released aggregate they can subtract
    # their contributions and isolate the lone honest member's allele
    # frequencies, then run the LR detector against *that* sub-population.
    config = StudyConfig(
        snp_count=NUM_SNPS,
        collusion=CollusionPolicy.static(NUM_MEMBERS - 1),
        seed=2,
        study_id="collusion-analysis",
    )
    result = run_study(cohort, config, NUM_MEMBERS)
    plain_release = list(result.collusion.baseline_safe)
    tolerant_release = result.l_safe

    datasets = partition_cohort(cohort, NUM_MEMBERS)
    honest = datasets[0]
    colluders = datasets[1:]

    def coalition_power(released_snps):
        """LR detection power against the honest member's participants."""
        if not released_snps:
            return 0.0
        total_counts = cohort.case.allele_counts(released_snps)
        isolated_freqs, _ = collusion_adjusted_frequencies(
            total_counts,
            cohort.case.num_individuals,
            [c.case.allele_counts(released_snps) for c in colluders],
            [c.num_case for c in colluders],
        )
        ref = cohort.reference.array()[:, released_snps]
        ref_freqs = ref.mean(axis=0)
        attack = LrAttack(isolated_freqs, ref_freqs, ref[: len(ref) // 2], alpha=0.1)
        return float(attack.infer_batch(
            honest.case.array()[:, released_snps]
        ).mean())

    print("\nCoalition (G-1 colluders) LR attack on the honest member:")
    print(f"  plain release    ({len(plain_release)} SNPs): "
          f"power {coalition_power(plain_release):.3f}")
    print(f"  tolerant release ({len(tolerant_release)} SNPs): "
          f"power {coalition_power(tolerant_release):.3f}")
    print("Collusion tolerance withholds the SNPs that contribute most to "
          "identifying the isolated sub-federation's participants.")


if __name__ == "__main__":
    main()
