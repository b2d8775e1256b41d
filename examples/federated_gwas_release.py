#!/usr/bin/env python3
"""A complete federated GWAS release, the workload the paper motivates.

Five biocenters on different continents hold shards of an age-related
macular degeneration (AMD) style case cohort with real population
stratification between sites.  They want to publish chi-squared
association statistics without enabling membership inference.

The script walks the full middleware pipeline:

1. provision the federation (attestation, channels, signed datasets),
2. run GenDPR's three verification phases,
3. audit that no genome crossed a site boundary,
4. build the open-access release over the safe SNPs, and
5. extend it with DP-perturbed statistics over the withheld SNPs
   (the Section 5.5 hybrid), so every requested position gets a value.

Run:  python examples/federated_gwas_release.py
"""

from __future__ import annotations

from repro.config import StudyConfig
from repro.core.audit import audit_federation, genome_egress_savings
from repro.core.dp import epsilon_for_frequency_error
from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol
from repro.core.release import build_release, hybrid_release
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.stats.chisq import pearson_chi_square
from repro.stats.utility import utility_report

NUM_BIOCENTERS = 5
NUM_SNPS = 1_000


def main() -> None:
    # A stratified multi-site cohort: each collection site's allele
    # frequencies deviate slightly (Fst-scale), as real biobanks' do.
    spec = SyntheticSpec(
        num_snps=NUM_SNPS,
        num_case=1_500,
        num_control=1_300,
        num_sites=NUM_BIOCENTERS,
        site_effect_sd=0.03,
        seed=8,
    )
    cohort, _ = generate_cohort(spec)
    config = StudyConfig(snp_count=NUM_SNPS, study_id="amd-federated")

    # --- 1. Provisioning -------------------------------------------------
    datasets = partition_cohort(cohort, NUM_BIOCENTERS)
    federation = build_federation(config, datasets, cohort)
    print(f"Federation of {NUM_BIOCENTERS} biocenters provisioned; "
          f"leader: {federation.leader_id}")
    print(f"Attested-channel handshakes: {federation.handshake_bytes:,} bytes")

    # --- 2. Verification --------------------------------------------------
    protocol = GenDPRProtocol(federation)
    result = protocol.run()
    print(f"\n{result.summary()}")

    # --- 3. Egress audit --------------------------------------------------
    audit = audit_federation(federation)
    audit.raise_on_violation()
    print("\nEgress audit: CLEAN — payload kinds on the wire:")
    for kind, size in sorted(audit.bytes_by_kind().items()):
        print(f"  {kind:<10s} {size:>12,} plaintext bytes")
    savings = genome_egress_savings(federation, NUM_SNPS)
    print(f"Genome bytes that never left their sites: "
          f"{savings['byte_encoding_avoided_bytes']:,}")

    # --- 4. Exact release over the safe subset ----------------------------
    release = build_release(
        config.study_id, protocol.release_statistics(), result.release_power
    )
    print(f"\nOpen-access release: {len(release.statistics)} SNPs, "
          f"residual detector power {release.residual_power:.3f}")
    print("Most significant released associations:")
    for stat in release.most_significant(5):
        print(f"  SNP #{stat.snp_index:<5d} chi2={stat.chi2:8.2f} "
              f"p={stat.pvalue:.2e} case_freq={stat.case_frequency:.3f}")

    # --- 5. Hybrid DP extension over the withheld complement --------------
    withheld = sorted(set(range(NUM_SNPS)) - set(result.l_safe))
    epsilon = epsilon_for_frequency_error(
        target_error=0.02, num_individuals=cohort.case.num_individuals
    )
    hybrid = hybrid_release(
        release,
        all_snps=NUM_SNPS,
        withheld_case_counts={
            snp: int(count)
            for snp, count in zip(withheld, cohort.case.allele_counts(withheld))
        },
        withheld_reference_counts={
            snp: int(count)
            for snp, count in zip(
                withheld, cohort.reference.allele_counts(withheld)
            )
        },
        epsilon=epsilon,
    )
    print(f"\nHybrid release covers all {len(hybrid.statistics)} desired SNPs:")
    print(f"  exact:        {len(hybrid.exact())}")
    print(f"  DP-perturbed: {len(hybrid.perturbed())} "
          f"(epsilon={epsilon:.4f} per count)")

    # --- 6. What did privacy cost scientifically? --------------------------
    full_stats = pearson_chi_square(
        cohort.case.allele_counts(),
        cohort.reference.allele_counts(),
        cohort.case.num_individuals,
        cohort.reference.num_individuals,
    )
    print(f"\nUtility of the exact release: "
          f"{utility_report(result.l_safe, full_stats)}")


if __name__ == "__main__":
    main()
