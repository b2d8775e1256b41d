"""Genomic data substrate.

* :mod:`~repro.genomics.snp` — SNP metadata and panels.
* :mod:`~repro.genomics.genotype` — binary genotype matrices and the
  aggregate views the protocol exchanges.
* :mod:`~repro.genomics.population` — case/control/reference cohorts.
* :mod:`~repro.genomics.synthetic` — deterministic synthetic cohort
  generation (the dbGaP-data substitution; see DESIGN.md).
* :mod:`~repro.genomics.partition` — equal horizontal splits across
  federation members.
* :mod:`~repro.genomics.vcf` — signed genotype datasets, the form in
  which the trusted module accepts a member's genomes.
"""

# perfbench/ imports these by package path.
from .synthetic import SyntheticSpec, generate_cohort

__all__ = ["SyntheticSpec", "generate_cohort"]
