"""GWAS statistics substrate.

* :mod:`~repro.stats.maf` — global minor-allele frequencies (Phase 1).
* :mod:`~repro.stats.chisq` — association tests and SNP ranking.
* :mod:`~repro.stats.ld` — r-squared linkage from pooled moments (Phase 2).
* :mod:`~repro.stats.lr_test` — SecureGenome LR-test and the empirical
  safe-subset search (Phase 3).
* :mod:`~repro.stats.power` — analytical power approximations (ablation).
"""
