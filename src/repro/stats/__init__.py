"""GWAS statistics substrate.

* :mod:`~repro.stats.maf` — global minor-allele frequencies (Phase 1).
* :mod:`~repro.stats.chisq` — association tests and SNP ranking.
* :mod:`~repro.stats.ld` — r-squared linkage from pooled moments (Phase 2).
* :mod:`~repro.stats.lr_test` — SecureGenome LR-test and the empirical
  safe-subset search (Phase 3).
* :mod:`~repro.stats.power` — analytical power approximations (ablation).
"""

from .chisq import (
    chi_square_pvalues,
    most_ranked,
    paper_chi_square,
    pearson_chi_square,
    rank_pvalues,
)
from .ld import PairMoments, is_dependent, ld_pvalue, r_squared, r_squared_direct
from .lr_test import (
    LrSelectionResult,
    detection_threshold,
    empirical_power,
    lr_matrix,
    lr_scores,
    lr_weights,
    select_safe_subset,
)
from .maf import aggregate_counts, allele_frequencies, folded_maf, maf_filter
from .power import (
    LrMoments,
    analytical_power,
    lr_moments,
    power_curve,
    select_safe_subset_analytical,
)
from .utility import (
    UtilityReport,
    retention_rate,
    significance_mass_retained,
    top_k_recall,
    utility_report,
)

__all__ = [
    "chi_square_pvalues",
    "most_ranked",
    "paper_chi_square",
    "pearson_chi_square",
    "rank_pvalues",
    "PairMoments",
    "is_dependent",
    "ld_pvalue",
    "r_squared",
    "r_squared_direct",
    "LrSelectionResult",
    "detection_threshold",
    "empirical_power",
    "lr_matrix",
    "lr_scores",
    "lr_weights",
    "select_safe_subset",
    "aggregate_counts",
    "allele_frequencies",
    "folded_maf",
    "maf_filter",
    "LrMoments",
    "analytical_power",
    "lr_moments",
    "power_curve",
    "select_safe_subset_analytical",
    "UtilityReport",
    "retention_rate",
    "significance_mass_retained",
    "top_k_recall",
    "utility_report",
]
