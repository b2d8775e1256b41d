"""Paper-scenario workload builders.

The evaluation (Section 7) uses the dbGaP AMD cohort — 14,860 case and
13,035 control genomes — over 1,000 to 10,000 SNPs, split equally among
2 to 7 GDOs.  These builders reproduce every configuration with two
substitutions recorded in DESIGN.md / EXPERIMENTS.md:

* genomes are synthetic (:mod:`repro.genomics.synthetic`), and
* population sizes are multiplied by ``REPRO_BENCH_SCALE`` (default
  0.1) because the paper's enclaves are compiled C/C++ while this
  reproduction is pure Python; the scale factor shrinks wall time while
  preserving every ratio the figures are about.  Set
  ``REPRO_BENCH_SCALE=1`` for full-size runs.

Cohorts are cached per (case-size, SNP-count, seed) so the 2/3/5/7-GDO
runs of one figure share the same data, exactly as in the paper.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from ..config import CollusionPolicy, PrivacyThresholds, StudyConfig
from ..genomics.population import Cohort
from ..genomics.synthetic import SyntheticSpec, SyntheticTruth, generate_cohort

#: Population sizes of the dbGaP phs001039.v1.p1 dataset the paper used.
PAPER_CASE_FULL = 14_860
PAPER_CASE_HALF = 7_430
PAPER_CONTROL = 13_035

#: SNP-set sizes of Table 4.
PAPER_SNP_COUNTS = (1_000, 2_500, 5_000, 10_000)
#: Federation sizes of Figures 5/6 and Table 3.
PAPER_GDO_COUNTS = (2, 3, 5, 7)
#: Federation sizes of Table 5.
PAPER_COLLUSION_GDO_COUNTS = (3, 4, 5)

#: SecureGenome verification settings adopted by the paper.
PAPER_THRESHOLDS = PrivacyThresholds(
    maf_cutoff=0.05,
    ld_cutoff=1e-5,
    false_positive_rate=0.1,
    power_threshold=0.9,
)

_DEFAULT_SCALE = 0.1
_COHORT_CACHE: Dict[Tuple[int, int, int, int], Tuple[Cohort, SyntheticTruth]] = {}

#: Case-frequency drift coefficient: per-SNP drift is K / sqrt(L_des).
#: The LR detector's cumulative signal grows with the number of retained
#: SNPs, so keeping the *total* leakage of a cohort roughly constant
#: across panel sizes (as it is in a real dataset, where the biology
#: does not change with the analyst's panel choice) requires per-SNP
#: drift to shrink as the panel grows.  K is calibrated so the full-
#: federation (f = 0) verification ends just below the 0.9 power
#: threshold — the regime the paper's cohort sits in, which is what
#: makes collusion combinations reject a visible minority of SNPs
#: (Table 5) while f = 0 retains everything (Table 4).
DRIFT_COEFFICIENT = 1.2
#: Per-site stratification: the paper's federation spans geographically
#: distant biocenters, so each collection site's allele frequencies
#: deviate from the pooled case frequencies by this (fixed, panel-size
#: independent) per-SNP standard deviation — Fst-scale heterogeneity.
SITE_EFFECT_SD = 0.04
#: Collection sites in the synthetic cohort (independent of G so the
#: same cohort serves every federation size, as in the paper).
NUM_SITES = 12


def bench_scale() -> float:
    """The population scale factor (env ``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", _DEFAULT_SCALE))


def scaled(size: int, scale: float | None = None) -> int:
    """A paper population size under the bench scale (min 50)."""
    factor = bench_scale() if scale is None else scale
    return max(50, int(round(size * factor)))


def paper_cohort(
    num_case: int, num_snps: int, *, scale: float | None = None, seed: int = 2022
) -> Tuple[Cohort, SyntheticTruth]:
    """The (scaled) cohort for one paper configuration, cached.

    ``num_case`` is the *paper* case count (7,430 or 14,860); the
    control population (which doubles as the LR-test reference, as in
    the paper) is always the scaled 13,035.
    """
    case = scaled(num_case, scale)
    control = scaled(PAPER_CONTROL, scale)
    key = (case, control, num_snps, seed)
    if key not in _COHORT_CACHE:
        spec = SyntheticSpec(
            num_snps=num_snps,
            num_case=case,
            num_control=control,
            seed=seed,
            case_drift_sd=DRIFT_COEFFICIENT / num_snps**0.5,
            num_sites=NUM_SITES,
            site_effect_sd=SITE_EFFECT_SD,
        )
        _COHORT_CACHE[key] = generate_cohort(spec)
    return _COHORT_CACHE[key]


def paper_config(
    num_snps: int,
    *,
    study_id: str,
    collusion: CollusionPolicy | None = None,
    seed: int = 0,
) -> StudyConfig:
    """A study configuration with the paper's SecureGenome thresholds."""
    return StudyConfig(
        snp_count=num_snps,
        thresholds=PAPER_THRESHOLDS,
        collusion=collusion or CollusionPolicy.none(),
        seed=seed,
        study_id=study_id,
    )


def clear_cohort_cache() -> None:
    """Drop cached cohorts (used by tests that tweak the scale)."""
    _COHORT_CACHE.clear()
