"""Attack power evaluation.

Turns the detectors in :mod:`repro.attacks.membership` into the
aggregate numbers the paper reasons about: empirical identification
power (true-positive rate over actual case members) and false-positive
rate (over non-members), for a chosen SNP set.

The central validation of the reproduction lives here: released sets
chosen by GenDPR must keep the LR attack's power below the configured
threshold, while the same attack run over the *withheld* SNPs (or over
a colluder-isolated sub-population) climbs well above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Type, Union

import numpy as np

from ..errors import GenomicsError
from ..genomics.population import Cohort
from .membership import HomerAttack, LrAttack

Detector = Union[Type[LrAttack], Type[HomerAttack]]


@dataclass(frozen=True)
class AttackEvaluation:
    """Empirical performance of one detector on one SNP set."""

    snps: tuple
    power: float
    false_positive_rate: float
    alpha: float
    detector: str

    @property
    def advantage(self) -> float:
        """Detector advantage over random guessing at its operating point."""
        return self.power - self.false_positive_rate


def evaluate_attack(
    cohort: Cohort,
    snp_indices: Sequence[int],
    *,
    alpha: float = 0.1,
    detector: Detector = LrAttack,
    holdout_fraction: float = 0.5,
) -> AttackEvaluation:
    """Measure a detector's power and FPR for a released SNP set.

    The reference population is split in half: one half calibrates the
    detector's threshold (the adversary's auxiliary data), the other
    half measures the false-positive rate on genuine non-members, so
    the FPR estimate is not biased by calibrating and testing on the
    same individuals.  Power is measured over the full case population.

    Args:
        cohort: the study cohort (case genomes are the attack targets).
        snp_indices: the SNPs whose statistics the release exposes.
        alpha: the detector's tolerated false-positive rate.
        detector: :class:`LrAttack` or :class:`HomerAttack`.
        holdout_fraction: share of the reference kept for FPR testing.
    """
    snps = [int(s) for s in snp_indices]
    if not snps:
        raise GenomicsError("cannot attack an empty SNP set")
    if not 0.0 < holdout_fraction < 1.0:
        raise GenomicsError("holdout_fraction must be in (0, 1)")

    case = cohort.case.array()[:, snps]
    reference = cohort.reference.array()[:, snps]
    split = max(1, int(reference.shape[0] * (1.0 - holdout_fraction)))
    if split >= reference.shape[0]:
        raise GenomicsError("reference population too small to split")
    calibration, holdout = reference[:split], reference[split:]

    case_freqs = cohort.case.allele_counts(snps).astype(np.float64) / (
        cohort.case.num_individuals
    )
    ref_freqs = cohort.reference.allele_counts(snps).astype(np.float64) / (
        cohort.reference.num_individuals
    )

    attack = detector(case_freqs, ref_freqs, calibration, alpha=alpha)
    power = float(np.mean(attack.infer_batch(case)))
    fpr = float(np.mean(attack.infer_batch(holdout)))
    return AttackEvaluation(
        snps=tuple(snps),
        power=power,
        false_positive_rate=fpr,
        alpha=alpha,
        detector=detector.__name__,
    )


def compare_released_vs_withheld(
    cohort: Cohort,
    released: Sequence[int],
    candidate_pool: Sequence[int],
    *,
    alpha: float = 0.1,
) -> dict:
    """Attack power on the released set vs the withheld complement.

    ``candidate_pool`` is typically ``L''`` (the LD survivors the
    LR-test chose from); the withheld set is its complement w.r.t. the
    released one.  Returns both evaluations for reporting.
    """
    released_set = set(int(s) for s in released)
    withheld = [s for s in candidate_pool if int(s) not in released_set]
    outcome = {
        "released": evaluate_attack(cohort, released, alpha=alpha)  # lint: declassify(aggregate power and false-positive rate on the released SNPs are the comparison's output)
        if released
        else None,
        "withheld": evaluate_attack(cohort, withheld, alpha=alpha)  # lint: declassify(aggregate power and false-positive rate on the withheld SNPs are the comparison's baseline)
        if withheld
        else None,
    }
    return outcome
