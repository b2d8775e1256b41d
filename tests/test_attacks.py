"""Membership-inference attacks validate the protocol's guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.evaluation import compare_released_vs_withheld, evaluate_attack
from repro.attacks.membership import (
    HomerAttack,
    LrAttack,
    collusion_adjusted_frequencies,
)
from repro.errors import GenomicsError
from repro.genomics.synthetic import SyntheticSpec, generate_cohort


@pytest.fixture(scope="module")
def leaky_cohort():
    """A cohort whose case frequencies deviate strongly (easy target)."""
    spec = SyntheticSpec(
        num_snps=150,
        num_case=500,
        num_control=500,
        case_drift_sd=0.15,
        ld_copy_prob=0.5,
        ld_block_mean_length=2.0,
        seed=31,
    )
    cohort, _ = generate_cohort(spec)
    return cohort


def _frequencies(cohort, snps):
    case = cohort.case.allele_counts(snps) / cohort.case.num_individuals
    ref = cohort.reference.allele_counts(snps) / cohort.reference.num_individuals
    return case, ref


class TestLrAttack:
    def test_detects_members_of_leaky_release(self, leaky_cohort):
        snps = list(range(150))
        case_freq, ref_freq = _frequencies(leaky_cohort, snps)
        attack = LrAttack(
            case_freq, ref_freq, leaky_cohort.reference.array()[:250, snps]
        )
        members = attack.infer_batch(leaky_cohort.case.array()[:, snps])
        outsiders = attack.infer_batch(
            leaky_cohort.reference.array()[250:, snps]
        )
        assert members.mean() > 0.8
        assert outsiders.mean() < 0.3

    def test_single_genotype_api(self, leaky_cohort):
        snps = list(range(150))
        case_freq, ref_freq = _frequencies(leaky_cohort, snps)
        attack = LrAttack(
            case_freq, ref_freq, leaky_cohort.reference.array()[:, snps]
        )
        decision = attack.infer(leaky_cohort.case.array()[0, snps])
        assert decision.score == pytest.approx(
            attack.score(leaky_cohort.case.array()[0, snps])
        )
        assert decision.inferred_member == (decision.score > decision.threshold)

    def test_validation(self, leaky_cohort):
        with pytest.raises(GenomicsError):
            LrAttack(
                np.array([0.5]),
                np.array([0.5, 0.5]),
                leaky_cohort.reference.array()[:, :2],
            )
        with pytest.raises(GenomicsError):
            LrAttack(
                np.array([1.5, 0.5]),
                np.array([0.5, 0.5]),
                leaky_cohort.reference.array()[:, :2],
            )


class TestHomerAttack:
    def test_detects_members_of_leaky_release(self, leaky_cohort):
        snps = list(range(150))
        case_freq, ref_freq = _frequencies(leaky_cohort, snps)
        attack = HomerAttack(
            case_freq, ref_freq, leaky_cohort.reference.array()[:250, snps]
        )
        members = attack.infer_batch(leaky_cohort.case.array()[:, snps])
        assert members.mean() > 0.6

    def test_lr_at_least_as_strong_as_homer(self, leaky_cohort):
        """SG's empirical claim: the LR-test dominates Homer's statistic."""
        snps = list(range(150))
        lr = evaluate_attack(leaky_cohort, snps, detector=LrAttack)
        homer = evaluate_attack(leaky_cohort, snps, detector=HomerAttack)
        assert lr.advantage >= homer.advantage - 0.05


class TestEvaluation:
    def test_false_positive_rate_near_alpha(self, leaky_cohort):
        evaluation = evaluate_attack(leaky_cohort, list(range(150)), alpha=0.1)
        assert evaluation.false_positive_rate < 0.3

    def test_validation(self, leaky_cohort):
        with pytest.raises(GenomicsError):
            evaluate_attack(leaky_cohort, [])
        with pytest.raises(GenomicsError):
            evaluate_attack(leaky_cohort, [1], holdout_fraction=0.0)

    def test_compare_released_vs_withheld(self, leaky_cohort):
        outcome = compare_released_vs_withheld(
            leaky_cohort, released=[0, 1, 2], candidate_pool=list(range(10))
        )
        assert outcome["released"] is not None
        assert outcome["withheld"] is not None
        assert outcome["withheld"].snps == tuple(range(3, 10))


class TestProtocolGuarantee:
    def test_gendpr_release_resists_lr_attack(
        self, small_cohort, study_result, study_config
    ):
        """The headline privacy validation: attacking the actually
        released SNP set keeps the detector's power below the study's
        configured threshold."""
        evaluation = evaluate_attack(
            small_cohort,
            study_result.l_safe,
            alpha=study_config.thresholds.false_positive_rate,
        )
        assert (
            evaluation.power
            <= study_config.thresholds.power_threshold + 0.05
        )

    def test_collusion_adjustment(self, small_cohort):
        """Colluders isolating honest members' frequencies: arithmetic."""
        counts = small_cohort.case.allele_counts()
        total = small_cohort.case.num_individuals
        colluder = small_cohort.case.select_individuals(range(100))
        freqs, remaining = collusion_adjusted_frequencies(
            counts, total, [colluder.allele_counts()], [100]
        )
        assert remaining == total - 100
        honest = small_cohort.case.select_individuals(range(100, total))
        expected = honest.allele_counts() / remaining
        assert np.allclose(freqs, expected)

    def test_collusion_adjustment_validation(self, small_cohort):
        counts = small_cohort.case.allele_counts()
        total = small_cohort.case.num_individuals
        with pytest.raises(GenomicsError):
            collusion_adjusted_frequencies(counts, total, [counts], [total])
        with pytest.raises(GenomicsError):
            collusion_adjusted_frequencies(
                counts, total, [counts + 100], [10]
            )
