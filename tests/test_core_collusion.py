"""Collusion-tolerant GenDPR (Section 5.6)."""

from __future__ import annotations

import math

import pytest

from repro.config import CollusionPolicy, StudyConfig
from repro.core.protocol import run_study
from repro.errors import CollusionConfigError


class TestCollusionPolicy:
    def test_none(self):
        assert not CollusionPolicy.none().enabled

    def test_static(self):
        policy = CollusionPolicy.static(2)
        assert policy.enabled and policy.f_values == (2,)
        with pytest.raises(CollusionConfigError):
            CollusionPolicy.static(0)

    def test_conservative(self):
        assert CollusionPolicy.conservative(4).f_values == (1, 2, 3)
        with pytest.raises(CollusionConfigError):
            CollusionPolicy.conservative(1)

    def test_validate_for(self):
        CollusionPolicy.static(2).validate_for(3)
        with pytest.raises(CollusionConfigError):
            CollusionPolicy.static(3).validate_for(3)

    def test_duplicates_rejected(self):
        with pytest.raises(CollusionConfigError):
            CollusionPolicy((1, 1))

    def test_negative_rejected(self):
        with pytest.raises(CollusionConfigError):
            CollusionPolicy((-1,))


class TestCollusionRun:
    def test_report_present(self, collusion_result):
        report = collusion_result.collusion
        assert report is not None
        assert report.baseline_safe  # plain release non-empty
        # G=3, f=1 -> C(3,2) = 3 combinations.
        assert report.combinations_evaluated == 3
        for outcome in report.outcomes:
            assert outcome.f == 1
            assert len(outcome.member_ids) == 2

    def test_final_set_is_intersection_compatible(self, collusion_result):
        """Every SNP in the tolerant release survived every combination."""
        final = set(collusion_result.l_safe)
        for outcome in collusion_result.collusion.outcomes:
            assert final <= set(outcome.safe_snps)

    def test_vulnerable_accounting(self, collusion_result):
        report = collusion_result.collusion
        vulnerable = report.vulnerable_snps(tuple(collusion_result.l_safe))
        assert set(vulnerable) == set(report.baseline_safe) - set(
            collusion_result.l_safe
        )

    def test_conservative_mode_combination_count(self, small_cohort):
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.conservative(3),
            study_id="conservative",
        )
        result = run_study(small_cohort, config, 3)
        expected = sum(math.comb(3, 3 - f) for f in (1, 2))
        assert result.collusion.combinations_evaluated == expected

    def test_conservative_mode_checks_more_combinations(
        self, small_cohort, collusion_result
    ):
        """f={1,2} evaluates strictly more combinations than f=1 alone,
        and its release survives every one of them.

        (The conservative safe set is *not* necessarily a subset of the
        static one: intersecting at each phase changes the LD walk's
        pairings, so different block representatives can survive.)
        """
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.conservative(3),
            seed=5,
            study_id="test-collusion",  # same seed/id -> same leader
        )
        conservative = run_study(small_cohort, config, 3)
        assert (
            conservative.collusion.combinations_evaluated
            > collusion_result.collusion.combinations_evaluated
        )
        final = set(conservative.l_safe)
        for outcome in conservative.collusion.outcomes:
            assert final <= set(outcome.safe_snps)

    def test_f_equals_g_minus_one(self, small_cohort):
        """Single-GDO combinations: each member's data alone is checked."""
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.static(2),
            study_id="f-g-1",
        )
        result = run_study(small_cohort, config, 3)
        assert result.collusion.combinations_evaluated == 3
        for outcome in result.collusion.outcomes:
            assert len(outcome.member_ids) == 1

    def test_infeasible_f_rejected(self, small_cohort):
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.static(3),
            study_id="bad-f",
        )
        with pytest.raises(CollusionConfigError):
            run_study(small_cohort, config, 3)

    def test_plain_baseline_matches_plain_run(self, small_cohort, collusion_result):
        """The report's baseline equals an actual f=0 GenDPR run."""
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            seed=5,
            study_id="test-collusion",
        )
        plain = run_study(small_cohort, config, 3)
        assert list(collusion_result.collusion.baseline_safe) == plain.l_safe
