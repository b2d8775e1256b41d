"""Interdependent release assessment (cumulative exposure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import StudyConfig
from repro.core.dynamic import DynamicStudy
from repro.core.interdependent import (
    admissible_after_history,
    assess_interdependent_release,
    cumulative_release_power,
)
from repro.errors import ProtocolError
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

ALPHA, BETA = 0.1, 0.9


@pytest.fixture(scope="module")
def leaky_cohort():
    spec = SyntheticSpec(
        num_snps=120,
        num_case=500,
        num_control=450,
        case_drift_sd=0.12,
        ld_copy_prob=0.5,
        ld_block_mean_length=2.0,
        seed=61,
    )
    cohort, _ = generate_cohort(spec)
    return cohort


class TestAssessment:
    def test_empty_inputs(self, leaky_cohort):
        outcome = assess_interdependent_release(
            leaky_cohort, [], [], alpha=ALPHA, beta=BETA
        )
        assert outcome.admitted == ()
        assert not outcome.blocked
        assert outcome.cumulative_power == 0.0

    def test_no_prior_admits_up_to_threshold(self, leaky_cohort):
        outcome = assess_interdependent_release(
            leaky_cohort, [], list(range(120)), alpha=ALPHA, beta=BETA
        )
        assert 0 < outcome.admitted_count < 120
        assert outcome.cumulative_power < BETA
        assert outcome.prior_power == 0.0

    def test_prior_exposure_shrinks_admission(self, leaky_cohort):
        fresh = assess_interdependent_release(
            leaky_cohort, [], list(range(60, 120)), alpha=ALPHA, beta=BETA
        )
        # Same candidates, but half the panel is already public.
        burdened = assess_interdependent_release(
            leaky_cohort,
            list(range(0, 60)),
            list(range(60, 120)),
            alpha=ALPHA,
            beta=BETA,
        )
        assert burdened.prior_power > 0.0
        assert burdened.admitted_count <= fresh.admitted_count

    def test_blocked_when_prior_alone_exceeds_threshold(self, leaky_cohort):
        strict_beta = 0.2
        outcome = assess_interdependent_release(
            leaky_cohort,
            list(range(0, 100)),
            [110, 111],
            alpha=ALPHA,
            beta=strict_beta,
        )
        assert outcome.blocked
        assert outcome.admitted == ()
        assert outcome.prior_power >= strict_beta

    def test_admitted_disjoint_from_published(self, leaky_cohort):
        outcome = assess_interdependent_release(
            leaky_cohort,
            [0, 1, 2],
            [1, 2, 3, 4, 5],
            alpha=ALPHA,
            beta=BETA,
        )
        assert set(outcome.admitted) <= {3, 4, 5}

    def test_cumulative_power_respects_threshold(self, leaky_cohort):
        outcome = assess_interdependent_release(
            leaky_cohort, [0, 1], list(range(2, 120)), alpha=ALPHA, beta=0.5
        )
        if not outcome.blocked:
            combined = list(outcome.admitted) + [0, 1]
            assert cumulative_release_power(
                leaky_cohort, combined, alpha=ALPHA
            ) < 0.5 + 0.02  # quantile-granularity slack

    def test_out_of_range_rejected(self, leaky_cohort):
        with pytest.raises(ProtocolError):
            assess_interdependent_release(
                leaky_cohort, [999], [], alpha=ALPHA, beta=BETA
            )

    def test_history_wrapper(self, leaky_cohort):
        direct = assess_interdependent_release(
            leaky_cohort, [0, 1, 2, 3], [10, 11], alpha=ALPHA, beta=BETA
        )
        wrapped = admissible_after_history(
            leaky_cohort, [[0, 1], [2, 3], [1]], [10, 11], alpha=ALPHA, beta=BETA
        )
        assert wrapped.admitted == direct.admitted


class TestCumulativePower:
    def test_empty_release(self, leaky_cohort):
        assert cumulative_release_power(leaky_cohort, [], alpha=ALPHA) == 0.0

    def test_monotone_in_release_size(self, leaky_cohort):
        small = cumulative_release_power(
            leaky_cohort, list(range(10)), alpha=ALPHA
        )
        large = cumulative_release_power(
            leaky_cohort, list(range(80)), alpha=ALPHA
        )
        assert large >= small - 0.05


class TestInterdependentDynamicStudy:
    def test_ledger_never_shrinks_and_exposure_bounded(self):
        spec = SyntheticSpec(
            num_snps=150, num_case=600, num_control=400,
            case_drift_sd=0.06, seed=71,
        )
        cohort, _ = generate_cohort(spec)
        config = StudyConfig(snp_count=150, study_id="interdep", seed=9)
        study = DynamicStudy(
            cohort.panel,
            cohort.reference,
            config,
            ["a", "b"],
            min_cohort_size=150,
            interdependent=True,
        )
        case = cohort.case.array()
        study.submit_batch("a", GenotypeMatrix(case[:200]))
        first = study.close_epoch()
        released_after_first = set(study.released_snps)

        study.submit_batch("b", GenotypeMatrix(case[200:600]))
        second = study.close_epoch()
        released_after_second = set(study.released_snps)

        # Published statistics never leave the ledger.
        assert released_after_first <= released_after_second
        assert set(second.still_released) == released_after_first
        # New admissions are disjoint from prior publications.
        assert not set(second.newly_released) & released_after_first
        # Cumulative exposure on the final cohort stays below beta
        # (up to empirical-quantile slack).
        power = cumulative_release_power(
            cohort, sorted(released_after_second), alpha=0.1
        )
        assert power < 0.9 + 0.05
