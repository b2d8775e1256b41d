"""LD from pooled moments and the SecureGenome LR-test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenomicsError
from repro.stats import (
    PairMoments,
    analytical_power,
    detection_threshold,
    empirical_power,
    is_dependent,
    ld_pvalue,
    lr_matrix,
    lr_scores,
    lr_weights,
    power_curve,
    r_squared,
    r_squared_direct,
    select_safe_subset,
    select_safe_subset_analytical,
)


def _moments_from_columns(left, right) -> PairMoments:
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    return PairMoments(
        mu_l=int(left.sum()),
        mu_r=int(right.sum()),
        mu_lr=int((left * right).sum()),
        count=len(left),
    )


class TestPairMoments:
    def test_addition(self):
        a = PairMoments(1, 2, 1, 10)
        b = PairMoments(3, 1, 0, 5)
        total = a + b
        assert total == PairMoments(4, 3, 1, 15)


class TestRSquared:
    def test_matches_direct_computation(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            left = (rng.random(200) < 0.4).astype(np.int64)
            right = np.where(
                rng.random(200) < 0.7, left, (rng.random(200) < 0.4)
            ).astype(np.int64)
            moments = _moments_from_columns(left, right)
            assert r_squared(moments) == pytest.approx(
                r_squared_direct(left, right), abs=1e-12
            )

    def test_moment_additivity_equals_pooled(self):
        """Sum of per-population moments == moments of pooled population.

        This is the mathematical heart of GenDPR's Phase 2 correction.
        """
        rng = np.random.Generator(np.random.PCG64(9))
        pops = [
            ((rng.random(60) < 0.3).astype(np.int64), (rng.random(60) < 0.5).astype(np.int64))
            for _ in range(3)
        ]
        first, second, third = (_moments_from_columns(l, r) for l, r in pops)
        summed = first + second + third
        pooled_left = np.concatenate([l for l, _ in pops])
        pooled_right = np.concatenate([r for _, r in pops])
        assert summed == _moments_from_columns(pooled_left, pooled_right)

    def test_perfect_correlation(self):
        column = np.array([0, 1, 0, 1, 1], dtype=np.int64)
        assert r_squared(_moments_from_columns(column, column)) == pytest.approx(1.0)

    def test_constant_column_gives_zero(self):
        const = np.ones(10, dtype=np.int64)
        varying = np.array([0, 1] * 5, dtype=np.int64)
        assert r_squared(_moments_from_columns(const, varying)) == 0.0

    def test_tiny_population(self):
        assert r_squared(PairMoments(0, 0, 0, 1)) == 0.0
        assert ld_pvalue(PairMoments(0, 0, 0, 0)) == 1.0

    def test_independence_pvalue_large(self):
        rng = np.random.Generator(np.random.PCG64(10))
        left = (rng.random(5000) < 0.4).astype(np.int64)
        right = (rng.random(5000) < 0.4).astype(np.int64)
        assert ld_pvalue(_moments_from_columns(left, right)) > 1e-5

    def test_dependence_pvalue_small(self):
        rng = np.random.Generator(np.random.PCG64(11))
        left = (rng.random(5000) < 0.4).astype(np.int64)
        right = np.where(rng.random(5000) < 0.9, left, 0).astype(np.int64)
        moments = _moments_from_columns(left, right)
        assert ld_pvalue(moments) < 1e-5
        assert is_dependent(moments, 1e-5)

    def test_is_dependent_validation(self):
        with pytest.raises(GenomicsError):
            is_dependent(PairMoments.zero(), 0.0)

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_r_squared_bounds_property(self, seed, n):
        rng = np.random.Generator(np.random.PCG64(seed))
        left = (rng.random(n) < 0.5).astype(np.int64)
        right = (rng.random(n) < 0.5).astype(np.int64)
        value = r_squared(_moments_from_columns(left, right))
        assert 0.0 <= value <= 1.0


class TestLrTest:
    def _setup(self, seed=12, n_case=300, n_ref=300, snps=40, drift=0.1):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = rng.uniform(0.1, 0.4, size=snps)
        phat = np.clip(p + rng.normal(0, drift, size=snps), 0.01, 0.99)
        case = (rng.random((n_case, snps)) < phat).astype(np.uint8)
        ref = (rng.random((n_ref, snps)) < p).astype(np.uint8)
        case_freq = case.mean(axis=0)
        ref_freq = ref.mean(axis=0)
        return case, ref, case_freq, ref_freq

    def test_lr_matrix_values(self):
        case, _ref, case_freq, ref_freq = self._setup()
        matrix = lr_matrix(case, case_freq, ref_freq)
        w1, w0 = lr_weights(case_freq, ref_freq)
        n, l = 5, 7
        expected = w1[l] if case[n, l] else w0[l]
        assert matrix[n, l] == pytest.approx(expected)

    def test_lr_scores_are_row_sums(self):
        case, _ref, case_freq, ref_freq = self._setup()
        matrix = lr_matrix(case, case_freq, ref_freq)
        assert np.allclose(lr_scores(matrix), matrix.sum(axis=1))
        assert np.allclose(
            lr_scores(matrix, [0, 3]), matrix[:, [0, 3]].sum(axis=1)
        )

    def test_lr_matrix_merge_invariance(self):
        """Stacked shard matrices == matrix of the pooled population."""
        case, _ref, case_freq, ref_freq = self._setup()
        top, bottom = case[:100], case[100:]
        merged = np.vstack(
            [lr_matrix(top, case_freq, ref_freq), lr_matrix(bottom, case_freq, ref_freq)]
        )
        assert np.array_equal(merged, lr_matrix(case, case_freq, ref_freq))

    def test_lr_matrix_validation(self):
        case, _ref, case_freq, ref_freq = self._setup()
        with pytest.raises(GenomicsError):
            lr_matrix(case[:, :5], case_freq, ref_freq)
        with pytest.raises(GenomicsError):
            lr_matrix(case[0], case_freq, ref_freq)
        with pytest.raises(GenomicsError):
            lr_weights(case_freq[:3], ref_freq)

    def test_detection_threshold_quantile(self):
        scores = np.arange(100, dtype=np.float64)
        threshold = detection_threshold(scores, alpha=0.1)
        assert np.mean(scores > threshold) <= 0.1
        assert threshold == 89.0

    def test_detection_threshold_validation(self):
        with pytest.raises(GenomicsError):
            detection_threshold(np.array([]), 0.1)
        with pytest.raises(GenomicsError):
            detection_threshold(np.array([1.0]), 0.0)

    def test_empirical_power_separated_distributions(self):
        power = empirical_power(
            np.full(100, 10.0), np.zeros(100), alpha=0.1
        )
        assert power == 1.0

    def test_empirical_power_identical_distributions(self):
        scores = np.arange(100, dtype=np.float64)
        assert empirical_power(scores, scores, alpha=0.1) <= 0.15

    def test_case_members_score_higher(self):
        """Members of the case pool have higher LR scores than outsiders."""
        case, ref, case_freq, ref_freq = self._setup(drift=0.15)
        case_scores = lr_scores(lr_matrix(case, case_freq, ref_freq))
        ref_scores = lr_scores(lr_matrix(ref, case_freq, ref_freq))
        assert case_scores.mean() > ref_scores.mean()

    def test_select_safe_subset_blocks_leaky_snps(self):
        case, ref, case_freq, ref_freq = self._setup(drift=0.25, snps=30)
        case_lr = lr_matrix(case, case_freq, ref_freq)
        ref_lr = lr_matrix(ref, case_freq, ref_freq)
        result = select_safe_subset(
            case_lr, ref_lr, range(30), alpha=0.1, beta=0.5
        )
        assert len(result.selected_columns) < 30
        assert result.power < 0.5
        assert result.evaluations == 30

    def test_select_safe_subset_keeps_harmless_snps(self):
        case, ref, case_freq, ref_freq = self._setup(drift=0.0, snps=10)
        case_lr = lr_matrix(case, case_freq, ref_freq)
        ref_lr = lr_matrix(ref, case_freq, ref_freq)
        result = select_safe_subset(
            case_lr, ref_lr, range(10), alpha=0.1, beta=0.9
        )
        assert len(result.selected_columns) == 10

    def test_select_safe_subset_deterministic(self):
        case, ref, case_freq, ref_freq = self._setup()
        case_lr = lr_matrix(case, case_freq, ref_freq)
        ref_lr = lr_matrix(ref, case_freq, ref_freq)
        one = select_safe_subset(case_lr, ref_lr, range(40), alpha=0.1, beta=0.9)
        two = select_safe_subset(case_lr, ref_lr, range(40), alpha=0.1, beta=0.9)
        assert one.selected_columns == two.selected_columns

    def test_select_safe_subset_validation(self):
        case, ref, case_freq, ref_freq = self._setup()
        case_lr = lr_matrix(case, case_freq, ref_freq)
        ref_lr = lr_matrix(ref, case_freq, ref_freq)
        with pytest.raises(GenomicsError):
            select_safe_subset(case_lr, ref_lr, [0, 0], alpha=0.1, beta=0.9)
        with pytest.raises(GenomicsError):
            select_safe_subset(case_lr, ref_lr, [999], alpha=0.1, beta=0.9)
        with pytest.raises(GenomicsError):
            select_safe_subset(
                case_lr, ref_lr[:, :5], range(5), alpha=0.1, beta=0.9
            )


class TestAnalyticalPower:
    def test_agrees_with_empirical_on_extremes(self):
        rng = np.random.Generator(np.random.PCG64(13))
        p = rng.uniform(0.2, 0.4, size=50)
        # Strong leakage: both estimators say "detectable".
        phat_leaky = np.clip(p + 0.25, 0.01, 0.99)
        assert analytical_power(phat_leaky, p, alpha=0.1) > 0.95
        # No leakage: both say "power near alpha".
        assert analytical_power(p, p, alpha=0.1) < 0.2

    def test_monotone_in_snp_count(self):
        rng = np.random.Generator(np.random.PCG64(14))
        p = rng.uniform(0.2, 0.4, size=60)
        phat = np.clip(p + 0.05, 0.01, 0.99)
        curve = power_curve(phat, p, list(range(60)), alpha=0.1)
        assert curve[-1] > curve[0]
        assert curve[-1] <= 1.0

    def test_analytical_selection(self):
        rng = np.random.Generator(np.random.PCG64(15))
        p = rng.uniform(0.2, 0.4, size=40)
        phat = np.clip(p + rng.normal(0, 0.15, 40), 0.01, 0.99)
        selected = select_safe_subset_analytical(
            phat, p, range(40), alpha=0.1, beta=0.5
        )
        assert 0 < len(selected) < 40
        assert (
            analytical_power(phat, p, alpha=0.1, columns=selected) < 0.5
        )

    def test_alpha_validation(self):
        with pytest.raises(GenomicsError):
            analytical_power(np.array([0.3]), np.array([0.3]), alpha=1.5)

    def test_empty_subset_power_zero(self):
        assert (
            analytical_power(np.array([0.3]), np.array([0.3]), alpha=0.1, columns=[])
            == 0.0
        )
