"""Data-oblivious primitives: correctness vs the non-oblivious versions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TEEError
from repro.stats.lr_test import detection_threshold, empirical_power, select_safe_subset
from repro.stats.maf import maf_filter
from repro.tee.oblivious import (
    oblivious_choose,
    oblivious_empirical_power,
    oblivious_maf_mask,
    oblivious_prefix_selection,
    oblivious_quantile_threshold,
    oblivious_select,
    oblivious_sort,
    oblivious_write,
)


class TestPrimitives:
    def test_select(self):
        values = np.array([10.0, 20.0, 30.0])
        for index in range(3):
            assert oblivious_select(values, index) == values[index]

    def test_select_validation(self):
        with pytest.raises(TEEError):
            oblivious_select(np.array([1.0]), 5)
        with pytest.raises(TEEError):
            oblivious_select(np.zeros((2, 2)), 0)

    def test_write(self):
        values = np.array([1.0, 2.0, 3.0])
        out = oblivious_write(values, 1, 9.0)
        assert list(out) == [1.0, 9.0, 3.0]
        assert list(values) == [1.0, 2.0, 3.0]  # original untouched
        with pytest.raises(TEEError):
            oblivious_write(values, 7, 0.0)

    def test_choose(self):
        assert oblivious_choose(True, 5.0, 7.0) == 5.0
        assert oblivious_choose(False, 5.0, 7.0) == 7.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_sort_matches_numpy(self, values):
        array = np.array(values, dtype=np.float64)
        assert np.array_equal(oblivious_sort(array), np.sort(array))

    def test_sort_edge_cases(self):
        assert oblivious_sort(np.array([])).size == 0
        assert list(oblivious_sort(np.array([3.0]))) == [3.0]
        # Non-power-of-two length with duplicates.
        values = np.array([5.0, 1.0, 5.0, 2.0, 1.0])
        assert np.array_equal(oblivious_sort(values), np.sort(values))
        with pytest.raises(TEEError):
            oblivious_sort(np.zeros((2, 2)))


class TestObliviousStatistics:
    def test_quantile_threshold_matches_reference(self):
        rng = np.random.Generator(np.random.PCG64(3))
        scores = rng.normal(size=173)
        for alpha in (0.05, 0.1, 0.5):
            assert oblivious_quantile_threshold(scores, alpha) == pytest.approx(
                detection_threshold(scores, alpha)
            )

    def test_quantile_validation(self):
        with pytest.raises(TEEError):
            oblivious_quantile_threshold(np.array([]), 0.1)
        with pytest.raises(TEEError):
            oblivious_quantile_threshold(np.array([1.0]), 0.0)

    def test_maf_mask_matches_filter(self):
        rng = np.random.Generator(np.random.PCG64(4))
        freqs = rng.uniform(0, 1, size=300)
        mask = oblivious_maf_mask(freqs, 0.05)
        assert mask.shape == (300,)
        assert sorted(np.nonzero(mask)[0].tolist()) == maf_filter(freqs, 0.05)

    def test_empirical_power_matches_reference(self):
        rng = np.random.Generator(np.random.PCG64(5))
        case = rng.normal(0.5, 1.0, size=211)
        reference = rng.normal(0.0, 1.0, size=187)
        assert oblivious_empirical_power(case, reference, 0.1) == pytest.approx(
            empirical_power(case, reference, 0.1)
        )

    def test_empirical_power_validation(self):
        with pytest.raises(TEEError):
            oblivious_empirical_power(np.array([]), np.array([1.0]), 0.1)


class TestObliviousSelection:
    def _setup(self, seed=6, snps=25):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = rng.uniform(0.1, 0.4, size=snps)
        phat = np.clip(p + rng.normal(0, 0.12, size=snps), 0.01, 0.99)
        case = (rng.random((150, snps)) < phat).astype(np.float64)
        ref = (rng.random((150, snps)) < p).astype(np.float64)
        from repro.stats.lr_test import lr_matrix

        case_lr = lr_matrix(case, case.mean(axis=0), ref.mean(axis=0))
        ref_lr = lr_matrix(ref, case.mean(axis=0), ref.mean(axis=0))
        return case_lr, ref_lr

    def test_matches_greedy_selection(self):
        case_lr, ref_lr = self._setup()
        order = list(range(case_lr.shape[1]))
        reference = select_safe_subset(
            case_lr, ref_lr, order, alpha=0.1, beta=0.6
        )
        mask, power = oblivious_prefix_selection(
            case_lr, ref_lr, np.array(order), alpha=0.1, beta=0.6
        )
        oblivious_positions = sorted(np.nonzero(mask)[0].tolist())
        assert oblivious_positions == sorted(reference.selected_columns)
        assert power == pytest.approx(reference.power)

    def test_mask_shape_is_data_independent(self):
        case_lr, ref_lr = self._setup()
        order = np.arange(case_lr.shape[1])
        strict_mask, _ = oblivious_prefix_selection(
            case_lr, ref_lr, order, alpha=0.1, beta=0.01
        )
        lax_mask, _ = oblivious_prefix_selection(
            case_lr, ref_lr, order, alpha=0.1, beta=0.99
        )
        # Very different selections, identical output shapes.
        assert strict_mask.shape == lax_mask.shape
        assert strict_mask.sum() < lax_mask.sum()
