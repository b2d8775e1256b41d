"""MAF and chi-squared statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.errors import GenomicsError
from repro.genomics.genotype import GenotypeMatrix
from repro.stats.chisq import (
    chi_square_pvalues,
    most_ranked,
    paper_chi_square,
    pearson_chi_square,
    rank_pvalues,
)
from repro.stats.maf import aggregate_counts, allele_frequencies, folded_maf, maf_filter


def _pops(seed=4, rows=50, cols=10):
    rng = np.random.Generator(np.random.PCG64(seed))
    case = GenotypeMatrix((rng.random((rows, cols)) < 0.3).astype(np.uint8))
    control = GenotypeMatrix((rng.random((rows, cols)) < 0.25).astype(np.uint8))
    return case, control


class TestMaf:
    def test_aggregate_counts(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([4, 5, 6], dtype=np.int64)
        assert np.array_equal(aggregate_counts([a, b]), [5, 7, 9])

    def test_aggregate_validation(self):
        with pytest.raises(GenomicsError):
            aggregate_counts([])
        with pytest.raises(GenomicsError):
            aggregate_counts([np.array([1]), np.array([1, 2])])
        with pytest.raises(GenomicsError):
            aggregate_counts([np.array([-1])])

    def test_allele_frequencies(self):
        freqs = allele_frequencies(np.array([0, 5, 10]), 10)
        assert np.allclose(freqs, [0.0, 0.5, 1.0])
        with pytest.raises(GenomicsError):
            allele_frequencies(np.array([11]), 10)
        with pytest.raises(GenomicsError):
            allele_frequencies(np.array([1]), 0)

    def test_folded_maf(self):
        assert np.allclose(
            folded_maf(np.array([0.1, 0.5, 0.9])), [0.1, 0.5, 0.1]
        )

    def test_maf_filter_boundary(self):
        freqs = np.array([0.04999, 0.05, 0.2, 0.96])
        # 0.96 folds to 0.04 -> removed; exact cutoff retained.
        assert maf_filter(freqs, 0.05) == [1, 2]

    def test_maf_filter_validation(self):
        with pytest.raises(GenomicsError):
            maf_filter(np.array([0.1]), 0.6)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_filter_retains_only_common_property(self, counts):
        total = 100
        freqs = allele_frequencies(np.array(counts, dtype=np.int64), total)
        kept = maf_filter(freqs, 0.05)
        mafs = folded_maf(freqs)
        for index in range(len(counts)):
            assert (index in kept) == (mafs[index] >= 0.05)


class TestChiSquare:
    def test_pearson_matches_scipy(self):
        case, control = _pops()
        case_counts = case.allele_counts()
        control_counts = control.allele_counts()
        ours = pearson_chi_square(case_counts, control_counts, 50, 50)
        for snp in range(10):
            table = np.array(
                [
                    [case_counts[snp], control_counts[snp]],
                    [50 - case_counts[snp], 50 - control_counts[snp]],
                ]
            )
            if table.min() == 0 and (table.sum(axis=1) == 0).any():
                continue
            expected, _, _, _ = scipy_stats.chi2_contingency(
                table, correction=False
            )[0], None, None, None
            assert ours[snp] == pytest.approx(expected, rel=1e-9)

    def test_pvalues_match_scipy(self):
        stats = np.array([0.0, 1.0, 5.0, 25.0])
        assert np.allclose(
            chi_square_pvalues(stats), scipy_stats.chi2.sf(stats, df=1)
        )

    def test_degenerate_margin_gives_zero(self):
        # Allele absent everywhere: no association evidence.
        stat = pearson_chi_square(np.array([0]), np.array([0]), 10, 10)
        assert stat[0] == 0.0

    def test_paper_chi_square(self):
        stat = paper_chi_square(np.array([12]), np.array([8]))
        assert stat[0] == pytest.approx((12 - 8) ** 2 / 8)
        assert paper_chi_square(np.array([5]), np.array([0]))[0] == 0.0

    def test_count_validation(self):
        with pytest.raises(GenomicsError):
            pearson_chi_square(np.array([60]), np.array([0]), 50, 50)
        with pytest.raises(GenomicsError):
            pearson_chi_square(np.array([1, 2]), np.array([1]), 50, 50)
        with pytest.raises(GenomicsError):
            pearson_chi_square(np.array([1]), np.array([1]), 0, 50)

    def test_rank_pvalues_order(self):
        # A strongly associated SNP must out-rank an unassociated one.
        pvals = rank_pvalues(
            np.array([40, 25]), np.array([10, 25]), 50, 50
        )
        assert pvals[0] < pvals[1]

    def test_most_ranked(self):
        pvals = np.array([0.5, 0.01, 0.5])
        assert most_ranked(0, 1, pvals) == 1
        assert most_ranked(1, 0, pvals) == 1
        assert most_ranked(0, 2, pvals) == 0  # tie -> lower index

    def test_chi2_sf_scalar_matches_scipy(self):
        from repro.stats.ld import chi2_sf_1df

        for stat in (0.0, 0.5, 3.84, 19.5, 40.0):
            assert chi2_sf_1df(stat) == pytest.approx(
                float(scipy_stats.chi2.sf(stat, df=1)), rel=1e-9, abs=1e-300
            )
