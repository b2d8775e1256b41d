"""Release utility metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GenomicsError
from repro.stats.utility import (
    retention_rate,
    significance_mass_retained,
    top_k_recall,
    utility_report,
)


@pytest.fixture()
def stats():
    # SNP 3 is the strongest hit, then 7, then 1; the rest are near-null.
    return np.array([0.5, 8.0, 0.2, 50.0, 0.1, 0.4, 0.3, 20.0, 0.6, 0.2])


class TestRetention:
    def test_basic(self):
        assert retention_rate([0, 1, 2], 10) == 0.3
        assert retention_rate([], 10) == 0.0
        assert retention_rate(list(range(10)), 10) == 1.0

    def test_validation(self):
        with pytest.raises(GenomicsError):
            retention_rate([0], 0)
        with pytest.raises(GenomicsError):
            retention_rate([10], 10)


class TestTopKRecall:
    def test_full_recall(self, stats):
        assert top_k_recall([3, 7, 1], stats, 3) == 1.0

    def test_partial_recall(self, stats):
        assert top_k_recall([3, 0], stats, 3) == pytest.approx(1 / 3)

    def test_zero_recall(self, stats):
        assert top_k_recall([0, 2, 4], stats, 3) == 0.0

    def test_validation(self, stats):
        with pytest.raises(GenomicsError):
            top_k_recall([0], stats, 0)
        with pytest.raises(GenomicsError):
            top_k_recall([0], stats, 11)
        with pytest.raises(GenomicsError):
            top_k_recall([0, 0], stats, 3)
        with pytest.raises(GenomicsError):
            top_k_recall([99], stats, 3)


class TestSignificanceMass:
    def test_mass_weighting(self, stats):
        total = stats.sum()
        assert significance_mass_retained([3], stats) == pytest.approx(
            50.0 / total
        )
        # Many null SNPs carry little mass.
        nulls = significance_mass_retained([0, 2, 4, 5, 6, 8, 9], stats)
        assert nulls < 0.05

    def test_empty_release(self, stats):
        assert significance_mass_retained([], stats) == 0.0

    def test_all_null_statistics(self):
        zero = np.zeros(4)
        assert significance_mass_retained([0, 1, 2, 3], zero) == 1.0
        assert significance_mass_retained([0], zero) == 0.0

    def test_negative_statistics_rejected(self):
        with pytest.raises(GenomicsError):
            significance_mass_retained([0], np.array([-1.0]))


class TestUtilityReport:
    def test_report_fields(self, stats):
        report = utility_report([3, 7, 0], stats)
        assert report.num_desired == 10
        assert report.num_released == 3
        assert report.retention == 0.3
        assert 0 < report.significance_mass <= 1
        assert "released 3/10" in str(report)

    def test_report_on_protocol_release(self, small_cohort, study_result):
        """Utility of an actual GenDPR release against full-study stats."""
        from repro.stats.chisq import pearson_chi_square

        full_stats = pearson_chi_square(
            small_cohort.case.allele_counts(),
            small_cohort.reference.allele_counts(),
            small_cohort.case.num_individuals,
            small_cohort.reference.num_individuals,
        )
        report = utility_report(study_result.l_safe, full_stats)
        assert report.num_released == study_result.retained_after_lr
        assert 0.0 < report.retention < 1.0
