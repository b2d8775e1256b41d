"""The program's closed-form tails against scipy, the test oracle.

The 1-dof chi-squared tail is ``erfc(sqrt(x/2))`` (``ld.chi2_sf_1df``,
mapped over vectors by ``chisq.chi_square_pvalues``), and the
analytical power takes its normal quantile from
``statistics.NormalDist`` and its upper tail from ``erfc``.  None of
them is bit-identical to scipy.  The chi-squared ranking enters the
protocol's decisions only through comparisons (``most_ranked``, the LD
walk's tie-break), so the gate is that every ranking has scipy's stable
order and scipy's tie groups, with the values within a relative 1e-12.

The gate holds down to the smallest normal float (chi-squared ~1,409).
Below it both tails are subnormal and part ways: scipy flushes to 0
from ~1,425 on, the closed form only from ~1,488, so SNPs scipy tied at
0 are ordered there.  The gate folds the subnormal range into one tie
group and the last test pins the divergence itself.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.bench.workloads import PAPER_CASE_FULL, paper_cohort
from repro.genomics.partition import partition_cohort
from repro.stats import chisq, power

MEMBERS = 5
COHORT_SEEDS = (1608, 1609, 201, 301)
#: The smallest normal float64; p-values below it form one tie group.
NORMAL_FLOOR = np.finfo(np.float64).tiny


def _assert_ranking_matches_scipy(case_counts, reference_counts, n_case, n_ref):
    ours = chisq.rank_pvalues(case_counts, reference_counts, n_case, n_ref)
    statistic = chisq.pearson_chi_square(
        case_counts, reference_counts, n_case, n_ref
    )
    oracle = scipy_stats.chi2.sf(statistic, df=1)
    ours, oracle = np.maximum(ours, NORMAL_FLOOR), np.maximum(oracle, NORMAL_FLOOR)
    order = np.argsort(ours, kind="stable")
    assert np.array_equal(order, np.argsort(oracle, kind="stable"))
    # Tie groups: runs of equal values along the shared order.
    assert np.array_equal(np.diff(ours[order]) == 0, np.diff(oracle[order]) == 0)
    np.testing.assert_allclose(ours, oracle, rtol=1e-12)


@pytest.mark.parametrize("seed", COHORT_SEEDS)
def test_every_pool_ranks_as_scipy_does(seed):
    """f0 and every leave-one-member-out pool of a paper cohort."""
    cohort, _truth = paper_cohort(PAPER_CASE_FULL, 1000, scale=0.1, seed=seed)
    reference = cohort.reference.array()
    reference_counts = reference.sum(axis=0)
    members = [
        local.case.array().sum(axis=0)
        for local in partition_cohort(cohort, MEMBERS)
    ]
    sizes = [local.num_case for local in partition_cohort(cohort, MEMBERS)]
    pooled, pooled_size = sum(members), sum(sizes)
    pools = [(pooled, pooled_size)] + [
        (pooled - counts, pooled_size - size)
        for counts, size in zip(members, sizes)
    ]
    for counts, size in pools:
        _assert_ranking_matches_scipy(
            counts, reference_counts, size, reference.shape[0]
        )


@st.composite
def _count_vectors(draw):
    n_case = draw(st.integers(min_value=1, max_value=3000))
    n_ref = draw(st.integers(min_value=1, max_value=3000))
    snps = draw(st.integers(min_value=1, max_value=40))
    case = draw(
        st.lists(st.integers(0, n_case), min_size=snps, max_size=snps)
    )
    reference = draw(
        st.lists(st.integers(0, n_ref), min_size=snps, max_size=snps)
    )
    # Repeat a column so that some rankings carry exact ties.
    if draw(st.booleans()):
        case.append(case[0])
        reference.append(reference[0])
    return np.array(case), np.array(reference), n_case, n_ref


@given(_count_vectors())
@settings(max_examples=300, deadline=None)
def test_drawn_counts_rank_as_scipy_does(counts):
    _assert_ranking_matches_scipy(*counts)


def test_chi_square_pvalues_is_the_closed_form():
    statistic = np.array([0.0, 1e-12, 0.5, 3.84, 19.5, 40.0, 1400.0])
    tails = chisq.chi_square_pvalues(statistic)
    assert tails[0] == 1.0
    assert tails.tolist() == [
        math.erfc(math.sqrt(x / 2.0)) for x in statistic.tolist()
    ]
    # A noisy release can hand in a negative statistic: tail 1, as scipy.
    assert chisq.chi_square_pvalues(np.array([-2.0])).tolist() == [1.0]


def test_the_tails_part_only_below_the_smallest_normal_float():
    statistic = np.array([1400.0, 1450.0, 1480.0])
    ours = chisq.chi_square_pvalues(statistic)
    oracle = scipy_stats.chi2.sf(statistic, df=1)
    assert ours[0] == pytest.approx(oracle[0], rel=1e-12) and ours[0] > NORMAL_FLOOR
    assert oracle[1:].tolist() == [0.0, 0.0]
    assert 0.0 < ours[2] < ours[1] < NORMAL_FLOOR


def _scipy_power(case, reference, alpha):
    """scipy's normal quantile and tail over the same LR moments."""
    moments = power.lr_moments(case, reference)
    threshold = moments.null_mean + scipy_stats.norm.ppf(1 - alpha) * np.sqrt(
        moments.null_var
    )
    z = (threshold - moments.alt_mean) / np.sqrt(moments.alt_var)
    return float(scipy_stats.norm.sf(z)), float(z)


CASE = np.array([0.005, 0.31, 0.12])
REFERENCE = np.array([0.5, 0.3, 0.1])


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01, 1e-6])
def test_analytical_power_matches_scipy_norm(alpha):
    expected, _z = _scipy_power(CASE, REFERENCE, alpha)
    assert power.analytical_power(CASE, REFERENCE, alpha=alpha) == pytest.approx(
        expected, rel=1e-12
    )


def test_analytical_power_keeps_precision_far_in_the_tail():
    """At z = 30 the upper tail is ~5e-198; ``1 - cdf`` would give 0."""
    case, reference = CASE[:1], REFERENCE[:1]
    # z is affine in the quantile: solve z = 30 for alpha.
    _p, z_median = _scipy_power(case, reference, 0.5)
    _p, z_one = _scipy_power(case, reference, scipy_stats.norm.sf(1.0))
    alpha = float(scipy_stats.norm.sf((30.0 - z_median) / (z_one - z_median)))
    expected, z = _scipy_power(case, reference, alpha)
    assert z == pytest.approx(30.0, abs=1e-6)
    assert 1.0 - NormalDist().cdf(z) == 0.0
    assert power.analytical_power(case, reference, alpha=alpha) == pytest.approx(
        expected, rel=1e-12
    )
