"""The shared verification pipeline (pure functions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import (
    ld_prune,
    lr_ranking_order,
    matrix_moment_source,
    run_local_pipeline,
)
from repro.errors import ProtocolError
from repro.stats.chisq import most_ranked
from repro.stats.ld import PairMoments, r_squared


def _statistic(moments):
    """A pair's ``N * r^2``, as the walk's statistic sources give it."""
    return moments.count * r_squared(moments)


class TestLdPrune:
    def _const_source(self, dependent_pairs):
        """Statistic source marking exactly ``dependent_pairs`` as dependent."""

        def get_statistic(left, right, _position):
            n = 10_000
            if (left, right) in dependent_pairs:
                # Perfectly correlated columns with frequency 0.5.
                return _statistic(PairMoments(n // 2, n // 2, n // 2, n))
            # Independent columns with frequency 0.5.
            return _statistic(PairMoments(n // 2, n // 2, n // 4, n))

        return get_statistic

    def test_all_independent_keeps_everything(self):
        ranking = np.zeros(10)
        kept = ld_prune([1, 3, 5, 7], ranking, self._const_source(set()), 1e-5)
        assert kept == [1, 3, 5, 7]

    def test_dependent_pair_keeps_better_ranked(self):
        ranking = np.array([0.9, 0.9, 0.9, 0.1, 0.9, 0.9, 0.9, 0.9])
        kept = ld_prune(
            [2, 3], ranking, self._const_source({(2, 3)}), 1e-5
        )
        assert kept == [3]

    def test_dependent_run_keeps_single_winner(self):
        # A whole block of mutually dependent SNPs -> one survivor.
        ranking = np.array([0.5, 0.4, 0.01, 0.6, 0.7])
        source = self._const_source({(0, 1), (1, 2), (2, 3), (2, 4)})
        kept = ld_prune([0, 1, 2, 3, 4], ranking, source, 1e-5)
        assert kept == [2]

    def test_ties_and_ulp_gaps_rank_as_on_the_array(self):
        """The walk ranks a linked run exactly as folding ``most_ranked``
        over the numpy ranking does, ties and one-ulp gaps included."""
        p = 1e-3
        below = np.nextafter(p, 0.0)
        ranking = np.array([p, p, below, p, below, np.nextafter(p, 1.0)])
        snps = list(range(len(ranking)))
        linked = {(a, b) for a in snps for b in snps}
        expected = snps[0]
        for snp in snps[1:]:
            expected = most_ranked(expected, snp, ranking)
        kept = ld_prune(snps, ranking, self._const_source(linked), 1e-5)
        assert kept == [expected] == [2]

    def test_short_inputs(self):
        ranking = np.zeros(5)
        assert ld_prune([], ranking, self._const_source(set()), 1e-5) == []
        assert ld_prune([2], ranking, self._const_source(set()), 1e-5) == [2]

    def test_positions_passed_to_source(self):
        seen = []

        def get_statistic(left, right, position):
            seen.append(position)
            return _statistic(PairMoments(0, 0, 0, 100))

        ld_prune([10, 20, 30], np.zeros(31), get_statistic, 1e-5)
        assert seen == [1, 2]


class TestLrRankingOrder:
    def test_orders_by_pvalue(self):
        ranking = np.array([0.5, 0.1, 0.9, 0.2])
        assert lr_ranking_order([0, 1, 2, 3], ranking) == [1, 3, 0, 2]

    def test_stable_on_ties(self):
        ranking = np.array([0.5, 0.5, 0.5])
        assert lr_ranking_order([0, 1, 2], ranking) == [0, 1, 2]

    def test_subset_columns(self):
        ranking = np.array([0.9, 0.1, 0.5, 0.2])
        # Positions are into the given column list, not global indices.
        assert lr_ranking_order([0, 2], ranking) == [1, 0]


class TestRunLocalPipeline:
    def _populations(self, seed=20):
        rng = np.random.Generator(np.random.PCG64(seed))
        freqs = rng.uniform(0.02, 0.45, size=60)
        case = (rng.random((200, 60)) < freqs).astype(np.uint8)
        reference = (rng.random((180, 60)) < freqs).astype(np.uint8)
        return case, reference

    def test_outcome_structure(self):
        case, reference = self._populations()
        outcome = run_local_pipeline(
            case, reference, maf_cutoff=0.05, ld_cutoff=1e-5, alpha=0.1, beta=0.9
        )
        assert set(outcome.l_safe) <= set(outcome.l_double_prime)
        assert set(outcome.l_double_prime) <= set(outcome.l_prime)
        assert 0.0 <= outcome.release_power <= 1.0
        counts = outcome.phase_counts()
        assert counts["MAF"] >= counts["LD"] >= counts["LR"]

    def test_maf_phase_matches_manual_filter(self):
        case, reference = self._populations()
        outcome = run_local_pipeline(
            case, reference, maf_cutoff=0.05, ld_cutoff=1e-5, alpha=0.1, beta=0.9
        )
        pooled = np.vstack([case, reference])
        freqs = pooled.mean(axis=0)
        manual = [
            i for i, f in enumerate(freqs) if min(f, 1 - f) >= 0.05
        ]
        assert outcome.l_prime == manual

    def test_deterministic(self):
        case, reference = self._populations()
        kwargs = dict(maf_cutoff=0.05, ld_cutoff=1e-5, alpha=0.1, beta=0.9)
        one = run_local_pipeline(case, reference, **kwargs)
        two = run_local_pipeline(case, reference, **kwargs)
        assert one.l_safe == two.l_safe

    def test_strict_maf_empties_pipeline(self):
        case, reference = self._populations()
        outcome = run_local_pipeline(
            case, reference, maf_cutoff=0.499, ld_cutoff=1e-5, alpha=0.1, beta=0.9
        )
        assert outcome.l_prime == [] or len(outcome.l_prime) < 5
        if not outcome.l_double_prime:
            assert outcome.l_safe == []

    def test_shape_validation(self):
        case, reference = self._populations()
        with pytest.raises(ProtocolError):
            run_local_pipeline(
                case,
                reference[:, :10],
                maf_cutoff=0.05,
                ld_cutoff=1e-5,
                alpha=0.1,
                beta=0.9,
            )
        with pytest.raises(ProtocolError):
            run_local_pipeline(
                case[0],
                reference,
                maf_cutoff=0.05,
                ld_cutoff=1e-5,
                alpha=0.1,
                beta=0.9,
            )

    def test_matrix_moment_source_pools_populations(self):
        case, reference = self._populations()
        source = matrix_moment_source(case, reference)
        pooled = np.vstack([case, reference]).astype(np.int64)
        moments = PairMoments(
            int(pooled[:, 3].sum()),
            int(pooled[:, 7].sum()),
            int((pooled[:, 3] & pooled[:, 7]).sum()),
            pooled.shape[0],
        )
        assert source(3, 7, 0).hex() == _statistic(moments).hex()
