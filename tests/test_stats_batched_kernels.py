"""Batched numpy kernels vs their scalar loop references.

The shard pipeline leans on vectorised statistics (window pair lists,
reachable LD pair sets, pair-moment slabs, membership pooling,
chi-squared rankings, LR matrices).  Each kernel ships a ``*_scalar``
loop oracle that evaluates the same primitives in the same operation
order, so equality here is *exact* — element-wise identical over
randomised genotype matrices, not approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.errors import GenomicsError
from repro.stats import chisq, ld, lr_test
from repro.tee.storage import pack_columns

SEEDS = (0, 1, 7)


def _random_genotypes(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    frequencies = rng.uniform(0.02, 0.6, size=cols)
    return (rng.random((rows, cols)) < frequencies).astype(np.int8)


class TestWindowPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("window", [1, 3, 25])
    def test_matches_scalar_on_random_walks(self, seed, window):
        rng = np.random.default_rng(seed)
        snps = sorted(rng.choice(500, size=60, replace=False).tolist())
        fast = ld.window_pairs(snps, window)
        slow = ld.window_pairs_scalar(snps, window)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("snps", [[], [5], [5, 9]])
    def test_degenerate_walks(self, snps):
        fast = ld.window_pairs(snps, 25)
        slow = ld.window_pairs_scalar(snps, 25)
        assert np.array_equal(fast, slow)
        assert fast.shape == (max(0, len(snps) - 1), 2)

    def test_window_larger_than_walk(self):
        snps = [3, 1, 4, 1, 5][:4]
        fast = ld.window_pairs(snps, 100)
        slow = ld.window_pairs_scalar(snps, 100)
        assert np.array_equal(fast, slow)
        assert fast.shape[0] == 6  # all C(4, 2) pairs

    def test_rejects_bad_window(self):
        from repro.errors import GenomicsError

        with pytest.raises(GenomicsError):
            ld.window_pairs([1, 2, 3], 0)


#: Few distinct ranking p-values, so draws are full of ties.
_TIED_PVALUES = st.sampled_from([0.0, 1e-300, 0.01, 0.01 + 1e-17, 0.5, 1.0])


@st.composite
def _walks(draw, max_snps=40, universe=120):
    """A sorted SNP list plus a tie-heavy ranking over the universe."""
    snps = sorted(
        draw(
            st.lists(
                st.integers(0, universe - 1), max_size=max_snps, unique=True
            )
        )
    )
    ranking = np.asarray(
        draw(st.lists(_TIED_PVALUES, min_size=universe, max_size=universe)),
        dtype=np.float64,
    )
    return snps, ranking


#: Pooled moments the walk reads as a dependent / an independent pair.
_DEPENDENT = ld.PairMoments(50, 50, 50, count=100)
_INDEPENDENT = ld.PairMoments(2, 2, 1, count=4)


class TestReachablePairs:
    @given(walk=_walks())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_under_ties(self, walk):
        snps, ranking = walk
        fast = ld.reachable_pairs(snps, ranking)
        slow = ld.reachable_pairs_scalar(snps, ranking)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)

    @given(
        walk=_walks(),
        seed=st.integers(0, 2**32 - 1),
        dependence=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_walk_only_asks_for_reachable_pairs(self, walk, seed, dependence):
        """Whatever the dependence tests decide, every pair the greedy
        walk asks its moment source for was in the prefetched set."""
        snps, ranking = walk
        reachable = {tuple(p) for p in ld.reachable_pairs(snps, ranking).tolist()}
        rng = np.random.default_rng(seed)
        asked = []

        def get_moments(left, right, _position):
            asked.append((left, right))
            return _DEPENDENT if rng.random() < dependence else _INDEPENDENT

        pipeline.ld_prune(snps, ranking, get_moments, 1e-5)
        assert len(asked) == max(len(snps) - 1, 0)
        assert set(asked) <= reachable

    def test_stack_pops_only_on_a_strictly_greater_pvalue(self):
        ranking = np.array([0.5, 0.1, 0.3, 0.3, 0.05, 0.9])
        assert ld.reachable_pairs(range(6), ranking).tolist() == [
            [0, 1], [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [4, 5],
        ]

    @pytest.mark.parametrize("snps", [[], [7]])
    def test_degenerate_walks(self, snps):
        assert ld.reachable_pairs(snps, np.zeros(10)).shape == (0, 2)
        assert ld.reachable_pairs_scalar(snps, np.zeros(10)).shape == (0, 2)


@st.composite
def _ranked_walks(draw, max_snps=80, universe=200):
    """A sorted SNP list of 0-80 SNPs plus a ranking of tied integers or
    of distinct floats."""
    snps = sorted(
        draw(
            st.lists(
                st.integers(0, universe - 1), max_size=max_snps, unique=True
            )
        )
    )
    if draw(st.booleans()):
        values = draw(
            st.lists(st.integers(0, 3), min_size=universe, max_size=universe)
        )
    else:
        values = draw(
            st.lists(
                st.floats(0.0, 1.0),
                min_size=universe,
                max_size=universe,
                unique=True,
            )
        )
    return snps, np.asarray(values, dtype=np.float64)


class TestStackDepths:
    """The walk plus one stack depth per position rebuild exactly the
    pairs the oracle enumerates, and malformed depths are refused."""

    @given(walk=_ranked_walks())
    @settings(max_examples=200, deadline=None)
    def test_rebuild_from_depths_matches_the_oracle(self, walk):
        snps, ranking = walk
        depths = ld.reachable_depths(snps, ranking)
        assert depths.shape == (max(len(snps) - 1, 0),)
        rebuilt = ld.pairs_from_depths(snps, depths)
        assert rebuilt.dtype == np.int64
        oracle = ld.reachable_pairs_scalar(snps, ranking)
        # The rebuild comes sorted as (left, right) tuples.
        by_left = oracle[np.lexsort((oracle[:, 1], oracle[:, 0]))]
        assert np.array_equal(rebuilt, by_left)

    @given(walk=_ranked_walks(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_malformed_depths_raise(self, walk, data):
        snps, ranking = walk
        depths = ld.reachable_depths(snps, ranking)
        flaws = ["short", "long"]
        if len(depths):
            flaws += ["first", "zero", "jump"]
        flaw = data.draw(st.sampled_from(flaws))
        position = data.draw(st.integers(0, max(len(depths) - 1, 0)))
        bad = depths.copy()
        if flaw == "short":
            bad = depths[:-1] if len(depths) else np.ones(1, dtype=np.int64)
        elif flaw == "long":
            bad = np.append(depths, 1)
        elif flaw == "first":
            bad[0] = data.draw(st.sampled_from([0, 2, 3, -1]))
        elif flaw == "zero":
            bad[position] = 0
        else:
            bad[position] = (bad[position - 1] if position else 1) + 2
        with pytest.raises(GenomicsError):
            ld.pairs_from_depths(snps, bad)

    def test_depths_of_the_stack_example(self):
        ranking = np.array([0.5, 0.1, 0.3, 0.3, 0.05, 0.9])
        assert ld.reachable_depths(range(6), ranking).tolist() == [1, 1, 2, 3, 1]


class TestUnionCodes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_unique_rows(self, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(0, 40, size=(n, 2)) for n in (0, 30, 200)]
        union = ld.code_pairs(ld.union_codes(arrays))
        assert np.array_equal(union, np.unique(np.concatenate(arrays), axis=0))


class TestPairMomentsKernel:
    """The kernel reads the sealed store's packed words; its oracle
    reads the same columns unpacked."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        gathered = _random_genotypes(rng, rows=120, cols=18)
        inverse = rng.integers(0, 18, size=(200, 2))
        fast = ld.pair_moments_kernel(pack_columns(gathered), inverse)
        slow = ld.pair_moments_scalar(gathered, inverse)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 128, 129])
    def test_matches_scalar_at_word_boundaries(self, rows):
        rng = np.random.default_rng(rows)
        gathered = _random_genotypes(rng, rows=rows, cols=9)
        gathered[:, 0] = 1  # every row bit set, none of the padding
        gathered[:, 1] = 0
        inverse = np.concatenate(
            (
                rng.integers(0, 9, size=(40, 2)),
                [(0, 0), (4, 4), (8, 8)],  # self-pairs
                [(0, 3), (0, 3), (6, 1), (6, 1)],  # repeated pairs
            )
        )
        fast = ld.pair_moments_kernel(pack_columns(gathered), inverse)
        assert np.array_equal(fast, ld.pair_moments_scalar(gathered, inverse))
        assert fast[40] == rows

    def test_batching_does_not_change_results(self):
        rng = np.random.default_rng(13)
        gathered = pack_columns(_random_genotypes(rng, rows=80, cols=10))
        inverse = rng.integers(0, 10, size=(37, 2))
        whole = ld.pair_moments_kernel(gathered, inverse, batch=4096)
        tiny = ld.pair_moments_kernel(gathered, inverse, batch=3)
        assert np.array_equal(whole, tiny)

    def test_empty_pair_list(self):
        gathered = pack_columns(np.zeros((10, 4), dtype=np.int8))
        out = ld.pair_moments_kernel(gathered, np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)

    def test_moments_feed_identical_r_squared(self):
        """Kernel joint counts, with the columns' allele counts, and
        direct column correlation agree pairwise."""
        rng = np.random.default_rng(11)
        gathered = _random_genotypes(rng, rows=150, cols=8)
        inverse = np.asarray([(0, 1), (2, 5), (3, 3)], dtype=np.int64)
        joint = ld.pair_moments_kernel(pack_columns(gathered), inverse)
        counts = gathered.sum(axis=0, dtype=np.int64).tolist()
        for (left, right), mu_lr in zip(inverse.tolist(), joint.tolist()):
            moments = ld.PairMoments(
                counts[left], counts[right], mu_lr, count=gathered.shape[0]
            )
            direct = ld.r_squared_direct(gathered[:, left], gathered[:, right])
            assert ld.r_squared(moments) == pytest.approx(direct, abs=1e-12)


class TestRankPvalues:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        n_case, n_control = 180, 140
        case = rng.integers(0, n_case + 1, size=64)
        control = rng.integers(0, n_control + 1, size=64)
        fast = chisq.rank_pvalues(case, control, n_case, n_control)
        slow = chisq.rank_pvalues_scalar(case, control, n_case, n_control)
        assert np.array_equal(fast, slow)

    def test_degenerate_margins(self):
        """Fixed alleles (all zero / all carriers) rank as p = 1 exactly."""
        n_case, n_control = 30, 20
        case = np.array([0, n_case, 0, 17])
        control = np.array([0, n_control, n_control, 11])
        fast = chisq.rank_pvalues(case, control, n_case, n_control)
        slow = chisq.rank_pvalues_scalar(case, control, n_case, n_control)
        assert np.array_equal(fast, slow)
        assert fast[0] == 1.0 and fast[1] == 1.0


class TestLrMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_cohorts(self, seed):
        rng = np.random.default_rng(seed)
        genotypes = _random_genotypes(rng, rows=90, cols=40)
        case_freq = rng.uniform(0.0, 1.0, size=40)
        ref_freq = rng.uniform(0.0, 1.0, size=40)
        fast = lr_test.lr_matrix(genotypes, case_freq, ref_freq)
        slow = lr_test.lr_matrix_scalar(genotypes, case_freq, ref_freq)
        assert np.array_equal(fast, slow)

    def test_extreme_frequencies_clipped_identically(self):
        genotypes = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
        case_freq = np.array([0.0, 1.0])
        ref_freq = np.array([1.0, 0.0])
        fast = lr_test.lr_matrix(genotypes, case_freq, ref_freq)
        slow = lr_test.lr_matrix_scalar(genotypes, case_freq, ref_freq)
        assert np.array_equal(fast, slow)
        assert np.isfinite(fast).all()


class TestPoolMoments:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_random_memberships(self, seed):
        rng = np.random.default_rng(seed)
        parties = int(rng.integers(1, 7))
        combos = int(rng.integers(1, 8))
        membership = rng.integers(0, 2, size=(combos, parties))
        stats = rng.integers(0, 400, size=(parties, 45, 5))
        fast = ld.pool_moments(membership, stats)
        slow = ld.pool_moments_scalar(membership, stats)
        assert fast.dtype == np.int64
        assert fast.shape == (combos, 45, 5)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_on_count_vectors(self, seed):
        rng = np.random.default_rng(seed)
        membership = rng.integers(0, 2, size=(4, 3))
        counts = rng.integers(0, 1_000, size=(3, 60))
        fast = ld.pool_moments(membership, counts)
        assert fast.shape == (4, 60)
        assert np.array_equal(fast, ld.pool_moments_scalar(membership, counts))

    @given(
        shape=st.tuples(
            st.integers(1, 6), st.integers(1, 5), st.integers(0, 20)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_exact_identity(self, shape, seed):
        combos, parties, pairs = shape
        rng = np.random.default_rng(seed)
        membership = rng.integers(0, 2, size=(combos, parties))
        stats = rng.integers(0, 2**20, size=(parties, pairs, 5))
        assert np.array_equal(
            ld.pool_moments(membership, stats),
            ld.pool_moments_scalar(membership, stats),
        )

    def test_single_leaf_is_the_membership_broadcast(self):
        """G = 1: membership times the one party's sums."""
        rng = np.random.default_rng(5)
        membership = np.array([1, 0, 1, 1], dtype=np.int64)
        local = rng.integers(0, 90, size=(12, 3))
        pooled = ld.pool_moments(membership[:, None], local[None])
        assert np.array_equal(
            pooled, membership[:, None, None] * local[None, :, :]
        )

    def test_rows_sum_their_members(self):
        stats = np.arange(2 * 4 * 5).reshape(2, 4, 5)
        pooled = ld.pool_moments([[1, 1], [0, 1], [0, 0]], stats)
        assert np.array_equal(pooled[0], stats[0] + stats[1])
        assert np.array_equal(pooled[1], stats[1])
        assert not pooled[2].any()

    def test_rejects_mismatched_party_axis(self):
        from repro.errors import GenomicsError

        with pytest.raises(GenomicsError):
            ld.pool_moments(np.ones((2, 3)), np.ones((4, 6, 5)))


class TestMomentTable:
    def _table(self):
        table = ld.MomentTable(2)
        case = np.arange(2 * 3).reshape(2, 3)
        reference = 100 + np.arange(3)
        table.put([(1, 2), (1, 3), (2, 3)], case, reference)
        return table, case, reference

    def test_a_pair_is_cached_exactly_when_it_has_an_id(self):
        table, _case, _reference = self._table()
        assert len(table.pairs) == 3
        assert (1, 3) in table and (3, 4) not in table
        assert np.array_equal(
            table.missing([(3, 4), (1, 2), (3, 4), (0, 9)]), [(3, 4), (0, 9)]
        )

    def test_pooled_adds_case_and_reference_rows(self):
        table, case, reference = self._table()
        assert table.pooled(1, (1, 3)) == case[1, 1] + reference[1]
        assert type(table.pooled(1, (1, 3))) is int

    def test_put_overwrites_existing_and_appends_new(self):
        table, case, reference = self._table()
        table.put(
            [(2, 3), (4, 5)],
            np.full((2, 2), 7, dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )
        assert len(table.pairs) == 4
        assert table.pooled(0, (2, 3)) == 7
        assert table.pooled(1, (1, 2)) == case[1, 0] + reference[0]
        assert np.array_equal(table.pairs[3], [4, 5])

    def test_case_rows_reads_a_block_or_reports_a_gap(self):
        table, case, _reference = self._table()
        assert np.array_equal(table.case_rows([(2, 3), (1, 2)]), case[:, [2, 0]])
        assert table.case_rows([(1, 2), (7, 8)]) is None

    def test_state_roundtrip_is_exact_and_writable(self):
        table, _case, _reference = self._table()
        state = {k: v.copy() for k, v in table.state().items()}
        for array in state.values():
            array.flags.writeable = False
        restored = ld.MomentTable.from_state(state)
        assert all(
            np.array_equal(restored.state()[k], table.state()[k]) for k in state
        )
        assert np.array_equal(restored.missing([(1, 2), (2, 3), (5, 6)]), [(5, 6)])
        restored.put([(1, 2)], np.zeros((2, 1)), np.zeros(1))
        assert restored.pooled(0, (1, 2)) == 0

    _pairs = st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=12
    )

    @given(batches=st.lists(_pairs, min_size=1, max_size=5), query=_pairs)
    @settings(max_examples=60, deadline=None)
    def test_matches_a_dict_of_tuples(self, batches, query):
        """Batched puts with repeats against a dict-of-tuples oracle:
        ids in first-seen order, a later put (or a later repeat in one
        put) overwrites a pair's rows, ``case_rows`` is ``None`` when any
        pair is uncached, and the state round-trips."""
        pools = 2
        table = ld.MomentTable(pools)
        ids = {}
        rows = {}
        for batch_index, batch in enumerate(batches):
            case = np.arange(pools * len(batch)).reshape(pools, len(batch))
            case = case + 1000 * (batch_index + 1)
            reference = -np.arange(len(batch))
            table.put(batch, case, reference)
            for position, pair in enumerate(batch):
                ids.setdefault(pair, len(ids))
                rows[pair] = (case[:, position], reference[position])

        for candidate in (table, ld.MomentTable.from_state(table.state())):
            assert candidate.pairs.tolist() == [list(p) for p in ids]
            for pair, (case_row, reference_row) in rows.items():
                assert pair in candidate
                for pool in range(pools):
                    expected = int(case_row[pool] + reference_row)
                    assert candidate.pooled(pool, pair) == expected
            uncached = [p for p in dict.fromkeys(query) if p not in ids]
            assert candidate.missing(query).tolist() == [list(p) for p in uncached]
            assert all(pair not in candidate for pair in uncached)
            block = candidate.case_rows(query)
            if uncached:
                assert block is None
            else:
                expected = [rows[p][0] for p in query]
                assert block.shape == (pools, len(query))
                assert all(
                    np.array_equal(block[:, i], row) for i, row in enumerate(expected)
                )
