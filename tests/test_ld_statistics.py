"""The LD walk's statistics: one float64 pass, exact below 2^53.

:func:`repro.stats.ld.ld_statistics` computes every moment-table row's
``N * r^2`` at once; wherever its float64 operands could round it
leaves NaN, and the leader's walk evaluates that row with the scalar
oracle ``n * ld.r_squared(moments)`` the first time it compares it.
Either way the walk must see the oracle's value bit for bit, since the
dependence test compares its p-value against the cut-off.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ShardingConfig
from repro.core import pipeline
from repro.core.enclave_logic import GenDPREnclave
from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol
from repro.core.timing import PhaseClock, PhaseTimings
from repro.errors import ProtocolError
from repro.genomics.partition import partition_cohort
from repro.stats import ld

#: The pooled size of the benchmark cohorts at ``REPRO_BENCH_SCALE=1``.
_FULL_SCALE_N = 27_895


def _oracle(mu_l, mu_r, mu_lr, n):
    return n * ld.r_squared(ld.PairMoments(mu_l, mu_r, mu_lr, n))


def _crosses_2_53(mu_l, mu_r, mu_lr, n):
    """Whether a row's squared covariance or variance product (Python
    ints) reaches 2^53, where float64 stops holding every integer."""
    covariance = n * mu_lr - mu_l * mu_r
    variances = (n * mu_l - mu_l**2) * (n * mu_r - mu_r**2)
    return covariance * covariance >= 2**53 or variances >= 2**53


def _pass(rows):
    """One :func:`ld.ld_statistics` pass over one pair of two SNPs, one
    population per row."""
    sums = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return ld.ld_statistics(sums[:, [2]], sums[:, :2], [(0, 1)], sums[:, 3])[:, 0]


@st.composite
def _rows(draw):
    """A valid ``(mu_l, mu_r, mu_lr, N)``, half of them at N >= 27,895."""
    n = draw(
        st.one_of(
            st.integers(2, _FULL_SCALE_N - 1), st.integers(_FULL_SCALE_N, 40_000)
        )
    )
    mu_l = draw(st.integers(0, n))
    mu_r = draw(st.integers(0, n))
    mu_lr = draw(st.integers(max(0, mu_l + mu_r - n), min(mu_l, mu_r)))
    return mu_l, mu_r, mu_lr, n


class TestLdStatistics:
    def test_matches_the_scalar_oracle_on_both_sides_of_2_53(self):
        """Every row the pass computes equals the oracle with the same
        ``float.hex``, and it leaves NaN exactly where a row crosses
        2^53; rows of both kinds occur."""
        seen = set()

        @given(rows=st.lists(_rows(), min_size=1, max_size=40))
        @settings(max_examples=200, deadline=None)
        def check(rows):
            for row, value in zip(rows, _pass(rows).tolist()):
                crosses = _crosses_2_53(*row)
                seen.add(crosses)
                if crosses:
                    assert math.isnan(value), row
                else:
                    assert value.hex() == _oracle(*row).hex(), row

        check()
        assert seen == {False, True}

    @pytest.mark.parametrize(
        "row",
        [(0, 7, 0, 100), (100, 7, 7, 100), (37, 0, 0, 40_000)],
        ids=["absent-allele", "fixed-allele", "constant-at-full-scale"],
    )
    def test_constant_snp_reads_zero(self, row):
        assert _pass([row]).tolist() == [0.0] == [_oracle(*row)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_population_below_two_reads_zero(self, n):
        assert _pass([(n, n, n, n)]).tolist() == [0.0] == [_oracle(n, n, n, n)]

    @pytest.mark.parametrize("n", [2, 1_000, 9_742])
    def test_linked_pair_is_clamped_at_one(self, n):
        """A perfectly linked pair has r^2 = 1, so ``N * r^2`` is N."""
        row = (n // 2, n // 2, n // 2, n)
        assert not _crosses_2_53(*row)
        assert _pass([row]).tolist() == [float(n)] == [_oracle(*row)]


def _synthetic_leader(rng, num_snps):
    """A leader at pooled N = 27,895 whose moment table holds every pair
    its walk over ``range(num_snps)`` can reach, for three combinations.

    Allele counts mix rare SNPs (small variances, rows below 2^53) and
    common ones (rows above), and joint counts mix independent pairs
    with fully random, mostly linked ones.
    """
    reference_rows = 2_895
    combos = [("f0", 0, ()), ("f1-a", 1, ()), ("f1-b", 1, ())]
    sizes = [_FULL_SCALE_N - reference_rows, 14_000, 6_000]
    leader = GenDPREnclave(
        platform_key=bytes(range(32)), enclave_id="gdo-0", data_auth_key=bytes(32)
    )
    leader._combos = combos
    leader._reference_rows = reference_rows
    rare = rng.random(num_snps) < 0.5

    def allele_counts(size):
        common = rng.integers(0, size + 1, num_snps)
        return np.where(rare, rng.integers(0, max(size // 200, 2), num_snps), common)

    leader._reference_counts = allele_counts(reference_rows)
    for (combo_id, _f, _members), size in zip(combos, sizes):
        leader._combo_counts[combo_id] = allele_counts(size)
        leader._combo_sizes[combo_id] = size

    ranking = leader._ranking("f0")
    pairs = ld.reachable_pairs(range(num_snps), ranking)

    def joint_counts(counts, size):
        left, right = counts[pairs[:, 0]], counts[pairs[:, 1]]
        low = np.maximum(0, left + right - size)
        high = np.minimum(left, right)
        drawn = low + (rng.random(len(pairs)) * (high - low + 1)).astype(np.int64)
        independent = np.clip(left * right // max(size, 1), low, high)
        return np.where(rng.random(len(pairs)) < 0.4, independent, drawn)

    reference = joint_counts(leader._reference_counts, reference_rows)
    case = np.stack(
        [
            joint_counts(leader._combo_counts[combo_id], size)
            for (combo_id, _f, _members), size in zip(combos, sizes)
        ]
    )
    leader._moments = ld.MomentTable(len(combos))
    leader._moments.put(pairs, case, reference)
    return leader, ranking


class TestLeaderWalkAtFullScale:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_walk_matches_the_scalar_source(self, seed):
        """The leader's walk over its table equals ``ld_prune`` over a
        source that evaluates the same counts with Python ints, for
        every combination, with compared rows on both sides of 2^53; a
        NaN row is evaluated only when compared."""
        leader, ranking = _synthetic_leader(np.random.default_rng(seed), 160)
        table = leader._moments
        statistics = leader._ld_statistics()
        deferred = set(zip(*np.nonzero(np.isnan(statistics))))
        compared = []
        for combo_index in range(len(leader._combos)):
            counts, n = leader._ld_pooled_counts(combo_index)

            def scalar(left, right, _position, combo_index=combo_index):
                row = table.row_id(left, right)
                joint = table.case[combo_index, row] + table.reference[row]
                moments = (int(counts[left]), int(counts[right]), int(joint), n)
                compared.append((combo_index, row, moments))
                return _oracle(*moments)

            snps = list(range(160))
            expected = pipeline.ld_prune(snps, ranking, scalar, 1e-5)
            assert leader._ld_greedy(combo_index, snps, 1e-5, statistics) == expected

        assert leader._ld_pairs_requested == len(compared)
        crossings = {_crosses_2_53(*moments) for _c, _row, moments in compared}
        assert crossings == {False, True}
        for combo_index, row, moments in compared:
            value = float(statistics[combo_index, row])
            assert value.hex() == _oracle(*moments).hex()
        evaluated = {(c, row) for c, row, _moments in compared}
        assert deferred - evaluated
        assert all(np.isnan(statistics[c, row]) for c, row in deferred - evaluated)


def test_a_pair_outside_the_fetched_set_is_refused(small_cohort, study_config):
    """A sharded leader whose shard-installed rows were dropped has an
    empty flat remainder, so it fetches nothing; its walk then reaches a
    pair with no row, and ``lead_run_ld`` refuses it without naming the
    SNPs."""
    config = dataclasses.replace(
        study_config, sharding=ShardingConfig.over(2), study_id="fetched-set"
    )
    federation = build_federation(
        config, partition_cohort(small_cohort, 3), small_cohort
    )
    protocol = GenDPRProtocol(federation)
    steps = dict(protocol.phase_steps())
    clock = PhaseClock(PhaseTimings())
    for name in ("summaries", "maf", "ld-moments"):
        steps[name](clock)
    host = federation.leader_host
    leader = federation.enclaves[federation.leader_id]
    assert len(leader._moments.pairs) > 0
    leader._moments = ld.MomentTable(len(leader._combos))
    with pytest.raises(ProtocolError, match="outside the fetched set") as raised:
        host.enclave.ecall(
            "lead_run_ld", host.store, host.reference_store, protocol._exchange
        )
    assert not any(ch.isdigit() for ch in str(raised.value))
    assert leader.ecall("lead_exchange_stats")["ld_overflow_rounds"] == 0
