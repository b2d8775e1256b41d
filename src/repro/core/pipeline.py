"""The verification pipeline as pure functions.

Every deployment of the three-phase verification — GenDPR's distributed
protocol, the centralized SecureGenome baseline and the naive
per-member scheme — must make *the same decisions given the same
aggregate inputs*; the paper's Table 4 is precisely the demonstration
that GenDPR's aggregation reconstructs the centralized inputs exactly
while the naive scheme's does not.

To make that equivalence structural rather than coincidental, the
decision logic lives here once, as pure functions over aggregate
values, and every deployment calls into it:

* :func:`ld_prune` — the adjacent-pair greedy walk of Phase 2, taking a
  caller-supplied statistic source (the distributed leader reads the
  statistics it computed over its fetched moment table; the baselines
  compute them from matrices they hold).
* :func:`run_local_pipeline` — all three phases over genotype matrices
  held locally; the centralized baseline *is* this function inside one
  enclave, the naive baseline runs it per member, and the tests use it
  as the ground-truth oracle for the distributed protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..errors import GenomicsError, ProtocolError
from ..stats import chisq, ld, lr_test, maf

#: Statistic source for the LD walk: (left, right, walk_position) ->
#: the pair's pooled ``N * r^2``.
StatisticSource = Callable[[int, int, int], float]


def ld_prune(
    retained: Sequence[int],
    ranking_pvalues: np.ndarray,
    get_statistic: StatisticSource,
    ld_cutoff: float,
) -> List[int]:
    """Phase 2's greedy adjacent-pair walk (paper Algorithm 1, lines 26-55).

    Walks the MAF-retained SNPs in panel order, comparing a running
    candidate with the next SNP: an independent pair (p-value above the
    cut-off) banks the candidate; a dependent pair keeps only the better
    chi-squared-ranked of the two as the new candidate, so of any run of
    mutually linked SNPs exactly one — the most significant — survives.

    Args:
        retained: the Phase 1 survivor list ``L'`` (ascending).
        ranking_pvalues: chi-squared ranking p-values indexed by SNP.
        get_statistic: a pair's pooled ``N * r^2``, bit-identical to
            ``moments.count * ld.r_squared(moments)`` over its pooled
            moments; the third argument is the walk position.
        ld_cutoff: the dependence threshold on the r-squared p-value.
    """
    if not 0.0 < ld_cutoff < 1.0:
        raise GenomicsError("ld_cutoff must be in (0, 1)")
    snps = list(retained)
    if len(snps) <= 1:
        return snps
    # Python floats index and compare faster than numpy scalars, and the
    # walk ranks nearly every dependent pair.
    ranking = np.asarray(ranking_pvalues).tolist()
    kept: List[int] = []
    candidate = snps[0]
    for position in range(1, len(snps)):
        nxt = snps[position]
        statistic = get_statistic(candidate, nxt, position)
        if ld.chi2_sf_1df(statistic) < ld_cutoff:
            candidate = chisq.most_ranked(candidate, nxt, ranking)
        else:
            kept.append(candidate)
            candidate = nxt
    kept.append(candidate)
    return sorted(kept)


def matrix_moment_source(
    case_matrix: np.ndarray, reference_matrix: np.ndarray
) -> StatisticSource:
    """Statistic source over matrices held locally (baseline
    deployments): each pair's pooled moments, then ``N * r^2`` in
    Python ints, the scalar oracle of :func:`repro.stats.ld.ld_statistics`."""
    case = np.asarray(case_matrix)
    reference = np.asarray(reference_matrix)

    def get_statistic(left: int, right: int, _position: int) -> float:
        total = ld.PairMoments.zero()
        for population in (case, reference):
            col_left = population[:, left].astype(np.int64)
            col_right = population[:, right].astype(np.int64)
            total = total + ld.PairMoments(
                mu_l=int(col_left.sum()),
                mu_r=int(col_right.sum()),
                mu_lr=int((col_left & col_right).sum()),
                count=population.shape[0],
            )
        return total.count * ld.r_squared(total)

    return get_statistic


@dataclass(frozen=True)
class PipelineOutcome:
    """The three shrinking SNP sets plus the residual power."""

    l_prime: List[int]
    l_double_prime: List[int]
    l_safe: List[int]
    release_power: float

    def phase_counts(self) -> dict:
        return {
            "MAF": len(self.l_prime),
            "LD": len(self.l_double_prime),
            "LR": len(self.l_safe),
        }


def lr_ranking_order(
    columns: Sequence[int], ranking_pvalues: np.ndarray
) -> List[int]:
    """Column evaluation order for Phase 3: ascending ranking p-value.

    Stable sort so ties resolve by panel order — every deployment must
    use the same tie-break for the outcomes to match exactly.
    """
    ranked = np.asarray(ranking_pvalues, dtype=np.float64)[list(columns)]
    return [int(i) for i in np.argsort(ranked, kind="stable")]


def run_local_pipeline(
    case_matrix: np.ndarray,
    reference_matrix: np.ndarray,
    *,
    maf_cutoff: float,
    ld_cutoff: float,
    alpha: float,
    beta: float,
) -> PipelineOutcome:
    """All three phases over locally held genotype matrices.

    This is the SecureGenome verification as a pure function: the
    centralized baseline executes it inside one enclave over the pooled
    genomes; the naive baseline executes it per member over local
    shards; tests use it as the oracle the distributed protocol must
    match when given the full case population.
    """
    case = np.asarray(case_matrix)
    reference = np.asarray(reference_matrix)
    if case.ndim != 2 or reference.ndim != 2:
        raise ProtocolError("populations must be 2-D genotype matrices")
    if case.shape[1] != reference.shape[1]:
        raise ProtocolError("case and reference cover different SNP panels")
    n_case, num_snps = case.shape
    n_reference = reference.shape[0]

    # Phase 1: global MAF over the pooled case + reference population.
    case_counts = case.sum(axis=0, dtype=np.int64)
    reference_counts = reference.sum(axis=0, dtype=np.int64)
    frequencies = maf.allele_frequencies(
        maf.aggregate_counts([case_counts, reference_counts]),
        n_case + n_reference,
    )
    l_prime = maf.maf_filter(frequencies, maf_cutoff)

    # Phase 2: adjacent-pair LD pruning, chi-squared ranking as tie-break.
    ranking = chisq.rank_pvalues(
        case_counts, reference_counts, n_case, n_reference
    )
    l_double_prime = ld_prune(
        l_prime, ranking, matrix_moment_source(case, reference), ld_cutoff
    )

    # Phase 3: LR-test over the retained SNPs.
    if not l_double_prime:
        return PipelineOutcome(l_prime, l_double_prime, [], 0.0)
    case_freqs = case_counts[l_double_prime].astype(np.float64) / n_case
    ref_freqs = (
        reference_counts[l_double_prime].astype(np.float64) / n_reference
    )
    case_lr = lr_test.lr_matrix(case[:, l_double_prime], case_freqs, ref_freqs)
    ref_lr = lr_test.lr_matrix(
        reference[:, l_double_prime], case_freqs, ref_freqs
    )
    order = lr_ranking_order(l_double_prime, ranking)
    selection = lr_test.select_safe_subset(
        case_lr, ref_lr, order, alpha=alpha, beta=beta
    )
    l_safe = sorted(l_double_prime[c] for c in selection.selected_columns)
    return PipelineOutcome(
        l_prime=l_prime,
        l_double_prime=l_double_prime,
        l_safe=l_safe,
        release_power=selection.power,
    )
