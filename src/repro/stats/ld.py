"""Linkage disequilibrium from pooled correlation moments (Phase 2).

The paper computes the r-squared correlation between a SNP pair from
five sums each member outsources — mu_l, mu_r, mu_lr, mu_l2, mu_r2 —
plus the pooled population size N_T.  These are ordinary second-moment
sums, so the leader can add members' contributions and the reference
set's and obtain exactly the statistics of the pooled population,
without ever pooling genotypes.  That is the crux of GenDPR's Phase 2
correction over the naive scheme.

For the 0/1 genotypes this reproduction seals, ``x^2 == x``: mu_l2 and
mu_r2 repeat mu_l and mu_r, and mu_l and mu_r are the SNPs' allele
counts, which the leader pooled in Phase 1 already.  So the joint count
mu_lr is the only per-pair sum that is computed, sent, pooled and
stored, and the walk fills a :class:`PairMoments`' mu_l and mu_r from
the pooled allele counts.

Significance: under independence, ``N_T * r^2`` is asymptotically
chi-squared with 1 dof; a p-value *below* the LD cut-off marks the pair
as dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import GenomicsError


@dataclass(frozen=True)
class PairMoments:
    """The correlation sums of one SNP pair over 0/1 genotypes.

    All fields are plain sums over one population's individuals, so
    moments from disjoint populations combine by field-wise addition.
    The squared sums equal ``mu_l`` and ``mu_r`` and are not stored.
    """

    mu_l: int
    mu_r: int
    mu_lr: int
    count: int

    def __add__(self, other: "PairMoments") -> "PairMoments":
        return PairMoments(
            mu_l=self.mu_l + other.mu_l,
            mu_r=self.mu_r + other.mu_r,
            mu_lr=self.mu_lr + other.mu_lr,
            count=self.count + other.count,
        )

    @classmethod
    def zero(cls) -> "PairMoments":
        return cls(0, 0, 0, 0)


def r_squared(moments: PairMoments) -> float:
    """Pearson r^2 of a SNP pair from pooled moments.

    A pair involving a constant SNP (zero variance) has r^2 = 0: a fixed
    column carries no linkage information.  The genotypes are 0/1, so
    each squared sum is the linear one.
    """
    n = moments.count
    if n < 2:
        return 0.0
    covariance = n * moments.mu_lr - moments.mu_l * moments.mu_r
    var_left = n * moments.mu_l - moments.mu_l**2
    var_right = n * moments.mu_r - moments.mu_r**2
    if var_left <= 0 or var_right <= 0:
        return 0.0
    value = (covariance * covariance) / (var_left * var_right)
    # Guard against floating drift just above 1 for perfectly linked pairs.
    return min(1.0, float(value))


def chi2_sf_1df(statistic: float) -> float:
    """Upper tail of the 1-dof chi-squared distribution.

    Closed form ``erfc(sqrt(x/2))``, the program's one chi-squared
    tail: the LD tests call it per pair, and
    :func:`repro.stats.chisq.chi_square_pvalues` maps it over the
    ranking and released statistics.  It is *not* bit-identical to
    ``scipy.stats.chi2.sf(x, df=1)``, the tests' oracle: the two differ
    in the last bits (up to 232 ULPs over the 960 rankings of 160
    perfbench cohorts), while the order and ties of every ranking agree
    down to the smallest normal float.  Below it (statistics above
    ~1,409) scipy flushes to 0 sooner, so the closed form orders SNPs
    that scipy tied at 0.
    """
    if statistic <= 0:
        return 1.0
    return math.erfc(math.sqrt(statistic / 2.0))


def ld_pvalue(moments: PairMoments) -> float:
    """p-value of the r^2 statistic (``N_T * r^2`` vs chi-squared, 1 dof)."""
    n = moments.count
    if n < 2:
        return 1.0
    return chi2_sf_1df(n * r_squared(moments))


def is_dependent(moments: PairMoments, ld_cutoff: float) -> bool:
    """Phase 2 decision: dependent iff the p-value falls below the cut-off."""
    if not 0.0 < ld_cutoff < 1.0:
        raise GenomicsError("ld_cutoff must be in (0, 1)")
    return ld_pvalue(moments) < ld_cutoff


# ----------------------------------------------------------------------
# Batched kernels (and their scalar test oracles)
# ----------------------------------------------------------------------
#
# The enclave's hot paths call these with a shard's worth of columns at
# a time; every kernel has a loop-per-element reference implementation
# next to it, and the property tests assert element-wise identity over
# randomized genotype matrices (integer arithmetic throughout, so the
# identity is exact, not approximate).


def window_pairs(snps: Sequence[int], window: int) -> np.ndarray:
    """Sliding-window pair list over ``snps``, vectorised.

    Returns the ``(P, 2)`` int64 array of pairs ``(snps[i], snps[j])``
    with ``i < j <= min(i + window, len(snps) - 1)``.  The LD exchange
    fetches the reachable pairs instead (:func:`pairs_from_depths`),
    which cover every pair the walk can compare.  No study calls this
    kernel, but perfbench's ledger wraps it by name, so it stays until
    the ledger wraps :func:`pairs_from_depths` instead.
    """
    if window < 1:
        raise GenomicsError("window must be at least 1")
    snps_arr = np.asarray(list(snps), dtype=np.int64)
    n = snps_arr.size
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    counts = np.minimum(window, n - 1 - np.arange(n - 1, dtype=np.int64))
    lefts = np.repeat(np.arange(n - 1, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(starts, counts)
        + 1
    )
    return np.stack((snps_arr[lefts], snps_arr[lefts + offsets]), axis=1)


def window_pairs_scalar(snps: Sequence[int], window: int) -> np.ndarray:
    """Loop reference of :func:`window_pairs` (test oracle)."""
    if window < 1:
        raise GenomicsError("window must be at least 1")
    items = [int(s) for s in snps]
    pairs = [
        (items[i], items[j])
        for i in range(len(items) - 1)
        for j in range(i + 1, min(i + 1 + window, len(items)))
    ]
    return np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)


def reachable_depths(snps: Sequence[int], ranking: np.ndarray) -> np.ndarray:
    """The greedy LD walk's candidate-stack depth before each position.

    :func:`repro.core.pipeline.ld_prune` walks ``snps`` comparing a
    running candidate with ``snps[p]``.  Whatever the dependence tests
    decide, that candidate is some ``snps[i]``, ``i < p``, whose ranking
    p-value is <= that of every ``snps[j]``, ``i < j < p``: it must have
    won each comparison since it was taken up, and ties go to the lower
    index as in :func:`repro.stats.chisq.most_ranked`.  Those positions
    form a monotonic stack that pops only on a strictly greater p-value,
    and every position on it before ``p`` is a candidate for ``p``.

    Args:
        snps: the SNP list the walk traverses, in walk order.
        ranking: ranking p-values indexed by SNP.

    Returns the ``(max(n - 1, 0),)`` int64 depths, one per position
    ``p = 1 .. n - 1``: how many candidates ``snps[p]`` can meet.  The
    first is 1, none is below 1, and each rises by at most one, since
    every step pushes exactly one position.  With ``snps`` they
    determine the pairs (:func:`pairs_from_depths`).
    """
    values = np.asarray(ranking)[np.asarray(snps, dtype=np.int64)].tolist()
    stack = values[:1]
    depths: List[int] = []
    for value in values[1:]:
        depths.append(len(stack))
        while stack and stack[-1] > value:
            stack.pop()
        stack.append(value)
    return np.asarray(depths, dtype=np.int64)


def pairs_from_depths(snps: Sequence[int], depths: Sequence[int]) -> np.ndarray:
    """Every ``(candidate, next)`` pair of a walk, from its stack depths.

    Position 0 is pushed at stack level 0 and position ``q``,
    ``0 < q < n - 1``, at level ``depths[q] - 1`` (the depth before
    ``q + 1`` counts ``q`` on top).  ``q`` stays a candidate up to and
    including its *end*, the next position pushed at its level or
    below (which pops it), or the last position.  Its parent (the last
    position below it one level down) stays on the stack as long, so a
    position's end is the least of its own and its ancestors' next
    same-level positions: one sort of ``level * n + q``, one search for
    the parents and ``log2(depth)`` doubling steps.

    Raises :class:`GenomicsError` unless ``depths`` is a vector of
    ``n - 1`` depths as :func:`reachable_depths` makes them: starting
    at 1, never below 1, rising by at most one.

    Returns the ``(P, 2)`` int64 pairs, sorted as ``(left, right)``
    tuples (by candidate, then by the position it meets).
    """
    items = np.asarray(snps, dtype=np.int64)
    depth = np.asarray(depths, dtype=np.int64)
    n = items.size
    if depth.ndim != 1 or depth.size != max(n - 1, 0):
        raise GenomicsError("a walk of n SNPs has n - 1 stack depths")
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    if depth[0] != 1 or depth.min() < 1 or bool((np.diff(depth) > 1).any()):
        raise GenomicsError(
            "stack depths start at 1, stay at least 1 and rise by at most 1"
        )
    positions = np.arange(n - 1, dtype=np.int64)
    level = depth - 1
    keys = level * n + positions
    order = np.argsort(keys)
    ends = np.full(n - 1, n - 1, dtype=np.int64)
    same = level[order[1:]] == level[order[:-1]]
    ends[order[:-1][same]] = order[1:][same]
    parent = order[np.searchsorted(keys[order], keys - n) - 1]
    parent = np.where(level > 0, parent, positions)
    for _ in range(int(level.max()).bit_length()):
        ends = np.minimum(ends, ends[parent])
        parent = parent[parent]
    counts = ends - positions
    lefts = np.repeat(positions, counts)
    offsets = np.arange(lefts.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.stack((items[lefts], items[lefts + 1 + offsets]), axis=1)


def reachable_pairs(snps: Sequence[int], ranking: np.ndarray) -> np.ndarray:
    """Every ``(candidate, next)`` pair the greedy LD walk can compare
    (:func:`reachable_depths`), as a ``(P, 2)`` int64 array ordered by
    ``p`` and then by candidate position."""
    pairs = pairs_from_depths(snps, reachable_depths(snps, ranking))
    return pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]


def reachable_pairs_scalar(snps: Sequence[int], ranking: np.ndarray) -> np.ndarray:
    """Brute-force reference of :func:`reachable_pairs` (test oracle)."""
    items = [int(s) for s in snps]
    values = [float(ranking[s]) for s in items]
    pairs = [
        (items[i], items[p])
        for p in range(1, len(items))
        for i in range(p)
        if all(values[i] <= values[j] for j in range(i + 1, p))
    ]
    return np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)


def pair_moments_kernel(
    words: np.ndarray, inverse: np.ndarray, *, batch: int = 4096
) -> np.ndarray:
    """The joint count ``mu_lr`` per pair over bit-packed binary columns.

    Args:
        words: ``W x K`` unsigned words, words on axis 0 and one column
            per distinct genotype column the pairs touch: one bit per
            individual, every padding bit zero, as
            :meth:`repro.tee.storage.ColumnReader.packed_columns`
            returns them.  Only set bits are counted, so the kernel
            needs nothing else of the layout.
        inverse: ``P x 2`` indices into ``words``' columns, one row per
            requested pair.
        batch: pairs per transient slab, bounding the working set to
            ``W x batch`` words.

    Returns the ``(P,)`` int64 set-bit counts of each pair's AND.  The
    other sums of a pair are allele counts (``mu_l``, ``mu_r``) or
    repeat them (``mu_l2``, ``mu_r2``), and Phase 1 pooled those.
    """
    index = np.asarray(inverse, dtype=np.int64)
    if index.ndim != 2 or index.shape[1] != 2:
        raise GenomicsError("pair index array must have shape (P, 2)")
    data = np.asarray(words)
    if data.ndim != 2 or data.dtype.kind != "u":
        raise GenomicsError("packed genotypes must be a 2-D unsigned array")
    num_pairs = index.shape[0]
    out = np.empty(num_pairs, dtype=np.int64)
    if num_pairs == 0:
        return out
    # Columns-first, so each pair's words are two contiguous row reads.
    columns = np.ascontiguousarray(data.T)
    for start in range(0, num_pairs, batch):
        stop = min(start + batch, num_pairs)
        joint = columns[index[start:stop, 0]] & columns[index[start:stop, 1]]
        out[start:stop] = np.bitwise_count(joint).sum(axis=1, dtype=np.int64)
    return out


def pair_moments_scalar(gathered: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Loop reference of :func:`pair_moments_kernel` over the unpacked
    ``N x K`` 0/1 columns (test oracle)."""
    data = np.asarray(gathered)
    index = np.asarray(inverse, dtype=np.int64)
    out = np.empty(index.shape[0], dtype=np.int64)
    for row, (left_col, right_col) in enumerate(index.tolist()):
        mu_lr = 0
        for value_l, value_r in zip(
            data[:, left_col].tolist(), data[:, right_col].tolist()
        ):
            mu_lr += value_l & value_r
        out[row] = mu_lr
    return out


def pool_moments(membership: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Pool per-party sums into every combination with one product.

    Args:
        membership: ``C x G`` 0/1 matrix; row ``c`` marks the parties
            combination ``c`` pools.
        stats: ``G x ...`` per-party integer sums (``G x P`` joint
            counts, ``G x W`` allele counts).

    Returns the ``C x ...`` int64 pools, ``out[c] = sum_g
    membership[c, g] * stats[g]`` — the ``(C x G) . (G x P)`` step the
    flat LD fetch and the shard tree's root both take.
    """
    weights = np.asarray(membership, dtype=np.int64)
    values = np.asarray(stats, dtype=np.int64)
    if weights.ndim != 2 or values.ndim < 1 or weights.shape[1] != values.shape[0]:
        raise GenomicsError("membership must be C x G over G per-party rows")
    return np.tensordot(weights, values, axes=1)


def pool_moments_scalar(membership: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Loop reference of :func:`pool_moments` (test oracle)."""
    weights = np.asarray(membership, dtype=np.int64)
    values = np.asarray(stats, dtype=np.int64)
    flat = values.reshape(values.shape[0], -1)
    out = np.zeros((weights.shape[0], flat.shape[1]), dtype=np.int64)
    for combo, row in enumerate(weights.tolist()):
        for party, weight in enumerate(row):
            for column, value in enumerate(flat[party].tolist()):
                out[combo, column] += weight * value
    return out.reshape((weights.shape[0],) + values.shape[1:])


#: SNP pairs as a sequence of ``(left, right)`` tuples or a ``(P, 2)``
#: integer array.
PairList = Union[Sequence[Tuple[int, int]], np.ndarray]


def pair_codes(pairs: PairList) -> np.ndarray:
    """One int64 code ``left << 32 | right`` per ``(left, right)`` pair.

    SNP indices fit in 32 bits, so distinct pairs get distinct codes,
    ordered as the ``(left, right)`` tuples are.
    """
    array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return (array[:, 0] << 32) | array[:, 1]


def code_pairs(codes: np.ndarray) -> np.ndarray:
    """The ``(P, 2)`` int64 pairs of :func:`pair_codes`' codes."""
    return np.stack((codes >> 32, codes & 0xFFFFFFFF), axis=1)


def union_codes(pair_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The distinct :func:`pair_codes` of several ``(P, 2)`` arrays,
    sorted (so in ``(left, right)`` tuple order).

    One sort and a neighbour mask: for int64 codes ``np.unique`` takes a
    hash path that is many times slower here.  The sort is stable (a
    merge sort), which merges the already sorted runs
    :func:`pairs_from_depths` gives in linear time.
    """
    codes = np.concatenate([pair_codes(p) for p in pair_arrays])
    codes = np.sort(codes, kind="stable")
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct ``codes`` in first-seen order."""
    _distinct, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)]


class MomentTable:
    """Pooled joint counts in dense blocks, one column per pair id.

    ``case`` is the ``C x P`` block of every combination's pooled
    case-side joint count ``mu_lr`` and ``reference`` the ``(P,)``
    reference joint counts, both indexed by the id :meth:`put` assigns
    a pair (ids go to new pairs in first-seen order).  A pair's other
    sums are allele counts, which the leader pooled in Phase 1, so they
    are not stored.  A pair is cached exactly when it has an id: every
    combination's count and the reference's are written at once, so
    nothing is ever partially cached.
    """

    def __init__(self, num_pools: int):
        #: :func:`pair_codes` code -> row id, for the walk's scalar reads.
        self._rows: Dict[int, int] = {}
        self.pairs = np.empty((0, 2), dtype=np.int64)
        self.case = np.empty((num_pools, 0), dtype=np.int64)
        self.reference = np.empty(0, dtype=np.int64)
        self._sort_codes()

    def _sort_codes(self) -> None:
        """Sort the rows' codes for :meth:`_row_ids`' batch lookups."""
        codes = pair_codes(self.pairs)
        self._sorted_rows = np.argsort(codes)
        self._sorted_codes = codes[self._sorted_rows]

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        left, right = pair
        return (left << 32 | right) in self._rows

    def _row_ids(self, codes: np.ndarray) -> np.ndarray:
        """The row id of each code, ``-1`` where the pair has none."""
        if not len(self._sorted_codes):
            return np.full(len(codes), -1, dtype=np.int64)
        ranks = np.minimum(
            np.searchsorted(self._sorted_codes, codes), len(self._sorted_codes) - 1
        )
        return np.where(
            self._sorted_codes[ranks] == codes, self._sorted_rows[ranks], -1
        )

    def missing(self, pairs: PairList) -> np.ndarray:
        """The distinct ``pairs`` without an id, in first-seen order, as
        a ``(P, 2)`` int64 array."""
        codes = _first_seen(pair_codes(pairs))
        return code_pairs(codes[self._row_ids(codes) < 0])

    def put(self, pairs: PairList, case: np.ndarray, reference: np.ndarray) -> None:
        """Install ``C x len(pairs)`` case and ``(len(pairs),)`` reference
        joint counts; a pair that already has an id is overwritten."""
        codes = pair_codes(pairs)
        index = self._row_ids(codes)
        fresh = _first_seen(codes[index < 0])
        if len(fresh):
            start = len(self.pairs)
            self._rows.update(zip(fresh.tolist(), range(start, start + len(fresh))))
            self.pairs = np.concatenate((self.pairs, code_pairs(fresh)))
            self.case = np.concatenate(
                (self.case, np.zeros((self.case.shape[0], len(fresh)), np.int64)),
                axis=1,
            )
            self.reference = np.concatenate(
                (self.reference, np.zeros(len(fresh), dtype=np.int64))
            )
            self._sort_codes()
            index = self._row_ids(codes)
        self.case[:, index] = case
        self.reference[index] = reference

    def pooled(self, pool: int, pair: Tuple[int, int]) -> int:
        """``pool``'s case joint count plus the reference's, for ``pair``."""
        left, right = pair
        row = self._rows[left << 32 | right]
        return int(self.case[pool, row] + self.reference[row])

    def case_rows(self, pairs: PairList) -> Optional[np.ndarray]:
        """``C x len(pairs)`` case joint counts, or ``None`` if one is
        uncached."""
        index = self._row_ids(pair_codes(pairs))
        if (index < 0).any():
            return None
        return self.case[:, index]

    def state(self) -> Dict[str, np.ndarray]:
        """The table as three arrays (its checkpoint form)."""
        return {"pairs": self.pairs, "case": self.case, "reference": self.reference}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MomentTable":
        """Rebuild a table from :meth:`state` (writable copies)."""
        table = cls(0)
        table.pairs = np.array(state["pairs"], dtype=np.int64).reshape(-1, 2)
        table.case = np.array(state["case"], dtype=np.int64)
        table.reference = np.array(state["reference"], dtype=np.int64)
        codes = pair_codes(table.pairs)
        table._rows = dict(zip(codes.tolist(), range(len(codes))))
        table._sort_codes()
        return table


def r_squared_direct(column_left, column_right) -> float:
    """r^2 straight from two genotype columns (test oracle).

    Used by tests to cross-check the moment-based computation against a
    direct correlation, and by the naive baseline which has the columns
    locally.
    """
    left = np.asarray(column_left, dtype=np.float64)
    right = np.asarray(column_right, dtype=np.float64)
    if left.shape != right.shape:
        raise GenomicsError("columns differ in length")
    if left.size < 2 or left.std() == 0 or right.std() == 0:
        return 0.0
    correlation = np.corrcoef(left, right)[0, 1]
    if math.isnan(correlation):
        return 0.0
    return min(1.0, float(correlation**2))
