"""Linkage disequilibrium from pooled correlation moments (Phase 2).

The paper computes the r-squared correlation between a SNP pair from the
five sums each member outsources — mu_l, mu_r, mu_lr, mu_l2, mu_r2 —
plus the pooled population size N_T.  These are ordinary second-moment
sums, so the leader can add members' contributions and the reference
set's and obtain exactly the statistics of the pooled population,
without ever pooling genotypes.  That is the crux of GenDPR's Phase 2
correction over the naive scheme.

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
    Iterable,
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
    """The correlation sums exchanged for one SNP pair.

    All fields are plain sums over one population's individuals, so
    moments from disjoint populations combine by field-wise addition.
    """

    mu_l: int
    mu_r: int
    mu_lr: int
    mu_l2: int
    mu_r2: int
    count: int

    def validate(self) -> "PairMoments":
        """Check internal consistency; call on untrusted inputs.

        Validation is explicit rather than automatic because the LD walk
        constructs millions of (trusted, already-valid) instances via
        :meth:`__add__`; only moments parsed from peer messages need the
        check.
        """
        if self.count < 0:
            raise GenomicsError("population count must be non-negative")
        for name in ("mu_l", "mu_r", "mu_lr", "mu_l2", "mu_r2"):
            value = getattr(self, name)
            if value < 0 or value > self.count:
                raise GenomicsError(
                    f"{name}={value} impossible for {self.count} binary genotypes"
                )
        return self

    def __add__(self, other: "PairMoments") -> "PairMoments":
        return PairMoments(
            mu_l=self.mu_l + other.mu_l,
            mu_r=self.mu_r + other.mu_r,
            mu_lr=self.mu_lr + other.mu_lr,
            mu_l2=self.mu_l2 + other.mu_l2,
            mu_r2=self.mu_r2 + other.mu_r2,
            count=self.count + other.count,
        )

    @classmethod
    def zero(cls) -> "PairMoments":
        return cls(0, 0, 0, 0, 0, 0)

    @classmethod
    def sum(cls, parts: Iterable["PairMoments"]) -> "PairMoments":
        total = cls.zero()
        for part in parts:
            total = total + part
        return total


def r_squared(moments: PairMoments) -> float:
    """Pearson r^2 of a SNP pair from pooled moments.

    A pair involving a constant SNP (zero variance) has r^2 = 0: a fixed
    column carries no linkage information.
    """
    n = moments.count
    if n < 2:
        return 0.0
    covariance = n * moments.mu_lr - moments.mu_l * moments.mu_r
    var_left = n * moments.mu_l2 - moments.mu_l**2
    var_right = n * moments.mu_r2 - moments.mu_r**2
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
    fetches :func:`reachable_pairs` instead, which covers every pair
    the walk can compare.  No study calls this kernel, but perfbench's
    ledger wraps it by name, so it stays until the ledger wraps
    :func:`reachable_pairs` instead.
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


def reachable_pairs(snps: Sequence[int], ranking: np.ndarray) -> np.ndarray:
    """Every ``(candidate, next)`` pair the greedy LD walk can compare.

    :func:`repro.core.pipeline.ld_prune` walks ``snps`` comparing a
    running candidate with ``snps[p]``.  Whatever the dependence tests
    decide, that candidate is some ``snps[i]``, ``i < p``, whose ranking
    p-value is <= that of every ``snps[j]``, ``i < j < p``: it must have
    won each comparison since it was taken up, and ties go to the lower
    index as in :func:`repro.stats.chisq.most_ranked`.  Those positions
    form a monotonic stack that pops only on a strictly greater p-value;
    emitting ``(s, snps[p])`` for every ``s`` on the stack before
    pushing ``snps[p]`` covers every path the walk can take.

    Args:
        snps: the SNP list the walk traverses, in walk order.
        ranking: ranking p-values indexed by SNP.

    Returns the ``(P, 2)`` int64 pairs, ordered by ``p`` and then by
    candidate position.
    """
    items = np.asarray(list(snps), dtype=np.int64)
    if items.size < 2:
        return np.empty((0, 2), dtype=np.int64)
    values = np.asarray(ranking)[items].tolist()
    stack = [0]
    lefts: List[int] = []
    depths: List[int] = []
    for position in range(1, items.size):
        lefts.extend(stack)
        depths.append(len(stack))
        value = values[position]
        while stack and values[stack[-1]] > value:
            stack.pop()
        stack.append(position)
    rights = np.repeat(np.arange(1, items.size, dtype=np.int64), depths)
    return np.stack((items[np.asarray(lefts, dtype=np.int64)], items[rights]), axis=1)


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
    """Three correlation sums per pair over bit-packed binary columns.

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

    Returns ``P x 3`` int64 rows ``(mu_l, mu_r, mu_lr)``: the set bits
    of the left column, of the right column and of their AND.  For
    binary genotypes ``x^2 == x``, so the squared sums ``mu_l2`` and
    ``mu_r2`` repeat ``mu_l`` and ``mu_r``.
    """
    index = np.asarray(inverse, dtype=np.int64)
    if index.ndim != 2 or index.shape[1] != 2:
        raise GenomicsError("pair index array must have shape (P, 2)")
    data = np.asarray(words)
    if data.ndim != 2 or data.dtype.kind != "u":
        raise GenomicsError("packed genotypes must be a 2-D unsigned array")
    num_pairs = index.shape[0]
    out = np.empty((num_pairs, 3), dtype=np.int64)
    if num_pairs == 0:
        return out
    # Columns-first, so each pair's words are two contiguous row reads.
    columns = np.ascontiguousarray(data.T)
    bit_counts = np.bitwise_count(columns).sum(axis=1, dtype=np.int64)
    out[:, 0] = bit_counts[index[:, 0]]
    out[:, 1] = bit_counts[index[:, 1]]
    for start in range(0, num_pairs, batch):
        stop = min(start + batch, num_pairs)
        joint = columns[index[start:stop, 0]] & columns[index[start:stop, 1]]
        out[start:stop, 2] = np.bitwise_count(joint).sum(axis=1, dtype=np.int64)
    return out


def pair_moments_scalar(gathered: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Loop reference of :func:`pair_moments_kernel` over the unpacked
    ``N x K`` 0/1 columns (test oracle)."""
    data = np.asarray(gathered)
    index = np.asarray(inverse, dtype=np.int64)
    out = np.empty((index.shape[0], 3), dtype=np.int64)
    for row, (left_col, right_col) in enumerate(index.tolist()):
        mu_l = mu_r = mu_lr = 0
        for value_l, value_r in zip(
            data[:, left_col].tolist(), data[:, right_col].tolist()
        ):
            mu_l += value_l
            mu_r += value_r
            mu_lr += value_l & value_r
        out[row] = (mu_l, mu_r, mu_lr)
    return out


def pool_moments(membership: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Pool per-party sums into every combination with one product.

    Args:
        membership: ``C x G`` 0/1 matrix; row ``c`` marks the parties
            combination ``c`` pools.
        stats: ``G x ...`` per-party integer sums (``G x P x 3`` pair
            moments, ``G x W`` allele counts).

    Returns the ``C x ...`` int64 pools, ``out[c] = sum_g
    membership[c, g] * stats[g]`` — the ``(C x G) . (G x P x 3)``
    step both the flat LD fetch and every shard leaf (``G = 1``) take.
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


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct ``codes`` in first-seen order."""
    _distinct, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)]


class MomentTable:
    """Pooled pair moments in dense blocks, one row per pair id.

    ``case`` is the ``C x P x 3`` block of every combination's pooled
    case-side ``(mu_l, mu_r, mu_lr)`` sums and ``reference`` the
    ``P x 3`` reference sums, both indexed by the id :meth:`put` assigns
    a pair (ids go to new pairs in first-seen order).  Genotypes are
    binary, so the squared sums ``mu_l2`` and ``mu_r2`` repeat ``mu_l``
    and ``mu_r`` and are not stored.  A pair is cached exactly when it
    has an id: rows are written for every combination and the
    reference at once, so nothing is ever partially cached.
    """

    def __init__(self, num_pools: int):
        #: :func:`pair_codes` code -> row id, for the walk's scalar reads.
        self._rows: Dict[int, int] = {}
        self.pairs = np.empty((0, 2), dtype=np.int64)
        self.case = np.empty((num_pools, 0, 3), dtype=np.int64)
        self.reference = np.empty((0, 3), dtype=np.int64)
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
        """Install ``C x len(pairs) x 3`` case and ``len(pairs) x 3``
        reference rows; a pair that already has an id is overwritten."""
        codes = pair_codes(pairs)
        index = self._row_ids(codes)
        fresh = _first_seen(codes[index < 0])
        if len(fresh):
            start = len(self.pairs)
            self._rows.update(zip(fresh.tolist(), range(start, start + len(fresh))))
            self.pairs = np.concatenate((self.pairs, code_pairs(fresh)))
            self.case = np.concatenate(
                (self.case, np.zeros((self.case.shape[0], len(fresh), 3), np.int64)),
                axis=1,
            )
            self.reference = np.concatenate(
                (self.reference, np.zeros((len(fresh), 3), dtype=np.int64))
            )
            self._sort_codes()
            index = self._row_ids(codes)
        self.case[:, index] = case
        self.reference[index] = reference

    def pooled(self, pool: int, pair: Tuple[int, int]) -> List[int]:
        """Pool ``pool``'s case sums plus the reference sums of ``pair``,
        as ``[mu_l, mu_r, mu_lr]``."""
        left, right = pair
        row = self._rows[left << 32 | right]
        return (self.case[pool, row] + self.reference[row]).tolist()

    def case_rows(self, pairs: PairList) -> Optional[np.ndarray]:
        """``C x len(pairs) x 3`` case rows, or ``None`` if one is uncached."""
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
