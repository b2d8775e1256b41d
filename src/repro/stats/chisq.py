"""Chi-squared association tests and SNP ranking.

The chi-squared statistic measures the association of a SNP with the
phenotype; the paper uses its p-value both to rank SNPs ("the SNPs with
the smallest p-values are the most significant") and to break ties in
the LD phase, where the better-ranked SNP of a dependent pair survives.

Two variants are provided:

* :func:`paper_chi_square` — the simplified statistic printed in the
  paper, ``(N_case_l - N_control_l)^2 / N_control_l``, kept for fidelity
  and used wherever the paper's getMostRanked appears;
* :func:`pearson_chi_square` — the standard 2x2 Pearson test used for
  the released statistics, validated against scipy in the tests.

Both are vectorised over SNPs; all counts are minor-allele counts.
Their p-values come from :func:`repro.stats.ld.chi2_sf_1df`, the one
1-dof chi-squared tail of the program, which the LD tests use too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GenomicsError
from .ld import chi2_sf_1df


def _validate_counts(
    case_counts: np.ndarray,
    control_counts: np.ndarray,
    n_case: int,
    n_control: int,
) -> tuple[np.ndarray, np.ndarray]:
    case = np.asarray(case_counts, dtype=np.float64)
    control = np.asarray(control_counts, dtype=np.float64)
    if case.shape != control.shape:
        raise GenomicsError("count vectors have different lengths")
    if n_case <= 0 or n_control <= 0:
        raise GenomicsError("population sizes must be positive")
    if np.any(case < 0) or np.any(case > n_case):
        raise GenomicsError("case counts outside [0, N_case]")
    if np.any(control < 0) or np.any(control > n_control):
        raise GenomicsError("control counts outside [0, N_control]")
    return case, control


def paper_chi_square(
    case_counts: np.ndarray, control_counts: np.ndarray
) -> np.ndarray:
    """The paper's chi-squared form per SNP.

    Control counts of zero yield a statistic of 0 (no evidence either
    way) rather than a division error.
    """
    case = np.asarray(case_counts, dtype=np.float64)
    control = np.asarray(control_counts, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = np.where(
            control > 0, (case - control) ** 2 / np.maximum(control, 1e-12), 0.0
        )
    return statistic


def pearson_chi_square(
    case_counts: np.ndarray,
    control_counts: np.ndarray,
    n_case: int,
    n_control: int,
) -> np.ndarray:
    """Standard 2x2 Pearson chi-squared statistic per SNP (1 dof).

    Degenerate margins (allele fixed in the pooled sample) give a
    statistic of 0.
    """
    case, control = _validate_counts(case_counts, control_counts, n_case, n_control)
    total = float(n_case + n_control)
    minor = case + control
    major = total - minor
    case_major = n_case - case
    control_major = n_control - control
    # chi2 = N (ad - bc)^2 / (row and column margin product)
    determinant = case * control_major - control * case_major
    denominator = minor * major * n_case * n_control
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = np.where(
            denominator > 0, total * determinant**2 / np.maximum(denominator, 1e-300), 0.0
        )
    return statistic


def chi_square_pvalues(statistic: np.ndarray) -> np.ndarray:
    """Upper-tail p-values of chi-squared statistics with 1 dof.

    Element-wise :func:`~repro.stats.ld.chi2_sf_1df`; non-positive
    statistics (a noisy release can produce them) map to 1.
    """
    values = np.asarray(statistic, dtype=np.float64)
    tails = [chi2_sf_1df(value) for value in values.ravel().tolist()]
    return np.asarray(tails, dtype=np.float64).reshape(values.shape)


def rank_pvalues(
    case_counts: np.ndarray,
    control_counts: np.ndarray,
    n_case: int,
    n_control: int,
) -> np.ndarray:
    """Per-SNP ranking p-values (smaller = more significant).

    This is the ranking the LD phase consults through getMostRanked.
    """
    statistic = pearson_chi_square(case_counts, control_counts, n_case, n_control)
    return chi_square_pvalues(statistic)


def rank_pvalues_scalar(
    case_counts: np.ndarray,
    control_counts: np.ndarray,
    n_case: int,
    n_control: int,
) -> np.ndarray:
    """Per-SNP loop reference of :func:`rank_pvalues` (test oracle).

    Evaluates the 2x2 Pearson algebra one SNP at a time with scalar
    float64 arithmetic in the same operation order as the vectorised
    kernel, so the property tests can assert element-wise identity.
    """
    case, control = _validate_counts(
        case_counts, control_counts, n_case, n_control
    )
    total = float(n_case + n_control)
    out = np.empty(case.shape[0], dtype=np.float64)
    for index in range(case.shape[0]):
        a, b = float(case[index]), float(control[index])
        minor = a + b
        major = total - minor
        determinant = a * (n_control - b) - b * (n_case - a)
        denominator = minor * major * n_case * n_control
        statistic = (
            total * determinant**2 / max(denominator, 1e-300)
            if denominator > 0
            else 0.0
        )
        out[index] = chi2_sf_1df(statistic)
    return out


def most_ranked(left: int, right: int, ranking_pvalues: Sequence[float]) -> int:
    """Index (of the two given) with the smaller ranking p-value.

    Ties go to the lower SNP index, making the LD greedy deterministic.
    """
    if ranking_pvalues[left] < ranking_pvalues[right]:
        return left
    if ranking_pvalues[right] < ranking_pvalues[left]:
        return right
    return min(left, right)
