"""Analytical detection power of the LR membership test.

The empirical search in :mod:`repro.stats.lr_test` is what the protocol
runs; this module provides the closed-form normal approximation of the
same detector, used for

* the ablation benchmark comparing analytical vs empirical selection,
* fast sanity checks in property tests (the two must agree on clearly
  safe and clearly unsafe SNP sets), and
* exploratory power curves in the examples.

Under the null hypothesis the victim's genotype at SNP ``l`` is
Bernoulli(p_l); under the alternative it is Bernoulli(phat_l).  Each
SNP's LR contribution is a two-point random variable with weights
``w1_l = log(phat_l/p_l)`` and ``w0_l = log((1-phat_l)/(1-p_l))``, so
the LR score's mean and variance under either hypothesis are sums of
per-SNP terms, and by the CLT the score is approximately normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Sequence

import numpy as np

from ..errors import GenomicsError
from .lr_test import clip_frequencies, lr_weights

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class LrMoments:
    """Mean/variance of the LR score under both hypotheses."""

    null_mean: float
    null_var: float
    alt_mean: float
    alt_var: float


def lr_moments(
    case_frequencies: np.ndarray,
    reference_frequencies: np.ndarray,
    columns: Sequence[int] | None = None,
) -> LrMoments:
    """Exact first two moments of the LR score over a SNP subset."""
    phat = clip_frequencies(case_frequencies)
    p = clip_frequencies(reference_frequencies)
    w1, w0 = lr_weights(phat, p)
    if columns is not None:
        idx = list(columns)
        phat, p, w1, w0 = phat[idx], p[idx], w1[idx], w0[idx]
    spread = w1 - w0
    null_mean = float(np.sum(p * w1 + (1 - p) * w0))
    alt_mean = float(np.sum(phat * w1 + (1 - phat) * w0))
    null_var = float(np.sum(p * (1 - p) * spread**2))
    alt_var = float(np.sum(phat * (1 - phat) * spread**2))
    return LrMoments(
        null_mean=null_mean, null_var=null_var, alt_mean=alt_mean, alt_var=alt_var
    )


def analytical_power(
    case_frequencies: np.ndarray,
    reference_frequencies: np.ndarray,
    *,
    alpha: float,
    columns: Sequence[int] | None = None,
) -> float:
    """Normal-approximation detection power at false-positive rate alpha.

    Returns 0 for an empty or zero-variance subset: with no signal the
    detector cannot beat its false-positive budget.
    """
    if not 0 < alpha < 1:
        raise GenomicsError("alpha must be in (0, 1)")
    moments = lr_moments(case_frequencies, reference_frequencies, columns)
    if moments.null_var <= 0 or moments.alt_var <= 0:
        return 0.0
    quantile = _STANDARD_NORMAL.inv_cdf(1 - alpha)
    threshold = moments.null_mean + quantile * math.sqrt(moments.null_var)
    z = (threshold - moments.alt_mean) / math.sqrt(moments.alt_var)
    # The upper tail from erfc, not 1 - cdf(z): the subtraction
    # cancels to 0 from z ~ 8.25 on, erfc keeps full relative precision.
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def select_safe_subset_analytical(
    case_frequencies: np.ndarray,
    reference_frequencies: np.ndarray,
    order: Sequence[int],
    *,
    alpha: float,
    beta: float,
) -> List[int]:
    """Greedy analytical analogue of the empirical safe-subset search.

    Used by the ablation benchmark; not part of the protocol proper.
    """
    selected: List[int] = []
    for column in order:
        candidate = selected + [column]
        if (
            analytical_power(
                case_frequencies,
                reference_frequencies,
                alpha=alpha,
                columns=candidate,
            )
            < beta
        ):
            selected.append(column)
    return selected


def power_curve(
    case_frequencies: np.ndarray,
    reference_frequencies: np.ndarray,
    order: Sequence[int],
    *,
    alpha: float,
) -> np.ndarray:
    """Power after each prefix of ``order`` (for plots and examples)."""
    powers = np.empty(len(order), dtype=np.float64)
    for i in range(len(order)):
        powers[i] = analytical_power(
            case_frequencies,
            reference_frequencies,
            alpha=alpha,
            columns=list(order[: i + 1]),
        )
    return powers
