"""Synthetic cohort generation.

The paper evaluates on 27,895 real genomes from dbGaP study
phs001039.v1.p1, which is access-controlled and cannot ship with an open
reproduction.  This generator produces cohorts that exercise the same
code paths with the same statistical features the three verification
phases react to:

* a **realistic MAF spectrum** — per-SNP base frequencies drawn from a
  Beta distribution skewed toward rare alleles, so Phase 1 removes a
  substantial, size-dependent share of SNPs;
* **LD-block structure** — a haplotype-copying model in which each SNP
  starts a new block with probability ``1/ld_block_mean_length`` and
  otherwise copies the previous SNP's allele per-individual with
  probability ``ld_copy_prob``, giving the adjacent-pair correlation
  Phase 2 prunes;
* **case/reference divergence** — case allele frequencies drift from the
  reference by per-SNP Gaussian noise plus planted effects at a
  configurable fraction of "associated" SNPs, so the LR-test has a
  genuine leakage signal to bound and the chi-squared ranking is
  non-trivial.

The generator is deterministic in its seed (PCG64), so every experiment
in EXPERIMENTS.md is replayable.  The order in which it consumes the
stream is part of that contract, and changing it changes every cohort:

1. base frequencies (``beta``, one per SNP), block starts (one uniform
   per SNP), case drift (``normal``), the associated SNPs and their
   effect signs (``choice``);
2. the populations in order, each case site and then the controls; a
   site with a site effect first draws its ``normal`` per SNP;
3. within a population, SNP by SNP: one uniform per individual for the
   fresh allele, then, unless the SNP starts a block, one per
   individual for the copy mask.

Step 3 runs in chunks of SNPs, one ``Generator.random`` call each; that
call returns the doubles one call per row would, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Tuple

import numpy as np

from ..errors import GenomicsError
from .genotype import GenotypeMatrix
from .population import Cohort
from .snp import SnpPanel

_FREQ_FLOOR = 1e-3
#: SNPs whose uniforms one ``Generator.random`` call draws.
_DRAW_CHUNK = 64


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic cohort.

    Defaults are tuned so that, at paper-like cohort sizes, Phase 1
    retains roughly half the panel, Phase 2 prunes most of each LD block
    and Phase 3 rejects a visible minority of the survivors — the
    qualitative shape of the paper's Table 4.
    """

    num_snps: int
    num_case: int
    num_control: int
    maf_alpha: float = 0.35
    maf_beta: float = 2.0
    ld_block_mean_length: float = 12.0
    ld_copy_prob: float = 0.85
    case_drift_sd: float = 0.085
    associated_fraction: float = 0.02
    effect_size: float = 0.04
    num_sites: int = 1
    site_effect_sd: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so finiteness comes first.
        for item in fields(self):
            if item.type == "float" and not math.isfinite(getattr(self, item.name)):
                raise GenomicsError(f"{item.name} must be finite")
        if min(self.num_snps, self.num_case, self.num_control) <= 0:
            raise GenomicsError("population and panel sizes must be positive")
        if self.maf_alpha <= 0 or self.maf_beta <= 0:
            raise GenomicsError("maf_alpha and maf_beta must be positive")
        if not 0 < self.ld_copy_prob < 1:
            raise GenomicsError("ld_copy_prob must be in (0, 1)")
        if self.ld_block_mean_length < 1:
            raise GenomicsError("ld_block_mean_length must be >= 1")
        if not 0 <= self.associated_fraction <= 1:
            raise GenomicsError("associated_fraction must be in [0, 1]")
        if self.case_drift_sd < 0 or self.effect_size < 0:
            raise GenomicsError("drift and effect sizes must be non-negative")
        if self.num_sites < 1:
            raise GenomicsError("num_sites must be at least 1")
        if self.num_sites > self.num_case:
            raise GenomicsError("cannot have more sites than case genomes")
        if self.site_effect_sd < 0:
            raise GenomicsError("site_effect_sd must be non-negative")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth retained for tests and attack evaluation."""

    base_frequencies: np.ndarray = field(repr=False)
    case_frequencies: np.ndarray = field(repr=False)
    block_starts: np.ndarray = field(repr=False)
    associated_snps: Tuple[int, ...] = ()
    #: Row ranges (start, stop) of each collection site in the case matrix.
    site_ranges: Tuple[Tuple[int, int], ...] = ()


def _draw_base_frequencies(
    rng: np.random.Generator, spec: SyntheticSpec
) -> np.ndarray:
    freqs = rng.beta(spec.maf_alpha, spec.maf_beta, size=spec.num_snps) * 0.5
    return np.clip(freqs, _FREQ_FLOOR, 0.5)


def _draw_block_starts(
    rng: np.random.Generator, spec: SyntheticSpec
) -> np.ndarray:
    starts = rng.random(spec.num_snps) < 1.0 / spec.ld_block_mean_length
    starts[0] = True
    return starts


def _draw_population(
    rng: np.random.Generator,
    frequencies: np.ndarray,
    copies: np.ndarray,
    copy_prob: float,
    fresh: np.ndarray,
    keep: np.ndarray,
) -> None:
    """Draw one population's fresh alleles and copy masks in stream order.

    ``fresh`` and ``keep`` are SNP-major boolean views with one column
    per individual.  Each SNP takes one row of uniforms for its fresh
    allele (``u < frequency``) and, where it ``copies`` rather than
    starts a block, a second row for its copy mask (``u < copy_prob``).
    The rows of :data:`_DRAW_CHUNK` SNPs come from one ``rng.random``
    call, which returns the doubles one call per row would, in order.
    """
    num_snps, num_individuals = fresh.shape
    # SNP s draws row first_row[s], and row first_row[s] + 1 if it copies.
    first_row = np.zeros(num_snps + 1, dtype=np.intp)
    np.cumsum(1 + copies, out=first_row[1:])
    bounds = np.full((first_row[-1], 1), copy_prob, dtype=np.float64)
    bounds[first_row[:-1], 0] = frequencies
    starts = range(0, num_snps, _DRAW_CHUNK)
    most_rows = int(np.diff(first_row[[*starts, num_snps]]).max())
    draws = np.empty(most_rows * num_individuals)
    hits = np.empty(draws.shape, dtype=bool)
    for start in starts:
        stop = min(start + _DRAW_CHUNK, num_snps)
        low, high = first_row[start], first_row[stop]
        shape = (high - low, num_individuals)
        chunk = draws[: shape[0] * num_individuals].reshape(shape)
        rng.random(out=chunk)
        chunk_hits = hits[: chunk.size].reshape(shape)
        np.less(chunk, bounds[low:high], out=chunk_hits)
        fresh_rows = first_row[start:stop] - low
        copy_snps = np.flatnonzero(copies[start:stop])
        fresh[start:stop] = chunk_hits[fresh_rows]
        keep[start + copy_snps] = chunk_hits[fresh_rows[copy_snps] + 1]


def _copy_forward(
    fresh: np.ndarray, keep: np.ndarray, copies: np.ndarray
) -> np.ndarray:
    """Apply the copy rule in SNP order; the individuals x SNPs genotypes.

    A copying SNP takes the previous SNP's final allele wherever its
    mask holds, so SNPs run in order, each over every individual of
    the group at once.  Returns a ``uint8`` view of ``fresh``.
    """
    for snp in np.flatnonzero(copies):
        row = fresh[snp]
        # Where the mask holds, xor-ing in the difference selects the
        # previous SNP's allele; elsewhere the fresh allele stays.
        row ^= (row ^ fresh[snp - 1]) & keep[snp]
    return fresh.view(np.uint8).T


def _group_scratch(
    num_snps: int, num_individuals: int
) -> Tuple[np.ndarray, np.ndarray]:
    """SNP-major ``fresh`` and ``keep`` scratch for one group."""
    shape = (num_snps, num_individuals)
    return np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)


def _case_frequencies(
    rng: np.random.Generator, spec: SyntheticSpec, base: np.ndarray
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    drift = rng.normal(0.0, spec.case_drift_sd, size=spec.num_snps)
    case_freqs = base + drift
    num_associated = int(round(spec.associated_fraction * spec.num_snps))
    associated = tuple(
        sorted(
            int(i)
            for i in rng.choice(spec.num_snps, size=num_associated, replace=False)
        )
    )
    if associated:
        signs = rng.choice((-1.0, 1.0), size=len(associated))
        case_freqs[list(associated)] += signs * spec.effect_size
    return np.clip(case_freqs, _FREQ_FLOOR, 1 - _FREQ_FLOOR), associated


def _site_sizes(num_case: int, num_sites: int) -> list:
    base, extra = divmod(num_case, num_sites)
    return [base + (1 if i < extra else 0) for i in range(num_sites)]


def generate_cohort(spec: SyntheticSpec) -> Tuple[Cohort, SyntheticTruth]:
    """Generate a deterministic synthetic cohort.

    The case population is drawn from ``num_sites`` collection sites
    occupying consecutive row ranges; each site's allele frequencies
    deviate from the cohort-wide case frequencies by a per-SNP Gaussian
    "site effect" of scale ``site_effect_sd``, modelling the population
    stratification a federation of geographically distant biocenters
    exhibits.  Site effects are what make sub-federations (the data a
    colluding coalition can isolate) statistically more identifiable
    than the full pool — the phenomenon GenDPR's collusion analysis
    withholds SNPs over.

    Returns the cohort (control doubles as reference, matching the
    paper's setting) plus the generating ground truth.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    base = _draw_base_frequencies(rng, spec)
    blocks = _draw_block_starts(rng, spec)
    copies = ~blocks
    case_freqs, associated = _case_frequencies(rng, spec, base)

    fresh, keep = _group_scratch(spec.num_snps, spec.num_case)
    site_ranges = []
    offset = 0
    for site_size in _site_sizes(spec.num_case, spec.num_sites):
        if spec.site_effect_sd > 0:
            site_freqs = np.clip(
                case_freqs
                + rng.normal(0.0, spec.site_effect_sd, size=spec.num_snps),
                _FREQ_FLOOR,
                1 - _FREQ_FLOOR,
            )
        else:
            site_freqs = case_freqs
        site = slice(offset, offset + site_size)
        _draw_population(
            rng, site_freqs, copies, spec.ld_copy_prob, fresh[:, site], keep[:, site]
        )
        site_ranges.append((offset, offset + site_size))
        offset += site_size
    case = GenotypeMatrix(_copy_forward(fresh, keep, copies))
    # Free the case scratch first: one group's scratch is live at a time.
    del fresh, keep
    fresh, keep = _group_scratch(spec.num_snps, spec.num_control)
    _draw_population(rng, base, copies, spec.ld_copy_prob, fresh, keep)
    control = GenotypeMatrix(_copy_forward(fresh, keep, copies))
    panel = SnpPanel.synthetic(spec.num_snps)
    cohort = Cohort.control_as_reference(panel, case, control)
    truth = SyntheticTruth(
        base_frequencies=base,
        case_frequencies=case_freqs,
        block_starts=blocks,
        associated_snps=associated,
        site_ranges=tuple(site_ranges),
    )
    return cohort, truth
