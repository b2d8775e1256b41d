"""Synthetic cohort generation and the signed matrix container."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.bench.workloads import clear_cohort_cache, paper_cohort
from repro.crypto.signing import MacSigner
from repro.errors import DataIntegrityError, GenomicsError
from repro.genomics import synthetic
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.genomics.vcf import SignedMatrix
from repro.stats.ld import r_squared_direct

_KEY = bytes(range(32))


class TestSyntheticGeneration:
    def _spec(self, **kw):
        defaults = dict(num_snps=200, num_case=300, num_control=250, seed=9)
        defaults.update(kw)
        return SyntheticSpec(**defaults)

    def test_deterministic(self):
        one, _ = generate_cohort(self._spec())
        two, _ = generate_cohort(self._spec())
        assert one.case == two.case
        assert one.control == two.control

    def test_seed_changes_data(self):
        one, _ = generate_cohort(self._spec())
        two, _ = generate_cohort(self._spec(seed=10))
        assert one.case != two.case

    def test_dimensions(self):
        cohort, truth = generate_cohort(self._spec())
        assert cohort.case.shape == (300, 200)
        assert cohort.control.shape == (250, 200)
        assert cohort.reference is cohort.control
        assert truth.base_frequencies.shape == (200,)

    def test_maf_spectrum_has_rare_snps(self):
        _, truth = generate_cohort(self._spec(num_snps=2000))
        rare = np.mean(truth.base_frequencies < 0.05)
        assert 0.1 < rare < 0.7  # a substantial rare tail, not everything

    def test_frequencies_within_bounds(self):
        _, truth = generate_cohort(self._spec())
        assert np.all(truth.base_frequencies > 0)
        assert np.all(truth.base_frequencies <= 0.5)
        assert np.all(truth.case_frequencies > 0)
        assert np.all(truth.case_frequencies < 1)

    def test_ld_blocks_correlate_neighbours(self):
        cohort, truth = generate_cohort(
            self._spec(num_snps=400, ld_block_mean_length=20, ld_copy_prob=0.9)
        )
        data = cohort.control.array()
        in_block = []
        across_block = []
        for snp in range(1, 400):
            r2 = r_squared_direct(data[:, snp - 1], data[:, snp])
            (across_block if truth.block_starts[snp] else in_block).append(r2)
        assert np.mean(in_block) > 5 * max(np.mean(across_block), 1e-3)

    def test_empirical_frequencies_track_truth(self):
        cohort, truth = generate_cohort(
            self._spec(num_case=2000, num_control=2000, ld_copy_prob=0.5)
        )
        observed = cohort.control.allele_counts() / 2000
        # Copying within blocks pulls frequencies toward block heads, so
        # allow a generous but bounded deviation.
        assert np.mean(np.abs(observed - truth.base_frequencies)) < 0.06

    def test_associated_snps_marked(self):
        _, truth = generate_cohort(
            self._spec(associated_fraction=0.1, effect_size=0.2)
        )
        assert len(truth.associated_snps) == 20
        deltas = np.abs(
            truth.case_frequencies[list(truth.associated_snps)]
            - truth.base_frequencies[list(truth.associated_snps)]
        )
        assert np.mean(deltas) > 0.1

    def test_sites(self):
        cohort, truth = generate_cohort(
            self._spec(num_sites=4, site_effect_sd=0.1)
        )
        assert len(truth.site_ranges) == 4
        assert truth.site_ranges[0][0] == 0
        assert truth.site_ranges[-1][1] == 300
        # Contiguous and non-overlapping.
        for (a_start, a_stop), (b_start, _b_stop) in zip(
            truth.site_ranges, truth.site_ranges[1:]
        ):
            assert a_stop == b_start

    def test_site_effects_differentiate_sites(self):
        cohort, truth = generate_cohort(
            self._spec(num_case=2000, num_sites=2, site_effect_sd=0.15)
        )
        (a0, a1), (b0, b1) = truth.site_ranges
        freq_a = cohort.case.array()[a0:a1].mean(axis=0)
        freq_b = cohort.case.array()[b0:b1].mean(axis=0)
        assert np.mean(np.abs(freq_a - freq_b)) > 0.05

    def test_spec_validation(self):
        with pytest.raises(GenomicsError):
            self._spec(num_snps=0)
        with pytest.raises(GenomicsError):
            self._spec(ld_copy_prob=1.0)
        with pytest.raises(GenomicsError):
            self._spec(ld_block_mean_length=0.5)
        with pytest.raises(GenomicsError):
            self._spec(associated_fraction=1.5)
        with pytest.raises(GenomicsError):
            self._spec(case_drift_sd=-0.1)
        with pytest.raises(GenomicsError):
            self._spec(num_sites=0)
        with pytest.raises(GenomicsError):
            self._spec(num_sites=301)
        with pytest.raises(GenomicsError):
            self._spec(site_effect_sd=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            (name, value)
            for name in (
                "maf_alpha",
                "maf_beta",
                "ld_block_mean_length",
                "ld_copy_prob",
                "case_drift_sd",
                "associated_fraction",
                "effect_size",
                "site_effect_sd",
            )
            for value in (float("nan"), float("inf"), float("-inf"))
        ]
        + [("maf_alpha", 0.0), ("maf_beta", -1.0)],
    )
    def test_spec_rejects_non_finite_floats_and_flat_beta_shapes(self, field, value):
        with pytest.raises(GenomicsError, match=field):
            self._spec(**{field: value})


def _sample_by_column(rng, frequencies, block_starts, num_individuals, copy_prob):
    """The per-SNP sampling loop the bulk draws replaced, kept as their oracle."""
    num_snps = frequencies.shape[0]
    data = np.empty((num_individuals, num_snps), dtype=np.uint8)
    for snp in range(num_snps):
        fresh = rng.random(num_individuals) < frequencies[snp]
        if block_starts[snp]:
            column = fresh
        else:
            copy_mask = rng.random(num_individuals) < copy_prob
            column = np.where(copy_mask, data[:, snp - 1].astype(bool), fresh)
        data[:, snp] = column
    return data


def _cohort_by_column(spec):
    """Case and control arrays, site ranges, associated SNPs and case
    frequencies as the column-by-column generator drew them."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    base = synthetic._draw_base_frequencies(rng, spec)
    blocks = synthetic._draw_block_starts(rng, spec)
    case_freqs, associated = synthetic._case_frequencies(rng, spec, base)
    parts, site_ranges, offset = [], [], 0
    for size in synthetic._site_sizes(spec.num_case, spec.num_sites):
        site_freqs = case_freqs
        if spec.site_effect_sd > 0:
            site_freqs = np.clip(
                case_freqs + rng.normal(0.0, spec.site_effect_sd, size=spec.num_snps),
                synthetic._FREQ_FLOOR,
                1 - synthetic._FREQ_FLOOR,
            )
        parts.append(
            _sample_by_column(rng, site_freqs, blocks, size, spec.ld_copy_prob)
        )
        site_ranges.append((offset, offset + size))
        offset += size
    control = _sample_by_column(rng, base, blocks, spec.num_control, spec.ld_copy_prob)
    return np.vstack(parts), control, tuple(site_ranges), associated, case_freqs


_CHUNK = synthetic._DRAW_CHUNK
#: Chunk edges (one SNP, one below and above a multiple of the chunk),
#: every SNP a block start (mean length 1) or long blocks, one case per
#: site or several, with and without site effects.
_ORACLE_SPECS = [
    SyntheticSpec(
        num_snps=snps,
        num_case=num_case,
        num_control=num_control,
        num_sites=sites,
        site_effect_sd=site_effect,
        ld_block_mean_length=block_length,
        seed=seed,
    )
    for seed, (snps, (num_case, sites), num_control, site_effect, block_length) in (
        enumerate(
            itertools.product(
                (1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1),
                ((12, 12), (40, 1), (37, 3)),
                (9,),
                (0.0, 0.04),
                (1.0, 12.0),
            )
        )
    )
] + [
    # The spec of paper_cohort(14_860, 1000, scale=0.1, seed=1608).
    SyntheticSpec(
        num_snps=1000,
        num_case=1486,
        num_control=1304,
        num_sites=12,
        site_effect_sd=0.04,
        case_drift_sd=1.2 / 1000**0.5,
        seed=1608,
    ),
]


def _digest(cohort) -> str:
    """SHA-256 over the case bytes, then the control bytes."""
    digest = hashlib.sha256(cohort.case.to_bytes())
    digest.update(cohort.control.to_bytes())
    return digest.hexdigest()


class TestBulkSampler:
    """The chunked draws consume the stream as the column loop did."""

    @pytest.mark.parametrize(
        "spec",
        _ORACLE_SPECS,
        ids=lambda spec: (
            f"L{spec.num_snps}-case{spec.num_case}-sites{spec.num_sites}"
            f"-effect{spec.site_effect_sd}-block{spec.ld_block_mean_length:g}"
        ),
    )
    def test_cohort_equals_the_column_loop(self, spec):
        cohort, truth = generate_cohort(spec)
        case, control, site_ranges, associated, case_freqs = _cohort_by_column(spec)
        assert np.array_equal(cohort.case.array(), case)
        assert np.array_equal(cohort.control.array(), control)
        assert truth.site_ranges == site_ranges
        assert truth.associated_snps == associated
        assert np.array_equal(truth.case_frequencies, case_freqs)

    def test_cohort_bytes_are_pinned(self):
        """Case then control bytes hash as they did before the bulk draws."""
        clear_cohort_cache()
        paper, _truth = paper_cohort(14_860, 1000, scale=0.1, seed=1608)
        clear_cohort_cache()
        small, _truth = generate_cohort(
            SyntheticSpec(num_snps=500, num_case=300, num_control=260)
        )
        assert _digest(paper) == (
            "4d9d4b25b463b23f9b035456e1dfb4fcf7d297b085dd5a84383147f3f983753b"
        )
        assert _digest(small) == (
            "076e4fe37fae73aa93b8fd541a259d1de932024706bb1d4cac957fe519717d12"
        )


class TestSignedMatrix:
    def _matrix(self):
        spec = SyntheticSpec(num_snps=15, num_case=8, num_control=8, seed=2)
        cohort, _ = generate_cohort(spec)
        return cohort.case

    def test_roundtrip(self):
        matrix = self._matrix()
        signer = MacSigner(_KEY, purpose="vcf-dataset")
        assert SignedMatrix.create(matrix, signer).open_verified(signer) == matrix

    def test_tampered_bytes_detected(self):
        matrix = self._matrix()
        signer = MacSigner(_KEY, purpose="vcf-dataset")
        signed = SignedMatrix.create(matrix, signer)
        raw = bytearray(signed.raw)
        raw[0] ^= 1
        tampered = SignedMatrix(
            num_individuals=signed.num_individuals,
            num_snps=signed.num_snps,
            raw=bytes(raw),
            signature=signed.signature,
        )
        with pytest.raises(DataIntegrityError):
            tampered.open_verified(signer)

    def test_tampered_dimensions_detected(self):
        matrix = self._matrix()
        signer = MacSigner(_KEY, purpose="vcf-dataset")
        signed = SignedMatrix.create(matrix, signer)
        reshaped = SignedMatrix(
            num_individuals=signed.num_snps,
            num_snps=signed.num_individuals,
            raw=signed.raw,
            signature=signed.signature,
        )
        with pytest.raises(DataIntegrityError):
            reshaped.open_verified(signer)

    def test_inconsistent_header_detected(self):
        signer = MacSigner(_KEY, purpose="vcf-dataset")
        bad = SignedMatrix(
            num_individuals=4, num_snps=4, raw=bytes(10), signature=bytes(32)
        )
        with pytest.raises(DataIntegrityError):
            bad.open_verified(signer)
