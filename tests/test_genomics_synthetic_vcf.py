"""Synthetic cohort generation and the signed matrix container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.signing import MacSigner
from repro.errors import DataIntegrityError, GenomicsError
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
