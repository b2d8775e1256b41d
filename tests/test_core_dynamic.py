"""Dynamic federated studies (DyPS-style genome arrival)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import StudyConfig
from repro.core.dynamic import DynamicStudy
from repro.core.pipeline import run_local_pipeline
from repro.errors import ProtocolError
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.synthetic import SyntheticSpec, generate_cohort


@pytest.fixture(scope="module")
def growing_cohort():
    spec = SyntheticSpec(
        num_snps=180, num_case=480, num_control=300, seed=55
    )
    cohort, _ = generate_cohort(spec)
    return cohort


@pytest.fixture()
def study(growing_cohort):
    config = StudyConfig(snp_count=180, seed=3, study_id="dynamic")
    return DynamicStudy(
        growing_cohort.panel,
        growing_cohort.reference,
        config,
        ["lab-a", "lab-b", "lab-c"],
        min_cohort_size=200,
    )


def _batches(cohort, start, stop):
    return GenotypeMatrix(cohort.case.array()[start:stop])


class TestConstruction:
    def test_validation(self, growing_cohort):
        config = StudyConfig(snp_count=180, study_id="d")
        with pytest.raises(ProtocolError):
            DynamicStudy(
                growing_cohort.panel, growing_cohort.reference, config, []
            )
        with pytest.raises(ProtocolError):
            DynamicStudy(
                growing_cohort.panel,
                growing_cohort.reference,
                config,
                ["a", "a"],
            )
        bad_config = StudyConfig(snp_count=99, study_id="d")
        with pytest.raises(ProtocolError):
            DynamicStudy(
                growing_cohort.panel,
                growing_cohort.reference,
                bad_config,
                ["a"],
            )
        with pytest.raises(ProtocolError):
            DynamicStudy(
                growing_cohort.panel,
                growing_cohort.reference,
                config,
                ["a"],
                min_cohort_size=0,
            )

    def test_submit_validation(self, study, growing_cohort):
        with pytest.raises(ProtocolError):
            study.submit_batch("nobody", _batches(growing_cohort, 0, 10))
        with pytest.raises(ProtocolError):
            study.submit_batch(
                "lab-a", GenotypeMatrix(np.zeros((5, 7), dtype=np.uint8))
            )
        with pytest.raises(ProtocolError):
            study.submit_batch(
                "lab-a", GenotypeMatrix(np.zeros((0, 180), dtype=np.uint8))
            )


class TestEpochs:
    def test_below_floor_no_release(self, study, growing_cohort):
        study.submit_batch("lab-a", _batches(growing_cohort, 0, 60))
        report = study.close_epoch()
        assert not report.assessed
        assert report.result is None
        assert report.total_case_genomes == 60
        assert study.released_snps == ()

    def test_assessment_matches_oracle(self, study, growing_cohort):
        study.submit_batch("lab-a", _batches(growing_cohort, 0, 120))
        study.submit_batch("lab-b", _batches(growing_cohort, 120, 240))
        report = study.close_epoch()
        assert report.assessed
        oracle = run_local_pipeline(
            growing_cohort.case.array()[:240],
            growing_cohort.reference.array(),
            maf_cutoff=0.05,
            ld_cutoff=1e-5,
            alpha=0.1,
            beta=0.9,
        )
        assert list(report.result.l_safe) == oracle.l_safe
        assert set(report.newly_released) == set(oracle.l_safe)

    def test_growth_over_epochs(self, study, growing_cohort):
        study.submit_batch("lab-a", _batches(growing_cohort, 0, 120))
        study.submit_batch("lab-b", _batches(growing_cohort, 120, 240))
        first = study.close_epoch()
        study.submit_batch("lab-c", _batches(growing_cohort, 240, 360))
        study.submit_batch("lab-a", _batches(growing_cohort, 360, 480))
        second = study.close_epoch()
        assert second.total_case_genomes == 480
        assert second.epoch == 2
        assert len(study.history) == 2
        # The ledger is consistent: released = newly + still.
        assert set(second.released) == set(second.newly_released) | set(
            second.still_released
        )
        # Revocations are exactly previously-released-now-unsafe.
        assert set(second.revoked) == set(first.released) - set(
            second.result.l_safe
        )
        assert set(study.revocation_exposure()) >= set(second.revoked)

    def test_pending_batches_wait_for_epoch_close(self, study, growing_cohort):
        study.submit_batch("lab-a", _batches(growing_cohort, 0, 250))
        assert study.total_case_genomes == 250
        report = study.close_epoch()
        assert report.assessed
        # A new pending batch does not affect the already-closed epoch.
        study.submit_batch("lab-b", _batches(growing_cohort, 250, 300))
        assert study.history[-1].total_case_genomes == 250

    def test_member_without_data_excluded(self, study, growing_cohort):
        study.submit_batch("lab-a", _batches(growing_cohort, 0, 150))
        study.submit_batch("lab-b", _batches(growing_cohort, 150, 260))
        report = study.close_epoch()
        assert report.assessed
        assert report.result.num_members == 2  # lab-c had nothing yet
