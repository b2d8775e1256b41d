"""Shared fixtures.

Expensive artifacts (cohorts, full protocol runs) are session-scoped:
many tests assert different properties of the same run, and results are
deterministic, so re-running the protocol per test would only burn time.
"""

from __future__ import annotations

import pytest

from repro.config import CollusionPolicy, PrivacyThresholds, StudyConfig
from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol, run_study
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

#: Small-but-meaningful cohort dimensions used across the suite.
SMALL_SNPS = 240
SMALL_CASE = 360
SMALL_CONTROL = 300


@pytest.fixture(scope="session")
def small_spec() -> SyntheticSpec:
    return SyntheticSpec(
        num_snps=SMALL_SNPS,
        num_case=SMALL_CASE,
        num_control=SMALL_CONTROL,
        num_sites=6,
        site_effect_sd=0.04,
        seed=77,
    )


@pytest.fixture(scope="session")
def small_cohort(small_spec):
    cohort, _truth = generate_cohort(small_spec)
    return cohort


@pytest.fixture(scope="session")
def small_truth(small_spec):
    _cohort, truth = generate_cohort(small_spec)
    return truth


@pytest.fixture(scope="session")
def study_config(small_cohort) -> StudyConfig:
    return StudyConfig(
        snp_count=small_cohort.num_snps,
        thresholds=PrivacyThresholds(),
        seed=5,
        study_id="test-study",
    )


@pytest.fixture(scope="session")
def datasets(small_cohort):
    return partition_cohort(small_cohort, 3)


@pytest.fixture(scope="session")
def federation(small_cohort, study_config, datasets):
    return build_federation(study_config, datasets, small_cohort)


@pytest.fixture(scope="session")
def study_result(federation):
    return GenDPRProtocol(federation).run()


@pytest.fixture(scope="session")
def collusion_result(small_cohort):
    config = StudyConfig(
        snp_count=small_cohort.num_snps,
        collusion=CollusionPolicy.static(1),
        seed=5,
        study_id="test-collusion",
    )
    return run_study(small_cohort, config, num_members=3)
