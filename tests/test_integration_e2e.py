"""Full end-to-end integration: federation -> verification -> release ->
attack validation -> hybrid DP extension, plus fault scenarios.
"""

from __future__ import annotations

import pytest

from repro.attacks.evaluation import evaluate_attack
from repro.config import CollusionPolicy, StudyConfig
from repro.core.audit import audit_federation
from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol
from repro.core.release import build_release, hybrid_release
from repro.errors import EnclaveCrashedError, NetworkError
from repro.genomics.partition import partition_cohort


@pytest.fixture(scope="module")
def full_run(small_cohort):
    config = StudyConfig(
        snp_count=small_cohort.num_snps,
        collusion=CollusionPolicy.static(1),
        seed=11,
        study_id="e2e",
    )
    datasets = partition_cohort(small_cohort, 4)
    federation = build_federation(config, datasets, small_cohort)
    protocol = GenDPRProtocol(federation)
    result = protocol.run()
    return federation, protocol, result, config


class TestEndToEnd:
    def test_study_completes(self, full_run):
        _, _, result, _ = full_run
        assert result.num_members == 4
        assert result.retained_after_lr > 0

    def test_release_pipeline(self, full_run, small_cohort):
        federation, protocol, result, config = full_run
        stats = protocol.release_statistics()
        release = build_release(config.study_id, stats, result.release_power)
        assert release.snp_indices == result.l_safe

        # Extend with DP-perturbed withheld SNPs (Section 5.5 hybrid).
        withheld = sorted(set(range(config.snp_count)) - set(result.l_safe))[:20]
        case_counts = small_cohort.case.allele_counts(withheld)
        ref_counts = small_cohort.reference.allele_counts(withheld)
        hybrid = hybrid_release(
            release,
            all_snps=config.snp_count,
            withheld_case_counts=dict(zip(withheld, case_counts.tolist())),
            withheld_reference_counts=dict(zip(withheld, ref_counts.tolist())),
            epsilon=1.0,
        )
        assert len(hybrid.statistics) == len(release.statistics) + 20

    def test_release_resists_attack(self, full_run, small_cohort):
        _, _, result, config = full_run
        evaluation = evaluate_attack(
            small_cohort,
            result.l_safe,
            alpha=config.thresholds.false_positive_rate,
        )
        assert evaluation.power <= config.thresholds.power_threshold + 0.05

    def test_audit_clean(self, full_run):
        federation, _, _, _ = full_run
        report = audit_federation(federation)
        assert report.ok, report.violations

    def test_collusion_report_consistent(self, full_run):
        _, _, result, _ = full_run
        final = set(result.l_safe)
        for outcome in result.collusion.outcomes:
            assert final <= set(outcome.safe_snps)


class TestFaultScenarios:
    def test_crashed_member_enclave_halts_study(self, small_cohort):
        config = StudyConfig(
            snp_count=small_cohort.num_snps, seed=3, study_id="crash"
        )
        datasets = partition_cohort(small_cohort, 3)
        federation = build_federation(config, datasets, small_cohort)
        victim = next(
            m for m in federation.member_ids if m != federation.leader_id
        )
        federation.enclaves[victim].crash()
        with pytest.raises(EnclaveCrashedError):
            GenDPRProtocol(federation).run()

    def test_partitioned_member_halts_study(self, small_cohort):
        """No liveness under partitions — matching the paper's model,
        which makes no liveness guarantee once members are unresponsive."""
        config = StudyConfig(
            snp_count=small_cohort.num_snps, seed=3, study_id="partition"
        )
        datasets = partition_cohort(small_cohort, 3)
        federation = build_federation(config, datasets, small_cohort)
        victim = next(
            m for m in federation.member_ids if m != federation.leader_id
        )
        federation.network.partition(victim)
        with pytest.raises(NetworkError):
            GenDPRProtocol(federation).run()

    def test_study_recovers_after_heal(self, small_cohort):
        config = StudyConfig(
            snp_count=small_cohort.num_snps, seed=3, study_id="heal"
        )
        datasets = partition_cohort(small_cohort, 3)
        federation = build_federation(config, datasets, small_cohort)
        victim = next(
            m for m in federation.member_ids if m != federation.leader_id
        )
        federation.network.partition(victim)
        federation.network.heal(victim)
        result = GenDPRProtocol(federation).run()
        assert result.retained_after_lr > 0
