"""End-to-end GenDPR protocol: the paper's headline properties."""

from __future__ import annotations

import pytest

from repro.config import StudyConfig
from repro.core.baseline import run_centralized_study
from repro.core.pipeline import run_local_pipeline
from repro.core.protocol import run_study
from repro.core.timing import ALL_LABELS
from repro.errors import ProtocolError


class TestHeadlineEquivalence:
    def test_matches_centralized_oracle(self, small_cohort, study_config, study_result):
        """GenDPR == pure-function SecureGenome over the pooled genomes."""
        oracle = run_local_pipeline(
            small_cohort.case.array(),
            small_cohort.reference.array(),
            maf_cutoff=study_config.thresholds.maf_cutoff,
            ld_cutoff=study_config.thresholds.ld_cutoff,
            alpha=study_config.thresholds.false_positive_rate,
            beta=study_config.thresholds.power_threshold,
        )
        assert study_result.l_prime == oracle.l_prime
        assert study_result.l_double_prime == oracle.l_double_prime
        assert study_result.l_safe == oracle.l_safe

    def test_matches_centralized_baseline_system(
        self, small_cohort, study_config, study_result
    ):
        """GenDPR == the full centralized TEE deployment (Table 4)."""
        central = run_centralized_study(small_cohort, study_config, 3)
        assert study_result.l_prime == central.l_prime
        assert study_result.l_double_prime == central.l_double_prime
        assert study_result.l_safe == central.l_safe

    def test_monotone_pipeline(self, study_result):
        assert set(study_result.l_safe) <= set(study_result.l_double_prime)
        assert set(study_result.l_double_prime) <= set(study_result.l_prime)
        assert len(study_result.l_prime) <= study_result.l_des

    def test_selection_nontrivial(self, study_result):
        # The phases actually do something on this cohort.
        assert 0 < study_result.retained_after_maf < study_result.l_des
        assert 0 < study_result.retained_after_ld < study_result.retained_after_maf
        assert study_result.retained_after_lr > 0


class TestInvariance:
    def test_partition_count_invariance(self, small_cohort, study_config, study_result):
        """The outcome does not depend on the number of GDOs."""
        for members in (2, 4):
            other = run_study(small_cohort, study_config, members)
            assert other.l_safe == study_result.l_safe
            assert other.l_prime == study_result.l_prime
            assert other.l_double_prime == study_result.l_double_prime

    def test_partition_shape_invariance(self, small_cohort, study_config, study_result):
        """Nor on which genomes land at which member."""
        shuffled = run_study(
            small_cohort, study_config, 3, shuffle_seed=99
        )
        assert shuffled.l_safe == study_result.l_safe

    def test_leader_invariance(self, small_cohort, study_config, study_result):
        """Nor on which member is elected leader."""
        leaders = {study_result.leader_id}
        for seed in (1, 2, 3):
            config = StudyConfig(
                snp_count=study_config.snp_count,
                thresholds=study_config.thresholds,
                seed=seed,
                study_id=f"leader-{seed}",
            )
            other = run_study(small_cohort, config, 3)
            leaders.add(other.leader_id)
            assert other.l_safe == study_result.l_safe
        assert len(leaders) > 1, "seeds should elect different leaders"

    def test_repeat_run_deterministic(self, small_cohort, study_config, study_result):
        again = run_study(small_cohort, study_config, 3)
        assert again.l_safe == study_result.l_safe
        assert again.leader_id == study_result.leader_id


class TestResultMetadata:
    def test_summary_and_counts(self, study_result):
        counts = study_result.phase_counts()
        assert counts["MAF"] == study_result.retained_after_maf
        assert "L_des" in study_result.summary()

    def test_timings_cover_all_tasks(self, study_result):
        for label in ALL_LABELS:
            assert study_result.timings.get(label) >= 0.0
        assert study_result.timings.total_seconds > 0.0
        ms = study_result.timings.as_milliseconds()
        assert ms["Total"] == pytest.approx(
            sum(ms[label] for label in ALL_LABELS)
        )

    def test_network_accounting_present(self, study_result):
        assert study_result.network_bytes > 0
        assert study_result.network_messages > 0

    def test_enclave_resources_present(self, study_result):
        assert len(study_result.enclave_peak_memory) == 3
        for peak in study_result.enclave_peak_memory.values():
            assert peak > 0
        for cpu in study_result.enclave_cpu_utilization.values():
            assert 0.0 <= cpu <= 1.0

    def test_release_power_below_threshold(self, study_result, study_config):
        assert (
            study_result.release_power
            < study_config.thresholds.power_threshold
        )

    def test_no_collusion_report_when_disabled(self, study_result):
        assert study_result.collusion is None

    def test_release_statistics(self, federation):
        from repro.core.protocol import GenDPRProtocol

        protocol = GenDPRProtocol(federation)
        stats = protocol.release_statistics()
        assert list(stats["snps"])  # non-empty release
        assert len(stats["chi2"]) == len(stats["snps"])
        assert all(0 <= p <= 1 for p in stats["pvalues"])


class TestErrorPaths:
    def test_config_cohort_mismatch(self, small_cohort):
        config = StudyConfig(snp_count=small_cohort.num_snps + 1)
        with pytest.raises(ProtocolError):
            run_study(small_cohort, config, 2)

    def test_single_member_federation_runs(self, small_cohort, study_config):
        result = run_study(small_cohort, study_config, 1)
        assert result.num_members == 1
        assert result.retained_after_lr > 0

    def test_genome_bandwidth_savings(self, small_cohort, study_config, study_result):
        """GenDPR must move far less than shipping every genome would."""
        central = run_centralized_study(small_cohort, study_config, 3)
        genome_bytes = small_cohort.case.nbytes
        assert central.network_bytes > genome_bytes  # genomes on the wire
        # GenDPR's traffic must not carry the genomes (it may exceed the
        # raw genome size at toy scale because LR matrices are float64;
        # the bench demonstrates the large-scale ratio).
        assert study_result.network_bytes < central.network_bytes * 10
