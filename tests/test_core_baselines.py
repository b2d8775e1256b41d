"""Centralized and naive baselines."""

from __future__ import annotations

import pytest

from repro.config import StudyConfig
from repro.core.baseline import (
    CentralizedEnclave,
    CentralizedVerifier,
    run_centralized_study,
)
from repro.core.naive import naive_traffic_bytes, run_naive_study
from repro.core.pipeline import run_local_pipeline
from repro.errors import ProtocolError
from repro.genomics.partition import partition_cohort


class TestCentralized:
    def test_matches_oracle(self, small_cohort, study_config):
        result = run_centralized_study(small_cohort, study_config, 3)
        oracle = run_local_pipeline(
            small_cohort.case.array(),
            small_cohort.reference.array(),
            maf_cutoff=study_config.thresholds.maf_cutoff,
            ld_cutoff=study_config.thresholds.ld_cutoff,
            alpha=study_config.thresholds.false_positive_rate,
            beta=study_config.thresholds.power_threshold,
        )
        assert result.l_prime == oracle.l_prime
        assert result.l_double_prime == oracle.l_double_prime
        assert result.l_safe == oracle.l_safe

    def test_member_count_does_not_change_outcome(self, small_cohort, study_config):
        two = run_centralized_study(small_cohort, study_config, 2)
        five = run_centralized_study(small_cohort, study_config, 5)
        assert two.l_safe == five.l_safe

    def test_ships_genomes(self, small_cohort, study_config):
        """The centralized design's cost: genome-scale network traffic."""
        result = run_centralized_study(small_cohort, study_config, 3)
        assert result.network_bytes >= small_cohort.case.nbytes

    def test_center_memory_holds_pool(self, small_cohort, study_config):
        result = run_centralized_study(small_cohort, study_config, 3)
        assert (
            result.enclave_peak_memory["center"]
            >= small_cohort.case.nbytes + small_cohort.reference.nbytes
        )

    def test_audit_log_records_genome_export(self, small_cohort, study_config):
        verifier = CentralizedVerifier(
            study_config, partition_cohort(small_cohort, 2), small_cohort
        )
        verifier.run()
        for member in verifier.members.values():
            log = member.ecall("export_audit_log")
            assert any(
                entry["kind"] == "genomes" and entry["genotype_rows"] > 0
                for entry in log
            )

    def test_empty_federation_rejected(self, small_cohort, study_config):
        with pytest.raises(ProtocolError):
            CentralizedVerifier(study_config, [], small_cohort)

    def test_phase_order_enforced(self, small_cohort, study_config):
        verifier = CentralizedVerifier(
            study_config, partition_cohort(small_cohort, 2), small_cohort
        )
        from repro.errors import PhaseOrderError

        with pytest.raises(PhaseOrderError):
            verifier.center.ecall("run_phase", "maf")  # genomes not pooled

    def test_unknown_dataset_container_rejected(self):
        enclave = CentralizedEnclave(
            platform_key=bytes(range(32)), enclave_id="gdo-0", data_auth_key=bytes(32)
        )
        enclave.ecall(
            "configure",
            dict(snp_count=10, maf_cutoff=0.05, ld_cutoff=1e-5, alpha=0.1, beta=0.9),
        )
        with pytest.raises(ProtocolError):
            enclave.ecall("load_local_dataset", object())


class TestNaive:
    def test_phase_counts_shrink(self, small_cohort, study_config, datasets):
        result = run_naive_study(small_cohort, study_config, datasets)
        counts = result.phase_counts()
        assert counts["MAF"] >= counts["LD"] >= 0

    def test_diverges_from_global_pipeline(
        self, small_cohort, study_config, datasets, study_result
    ):
        """The paper's Table 4 bold rows: naive under-selects in LD/LR."""
        naive = run_naive_study(small_cohort, study_config, datasets)
        assert naive.phase_counts()["LD"] < study_result.retained_after_ld

    def test_local_selections_recorded(self, small_cohort, study_config, datasets):
        result = run_naive_study(small_cohort, study_config, datasets)
        assert set(result.local_prime) == {d.gdo_id for d in datasets}
        # The intersection is a subset of every local selection.
        for local in result.local_double_prime.values():
            assert set(result.l_double_prime) <= set(local)

    def test_single_member_naive_equals_global(self, small_cohort, study_config):
        """With one member the 'local' dataset is the full cohort."""
        datasets = partition_cohort(small_cohort, 1)
        naive = run_naive_study(small_cohort, study_config, datasets)
        oracle = run_local_pipeline(
            small_cohort.case.array(),
            small_cohort.reference.array(),
            maf_cutoff=study_config.thresholds.maf_cutoff,
            ld_cutoff=study_config.thresholds.ld_cutoff,
            alpha=study_config.thresholds.false_positive_rate,
            beta=study_config.thresholds.power_threshold,
        )
        assert naive.l_safe == oracle.l_safe

    def test_traffic_estimate(self, small_cohort, study_config, datasets):
        result = run_naive_study(small_cohort, study_config, datasets)
        traffic = naive_traffic_bytes(result, len(datasets))
        assert traffic > 0
        # Index vectors are tiny compared to genomes.
        assert traffic < small_cohort.case.nbytes

    def test_validation(self, small_cohort, study_config):
        with pytest.raises(ProtocolError):
            run_naive_study(small_cohort, study_config, [])
        bad_config = StudyConfig(snp_count=small_cohort.num_snps + 5)
        with pytest.raises(ProtocolError):
            run_naive_study(
                small_cohort, bad_config, partition_cohort(small_cohort, 2)
            )
