"""Federation provisioning, host routing, leader election and egress audit."""

from __future__ import annotations

import pytest

from repro.config import StudyConfig
from repro.core.audit import (
    ALLOWED_KINDS,
    audit_federation,
    genome_egress_savings,
)
from repro.core.federation import build_federation
from repro.core.leader import elect_leader
from repro.errors import (
    EnclaveViolationError,
    PhaseOrderError,
    ProtocolError,
)
from repro.net.message import Envelope


class TestLeaderElection:
    def test_deterministic(self):
        members = ["gdo-0", "gdo-1", "gdo-2"]
        assert elect_leader(members, 1, "s") == elect_leader(members, 1, "s")

    def test_member_order_irrelevant(self):
        assert elect_leader(["b", "a", "c"], 3, "s") == elect_leader(
            ["a", "c", "b"], 3, "s"
        )

    def test_all_members_electable(self):
        members = ["gdo-0", "gdo-1", "gdo-2"]
        leaders = {elect_leader(members, seed, "s") for seed in range(40)}
        assert leaders == set(members)

    def test_study_id_matters(self):
        members = [f"gdo-{i}" for i in range(10)]
        choices = {elect_leader(members, 7, f"study-{i}") for i in range(20)}
        assert len(choices) > 1

    def test_validation(self):
        with pytest.raises(ProtocolError):
            elect_leader([], 0, "s")
        with pytest.raises(ProtocolError):
            elect_leader(["a", "a"], 0, "s")


class TestFederationBuild:
    def test_structure(self, federation, datasets):
        assert len(federation.hosts) == len(datasets)
        assert federation.leader_id in federation.hosts
        assert federation.handshake_bytes > 0
        assert set(federation.member_ids) == {d.gdo_id for d in datasets}

    def test_all_enclaves_share_measurement(self, federation):
        measurements = {
            enclave.measurement for enclave in federation.enclaves.values()
        }
        assert len(measurements) == 1

    def test_hosts_hold_guarded_proxies(self, federation):
        host = federation.leader_host
        with pytest.raises(EnclaveViolationError):
            _ = host.enclave._channels

    def test_stores_provisioned(self, federation):
        for gdo_id, host in federation.hosts.items():
            assert host.store is not None, gdo_id
        assert federation.leader_host.reference_store is not None

    def test_resource_reports(self, federation):
        reports = federation.resource_reports()
        assert set(reports) == set(federation.hosts)

    def test_empty_federation_rejected(self, small_cohort, study_config):
        with pytest.raises(ProtocolError):
            build_federation(study_config, [], small_cohort)

    def test_collusion_validated_at_build(self, small_cohort, datasets):
        from repro.config import CollusionPolicy
        from repro.errors import CollusionConfigError

        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.static(5),
            study_id="too-many",
        )
        with pytest.raises(CollusionConfigError):
            build_federation(config, datasets, small_cohort)


class TestHostRouting:
    def test_unknown_tag_rejected(self, federation):
        host = federation.hosts[federation.member_ids[0]]
        peer = next(m for m in federation.member_ids if m != host.gdo_id)
        with pytest.raises(ProtocolError):
            host.handle_envelope(
                Envelope(sender=peer, receiver=host.gdo_id, tag="bogus", body=b"")
            )

    def test_misaddressed_envelope_rejected(self, federation):
        host = federation.hosts[federation.member_ids[0]]
        with pytest.raises(ProtocolError):
            host.handle_envelope(
                Envelope(sender="x", receiver="someone-else", tag="summary", body=b"")
            )


class TestEgressAudit:
    def test_protocol_run_is_clean(self, federation, study_result):
        report = audit_federation(federation)
        assert report.ok, report.violations
        assert report.records  # something was actually exchanged
        kinds = {record.kind for record in report.records}
        assert kinds <= ALLOWED_KINDS
        assert all(record.genotype_rows == 0 for record in report.records)
        report.raise_on_violation()  # no raise

    def test_bytes_by_kind(self, federation, study_result):
        report = audit_federation(federation)
        by_kind = report.bytes_by_kind()
        assert sum(by_kind.values()) == report.total_plaintext_bytes
        assert by_kind.get("summary", 0) > 0
        assert by_kind.get("lr", 0) > 0

    def test_savings_accounting(self, federation, study_result, small_cohort):
        savings = genome_egress_savings(federation, small_cohort.num_snps)
        assert savings["genomes_in_federation"] == small_cohort.case.num_individuals
        assert savings["byte_encoding_avoided_bytes"] == small_cohort.case.nbytes
        assert savings["actual_protocol_bytes"] > 0

    def test_violation_detection(self):
        from repro.core.audit import AuditReport, EgressRecord
        from repro.errors import MembershipLeakError

        report = AuditReport(
            records=[
                EgressRecord(
                    sender="gdo-0",
                    peer="gdo-1",
                    kind="genomes",
                    plaintext_bytes=100,
                    genotype_rows=10,
                )
            ],
            violations=["leak"],
        )
        assert not report.ok
        with pytest.raises(MembershipLeakError):
            report.raise_on_violation()


class TestEnclavePhaseOrder:
    def test_lead_calls_require_state(self, small_cohort, study_config, datasets):
        federation = build_federation(study_config, datasets, small_cohort)
        leader = federation.leader_host.enclave
        with pytest.raises(PhaseOrderError):
            leader.ecall("lead_run_maf")
        with pytest.raises(PhaseOrderError):
            leader.ecall("lead_release_statistics")

    def test_member_cannot_lead(self, federation):
        member_id = next(
            m for m in federation.member_ids if m != federation.leader_id
        )
        member = federation.hosts[member_id].enclave
        with pytest.raises(ProtocolError):
            member.ecall("lead_run_maf")
