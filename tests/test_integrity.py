"""Byzantine-integrity mechanisms, unit by unit.

The chaos tier (``test_chaos_byzantine.py``) proves the end-to-end
verdict contract; this module pins each mechanism in isolation —
channel transcript accounting, broadcast-echo records, crafted
transcript divergence, checkpoint freshness and sealing context,
violation classification, and the reply router's generational dedup.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    CollusionPolicy,
    FaultConfig,
    IntegrityConfig,
    ResilienceConfig,
    StudyConfig,
)
from repro.core.federation import build_federation
from repro.core.integrity import (
    COUNTER_NAMES,
    IntegrityMonitor,
    classify_violation,
)
from repro.core.protocol import GenDPRProtocol
from repro.errors import (
    EquivocationError,
    IntegrityError,
    ProtocolError,
    ResilienceError,
    SealingError,
    StaleCheckpointError,
    TranscriptDivergenceError,
)
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.net import serialization
from repro.tee.attestation import MonotonicCounter

MEMBERS = 3


@pytest.fixture(scope="module")
def cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=60, num_case=90, num_control=80, seed=3)
    )
    return cohort


@pytest.fixture(scope="module")
def base_config(cohort):
    return StudyConfig(
        snp_count=cohort.num_snps,
        study_id="integrity-unit",
        seed=3,
        collusion=CollusionPolicy.none(),
    )


def _build(cohort, config):
    return build_federation(
        config, partition_cohort(cohort, MEMBERS), cohort
    )


@pytest.fixture(scope="module")
def reference(cohort, base_config):
    federation = _build(cohort, base_config)
    return GenDPRProtocol(federation).run()


class TestChannelTranscripts:
    def _pair(self):
        # A fresh fault-free federation gives us an established,
        # mutually attested channel pair without hand-rolling the
        # handshake.
        cohort, _ = generate_cohort(
            SyntheticSpec(num_snps=20, num_case=30, num_control=30, seed=1)
        )
        config = StudyConfig(
            snp_count=20, study_id="transcript-unit", seed=1
        )
        federation = _build(cohort, config)
        leader = federation.leader_id
        member = next(m for m in federation.member_ids if m != leader)
        end_a = federation.enclaves[leader]._channels[member]
        end_b = federation.enclaves[member]._channels[leader]
        return end_a, end_b

    def test_transcripts_mirror_after_traffic(self):
        end_a, end_b = self._pair()
        for i in range(3):
            end_b.open(end_a.protect(b"ping%d" % i))
            end_a.open(end_b.protect(b"pong%d" % i))
        a_sent, a_recv = end_a.transcript_snapshot()
        b_sent, b_recv = end_b.transcript_snapshot()
        assert a_sent == b_recv
        assert a_recv == b_sent

    def test_snapshot_is_non_destructive(self):
        end_a, end_b = self._pair()
        end_b.open(end_a.protect(b"one"))
        first = end_a.transcript_snapshot()
        assert end_a.transcript_snapshot() == first
        end_b.open(end_a.protect(b"two"))
        assert end_a.transcript_snapshot() != first

    def test_unsent_frame_desynchronises_transcripts(self):
        # A frame protected but never delivered (withheld by the host)
        # leaves the sender's sent digest ahead of the peer's recv
        # digest — exactly what the phase-boundary cross-check trips on.
        end_a, end_b = self._pair()
        end_b.open(end_a.protect(b"delivered"))
        end_a.protect(b"withheld")
        a_sent, _ = end_a.transcript_snapshot()
        _, b_recv = end_b.transcript_snapshot()
        assert a_sent != b_recv

    def test_rejected_frame_does_not_enter_transcript(self):
        from repro.errors import ChannelError

        end_a, end_b = self._pair()
        frame = end_a.protect(b"payload")
        before = end_b.transcript_snapshot()
        tampered = frame[:-1] + bytes([frame[-1] ^ 0x01])
        with pytest.raises(ChannelError):
            end_b.open(tampered)
        assert end_b.transcript_snapshot() == before
        end_b.open(frame)
        assert end_b.transcript_snapshot() != before


class TestBroadcastEcho:
    @pytest.fixture(scope="class")
    def completed(self, cohort, base_config):
        federation = _build(cohort, base_config)
        GenDPRProtocol(federation).run()
        return federation

    def test_echo_round_trip(self, completed):
        leader = completed.leader_id
        member = next(m for m in completed.member_ids if m != leader)
        frame = completed.enclaves[leader].ecall(
            "export_broadcast_echo", "prime", label="test"
        )
        # The member holds the same digest, so verification passes.
        completed.enclaves[member].ecall(
            "verify_broadcast_echo", "prime", leader, frame, label="test"
        )

    def test_forged_record_rejected(self, completed):
        from repro.errors import AuthenticationError

        leader = completed.leader_id
        member = next(m for m in completed.member_ids if m != leader)
        frame = completed.enclaves[leader].ecall(
            "export_broadcast_echo", "prime", label="test"
        )
        envelope = serialization.decode(frame)
        record = serialization.decode(bytes(envelope["record"]))
        record["digest"] = b"\x00" * 32
        forged = serialization.encode(
            {
                "record": serialization.encode(record),
                "sig": bytes(envelope["sig"]),
            }
        )
        with pytest.raises(AuthenticationError):
            completed.enclaves[member].ecall(
                "verify_broadcast_echo", "prime", leader, forged, label="test"
            )

    def test_spliced_record_rejected(self, completed):
        # A genuine record relayed under the wrong stage or sender name
        # must not verify: the signed context pins both.
        leader = completed.leader_id
        member = next(m for m in completed.member_ids if m != leader)
        frame = completed.enclaves[leader].ecall(
            "export_broadcast_echo", "prime", label="test"
        )
        with pytest.raises(ProtocolError):
            completed.enclaves[member].ecall(
                "verify_broadcast_echo",
                "double_prime",
                leader,
                frame,
                label="test",
            )
        with pytest.raises(ProtocolError):
            completed.enclaves[member].ecall(
                "verify_broadcast_echo", "prime", member, frame, label="test"
            )


class TestTranscriptDivergence:
    def test_bogus_leader_claims_fail_closed(self, cohort, base_config):
        # The leader's raw channel lets us protect a syntactically valid
        # transcript request carrying digests the member cannot have —
        # the member must refuse to attest.
        federation = _build(cohort, base_config)
        GenDPRProtocol(federation).run()
        leader = federation.leader_id
        member = next(m for m in federation.member_ids if m != leader)
        channel = federation.enclaves[leader]._channels[member]
        bogus = channel.protect(
            serialization.encode(
                {
                    "stage": "prime",
                    "send": b"\x00" * 32,
                    "recv": b"\x00" * 32,
                }
            ),
            kind=b"transcript",
        )
        with pytest.raises(TranscriptDivergenceError):
            federation.enclaves[member].ecall(
                "answer_transcript", bogus, label="test"
            )


class TestCheckpointFreshness:
    def test_stale_checkpoint_rejected(self, cohort, base_config):
        federation = _build(cohort, base_config)
        leader_enclave = federation.enclaves[federation.leader_id]
        old = leader_enclave.ecall("checkpoint_state", label="test")
        fresh = leader_enclave.ecall("checkpoint_state", label="test")
        with pytest.raises(StaleCheckpointError):
            leader_enclave.ecall("restore_state", old, label="test")
        leader_enclave.ecall("restore_state", fresh, label="test")

    def test_corrupted_checkpoint_fails_sealed(self, cohort, base_config):
        federation = _build(cohort, base_config)
        leader_enclave = federation.enclaves[federation.leader_id]
        blob = leader_enclave.ecall("checkpoint_state", label="test")
        mid = len(blob.data) // 2
        tampered = dataclasses.replace(
            blob,
            data=blob.data[:mid]
            + bytes([blob.data[mid] ^ 0x01])
            + blob.data[mid + 1 :],
        )
        with pytest.raises(SealingError):
            leader_enclave.ecall("restore_state", tampered, label="test")

    def test_epoch_survives_leader_replacement(self, cohort, base_config):
        # The counter belongs to the *platform*: a replacement enclave
        # must still reject blobs its crashed predecessor superseded.
        federation = _build(cohort, base_config)
        leader_enclave = federation.enclaves[federation.leader_id]
        old = leader_enclave.ecall("checkpoint_state", label="test")
        leader_enclave.ecall("checkpoint_state", label="test")
        federation.replace_leader_enclave()
        with pytest.raises(StaleCheckpointError):
            federation.leader_host.enclave.ecall(
                "restore_state", old, label="test"
            )

    def test_monotonic_counter(self):
        from repro.errors import AttestationError

        counter = MonotonicCounter("unit")
        assert counter.value == 0
        assert counter.advance() == 1
        assert counter.advance() == 2
        assert counter.value == 2
        with pytest.raises(AttestationError):
            MonotonicCounter("")


class TestClassification:
    def test_each_violation_maps_to_its_counter(self):
        cases = [
            (EquivocationError("x"), "equivocations_detected"),
            (TranscriptDivergenceError("x"), "transcript_divergences"),
            (StaleCheckpointError("x"), "stale_checkpoints_rejected"),
            (SealingError("x"), "sealed_restore_failures"),
            (IntegrityError("x"), "quarantines"),
        ]
        for error, expected in cases:
            assert classify_violation(error) == expected
            assert expected in COUNTER_NAMES

    def test_non_violation_refused(self):
        with pytest.raises(ProtocolError):
            classify_violation(ValueError("not ours"))
        with pytest.raises(ProtocolError):
            classify_violation(ResilienceError("crash, not Byzantine"))

    def test_monitor_counts_at_detection_site(self):
        monitor = IntegrityMonitor()
        monitor.record_detection(EquivocationError("x"))
        monitor.record_detection(StaleCheckpointError("x"))
        counters = monitor.counters()
        assert counters["equivocations_detected"] == 1
        assert counters["stale_checkpoints_rejected"] == 1
        assert monitor.detections == 2
        assert counters["quarantines"] == 0

    def test_integrity_error_hierarchy(self):
        # Supervisor and chaos verdicts rely on these subtype facts.
        assert issubclass(EquivocationError, IntegrityError)
        assert issubclass(TranscriptDivergenceError, IntegrityError)
        assert issubclass(StaleCheckpointError, IntegrityError)
        assert not issubclass(SealingError, IntegrityError)


class TestEndToEnd:
    def test_integrity_on_changes_no_release_decision(
        self, cohort, base_config, reference
    ):
        config = dataclasses.replace(
            base_config, integrity=IntegrityConfig.on()
        )
        federation = _build(cohort, config)
        result = GenDPRProtocol(federation).run()
        assert result.l_prime == reference.l_prime
        assert result.l_double_prime == reference.l_double_prime
        assert result.l_safe == reference.l_safe
        assert federation.integrity_monitor.detections == 0
        assert federation.integrity_monitor.quarantined() == []

    def test_unsupervised_equivocation_aborts_counted(
        self, cohort, base_config
    ):
        config = dataclasses.replace(
            base_config,
            integrity=IntegrityConfig.on(),
            faults=FaultConfig.byzantine(
                7, intensity=0.0, equivocate_rate=1.0
            ),
        )
        federation = _build(cohort, config)
        with pytest.raises(EquivocationError) as excinfo:
            GenDPRProtocol(federation).run()
        assert excinfo.value.stage
        counters = federation.integrity_monitor.counters()
        assert counters["equivocations_detected"] >= 1
        assert federation.fault_injector.counters()["equivocations"] >= 1

    def test_supervised_equivocation_recovers_or_aborts_typed(
        self, cohort, base_config, reference
    ):
        config = dataclasses.replace(
            base_config,
            integrity=IntegrityConfig.on(),
            resilience=ResilienceConfig.supervised(max_failovers=3),
            faults=FaultConfig.byzantine(
                7, intensity=0.0, equivocate_rate=0.3
            ),
        )
        federation = _build(cohort, config)
        try:
            result = GenDPRProtocol(federation).run()
        except IntegrityError:
            assert federation.failovers == 3
        else:
            assert result.l_safe == reference.l_safe
        monitor = federation.integrity_monitor
        assert monitor.counters()["equivocations_detected"] >= 1
        assert monitor.quarantined()
        report = monitor.quarantined()[0]
        assert report.cause == "EquivocationError"
        assert report.member_id

    def test_report_surfaces_quarantine_and_counters(
        self, cohort, base_config
    ):
        from repro.config import ObservabilityConfig
        from repro.core.leader import elect_leader

        # A stale-checkpoint plan: the rolled-back restore is rejected,
        # recovery completes, and the report must carry both the
        # integrity counters and the quarantine record.
        leader = elect_leader(
            [f"gdo-{i}" for i in range(MEMBERS)],
            base_config.seed,
            base_config.study_id,
        )
        config = dataclasses.replace(
            base_config,
            integrity=IntegrityConfig.on(),
            observability=ObservabilityConfig.tracing(),
            resilience=ResilienceConfig.supervised(max_failovers=3),
            faults=FaultConfig.byzantine(
                9,
                intensity=0.0,
                checkpoint_tamper="stale",
                crash_points=((leader, 5),),
            ),
        )
        federation = _build(cohort, config)
        result = GenDPRProtocol(federation).run()
        assert (
            federation.integrity_monitor.counters()[
                "stale_checkpoints_rejected"
            ]
            >= 1
        )
        report = result.observability
        assert report is not None
        counters = report.metrics["counters"]
        assert counters["integrity.stale_checkpoints_rejected"] >= 1
        assert counters["integrity.quarantines"] >= 1
        quarantined = report.meta["quarantined"]
        assert quarantined[0]["cause"] == "StaleCheckpointError"
        assert "Quarantined nodes" in report.render()

    def test_run_report_carries_integrity_counters(
        self, cohort, base_config
    ):
        from repro.config import ObservabilityConfig
        from repro.obs.report import FINGERPRINT_EXCLUDED_FIELDS

        config = dataclasses.replace(
            base_config,
            integrity=IntegrityConfig.on(),
            observability=ObservabilityConfig.tracing(),
        )
        federation = _build(cohort, config)
        result = GenDPRProtocol(federation).run()
        report = result.observability
        assert report is not None
        counters = report.metrics["counters"]
        assert counters["integrity.equivocations_detected"] == 0
        assert "quarantined" not in report.meta
        assert "integrity" in FINGERPRINT_EXCLUDED_FIELDS


class TestReplyRouterDedup:
    def test_two_generation_dedup_and_high_water(self):
        from repro.core.resilience import _ReplyRouter
        from repro.net.message import Envelope
        from repro.net.network import SimulatedNetwork

        network = SimulatedNetwork()
        network.register("leader")
        network.register("m1")

        def send(body, tag="round-1"):
            network.send(
                Envelope(
                    sender="m1", receiver="leader", tag=tag, body=body
                )
            )

        router = _ReplyRouter(network, "leader")
        router.begin_round("round-1", {"m1"})
        send(b"reply")
        send(b"reply")  # duplicate in the same round
        router.pump()
        assert router.replies() == {"m1": b"reply"}
        assert router.discarded == 1

        # One rotation later the frame is in the previous generation
        # and still deduplicated; its hash memory survives the round.
        router.begin_round("round-2", {"m1"})
        send(b"reply", tag="round-2")
        router.pump()
        assert not router.has_reply("m1")

        # Two rotations later the hash has been forgotten — bounded
        # memory — and only the tag mismatch rejects the stale frame.
        router.begin_round("round-3", {"m1"})
        send(b"reply", tag="round-2")
        router.pump()
        assert not router.has_reply("m1")
        assert router.seen_high_water >= 1

    def test_exchange_stats_surface_high_water(self, cohort, base_config):
        config = dataclasses.replace(
            base_config, resilience=ResilienceConfig.supervised()
        )
        federation = _build(cohort, config)
        protocol = GenDPRProtocol(federation)
        protocol.run()
        stats = protocol._supervision
        assert stats["failovers"] == 0
