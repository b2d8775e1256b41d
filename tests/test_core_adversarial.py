"""Adversarial untrusted hosts: the trust boundary under attack.

The honest-but-curious model still lets a *compromised host* (outside
the TEE) tamper with anything it carries: sealed stores, wire frames,
datasets, replies.  Every such manipulation must surface as a typed
error from the trusted side — never as silently wrong statistics.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol
from repro.crypto.signing import MacSigner
from repro.errors import (
    ChannelError,
    DataIntegrityError,
    ProtocolError,
    ReproError,
    SealingError,
)
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.partition import partition_cohort
from repro.genomics.vcf import SignedMatrix
from repro.net.message import Envelope
from repro.tee.sealing import SealedBlob
from repro.tee.storage import SealedColumnStore


@pytest.fixture()
def fresh_federation(small_cohort, study_config):
    datasets = partition_cohort(small_cohort, 3)
    return build_federation(study_config, datasets, small_cohort)


def _member(federation):
    return next(
        m for m in federation.member_ids if m != federation.leader_id
    )


class TestTamperedDatasets:
    def test_tampered_signed_matrix_rejected_at_load(self, fresh_federation, small_cohort):
        member = _member(fresh_federation)
        enclave = fresh_federation.enclaves[member]
        signer = MacSigner(bytes(32), purpose="vcf-dataset")  # wrong key
        forged = SignedMatrix.create(small_cohort.case, signer)
        with pytest.raises(DataIntegrityError):
            enclave.ecall("load_local_dataset", forged)

    def test_wrong_panel_width_rejected(self, fresh_federation):
        member = _member(fresh_federation)
        enclave = fresh_federation.enclaves[member]
        # Signature valid in *some* federation, but wrong panel width —
        # even a correctly signed foreign dataset must be rejected.
        bad = GenotypeMatrix(np.zeros((4, 7), dtype=np.uint8))
        with pytest.raises(ReproError):
            enclave.ecall(
                "load_local_dataset",
                SignedMatrix.create(bad, MacSigner(bytes(32), purpose="vcf-dataset")),
            )


class TestTamperedSealedStore:
    def test_bitflipped_chunk_fails_during_protocol(self, fresh_federation):
        member = _member(fresh_federation)
        host = fresh_federation.hosts[member]
        store = host.store
        raw = bytearray(store.chunks[0].data)
        raw[40] ^= 0xFF
        host.store = SealedColumnStore(
            num_rows=store.num_rows,
            num_cols=store.num_cols,
            chunk_width=store.chunk_width,
            chunks=(SealedBlob(bytes(raw), store.chunks[0].label),)
            + store.chunks[1:],
            label=store.label,
        )
        with pytest.raises(SealingError):
            GenDPRProtocol(fresh_federation).run()

    def test_forged_store_shape_fails_during_protocol(self, fresh_federation):
        # The host keeps the store's shape fields; a member that declared
        # a population one larger than it sealed must not be believed.
        member = _member(fresh_federation)
        host = fresh_federation.hosts[member]
        host.store = dataclasses.replace(host.store, num_rows=host.store.num_rows + 1)
        with pytest.raises(SealingError):
            GenDPRProtocol(fresh_federation).run()

    def test_swapped_store_between_members_fails(self, fresh_federation):
        # A host substituting another member's sealed store (stolen
        # ciphertext) cannot have its enclave unseal it: different
        # platform keys.
        members = [
            m for m in fresh_federation.member_ids
            if m != fresh_federation.leader_id
        ]
        a, b = members[0], members[1]
        fresh_federation.hosts[a].store = fresh_federation.hosts[b].store
        with pytest.raises(SealingError):
            GenDPRProtocol(fresh_federation).run()


class TestTamperedFrames:
    def test_modified_wire_frame_rejected(self, fresh_federation):
        """A router flipping bits in a response frame is caught."""
        federation = fresh_federation
        protocol = GenDPRProtocol(federation)
        original_ocall = protocol._exchange

        def corrupting_ocall(kind, frames):
            responses = original_ocall(kind, frames)
            return {
                member: bytes([body[0] ^ 1]) + body[1:]
                for member, body in responses.items()
            }

        leader_host = federation.leader_host
        with pytest.raises(ChannelError):
            leader_host.enclave.ecall(
                "lead_collect_summaries",
                leader_host.store,
                leader_host.reference_store,
                corrupting_ocall,
            )

    def test_replayed_response_rejected(self, fresh_federation):
        federation = fresh_federation
        protocol = GenDPRProtocol(federation)
        captured = {}
        original_ocall = protocol._exchange

        def replaying_ocall(kind, frames):
            responses = original_ocall(kind, frames)
            if kind not in captured:
                captured[kind] = dict(responses)
                return responses
            return captured[kind]  # replay old frames

        leader_host = federation.leader_host
        leader_host.enclave.ecall(
            "lead_collect_summaries",
            leader_host.store,
            leader_host.reference_store,
            replaying_ocall,
        )
        leader_host.enclave.ecall("lead_run_maf")
        # The LD phase's first exchange replays summary-phase frames.
        with pytest.raises((ChannelError, ProtocolError)):
            leader_host.enclave.ecall(
                "lead_run_ld",
                leader_host.store,
                leader_host.reference_store,
                lambda kind, frames: captured.get("summary", {}),
            )

    def test_dropped_response_detected(self, fresh_federation):
        federation = fresh_federation
        protocol = GenDPRProtocol(federation)
        original_ocall = protocol._exchange

        def dropping_ocall(kind, frames):
            responses = original_ocall(kind, frames)
            if responses:
                responses.pop(sorted(responses)[0])
            return responses

        leader_host = federation.leader_host
        with pytest.raises(ProtocolError):
            leader_host.enclave.ecall(
                "lead_collect_summaries",
                leader_host.store,
                leader_host.reference_store,
                dropping_ocall,
            )

    def test_frame_misdelivered_to_wrong_member(self, fresh_federation):
        """Frames are channel-bound: member B cannot open A's frame."""
        federation = fresh_federation
        members = [
            m for m in federation.member_ids if m != federation.leader_id
        ]
        a, b = members[0], members[1]
        protocol = GenDPRProtocol(federation)
        original_ocall = protocol._exchange

        def misrouting_ocall(kind, frames):
            if a in frames and b in frames:
                frames = dict(frames)
                frames[a], frames[b] = frames[b], frames[a]
            return original_ocall(kind, frames)

        leader_host = federation.leader_host
        with pytest.raises(ChannelError):
            leader_host.enclave.ecall(
                "lead_collect_summaries",
                leader_host.store,
                leader_host.reference_store,
                misrouting_ocall,
            )


class TestMalformedEnclaveInputs:
    def test_garbage_frame_to_member(self, fresh_federation):
        member = _member(fresh_federation)
        host = fresh_federation.hosts[member]
        with pytest.raises(ReproError):
            host.handle_envelope(
                Envelope(
                    sender=fresh_federation.leader_id,
                    receiver=member,
                    tag="summary",
                    body=b"\x00" * 64,
                )
            )

    def test_member_without_store_cannot_answer(self, fresh_federation):
        member = _member(fresh_federation)
        host = fresh_federation.hosts[member]
        host.store = None
        with pytest.raises(ProtocolError):
            host.handle_envelope(
                Envelope(
                    sender=fresh_federation.leader_id,
                    receiver=member,
                    tag="summary",
                    body=b"x",
                )
            )
