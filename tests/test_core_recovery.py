"""Leader crash recovery from sealed checkpoints."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import CollusionPolicy, ResilienceConfig, ShardingConfig
from repro.core.enclave_logic import GenDPREnclave
from repro.core.federation import build_federation
from repro.core.protocol import GenDPRProtocol
from repro.core.supervisor import ProtocolSupervisor
from repro.crypto.rng import DeterministicRng
from repro.errors import ProtocolError, SealingError
from repro.genomics.partition import partition_cohort
from repro.net import serialization
from repro.tee.channel import establish_channel
from repro.tee.sealing import SealedBlob, unseal


@pytest.fixture()
def federation(small_cohort, study_config):
    return build_federation(
        study_config, partition_cohort(small_cohort, 3), small_cohort
    )


def _run_through_maf(federation):
    """Drive the protocol through summaries + MAF, return the protocol."""
    protocol = GenDPRProtocol(federation)
    leader_host = federation.leader_host
    leader_host.enclave.ecall(
        "lead_collect_summaries",
        leader_host.store,
        leader_host.reference_store,
        protocol._exchange,
    )
    l_prime = leader_host.enclave.ecall("lead_run_maf")
    return protocol, l_prime


def _replace_leader(federation):
    """Simulate a leader machine restart: fresh enclave, re-attested
    channels, sealed datasets re-verified on its own premises."""
    leader_id = federation.leader_id
    old = federation.enclaves[leader_id]
    rng = DeterministicRng("recovery")
    replacement = GenDPREnclave(
        platform_key=federation.platforms[leader_id].root_key,
        enclave_id=leader_id,
        data_auth_key=old._data_signer._key,
        rng=rng.fork("enclave"),
    )
    verifier = federation.attestation.verifier()
    for member_id in federation.member_ids:
        if member_id == leader_id:
            continue
        leader_end, member_end, _ = establish_channel(
            replacement,
            federation.platforms[leader_id],
            federation.enclaves[member_id],
            federation.platforms[member_id],
            verifier,
            rng=rng.fork(f"chan/{member_id}"),
        )
        replacement.install_channel(leader_end)
        federation.enclaves[member_id].install_channel(member_end)
    return replacement


_CHECKPOINT_KEYS = sorted(
    [
        "study",
        "member_ids",
        "count_ids",
        "member_counts",
        "member_sizes",
        "reference_counts",
        "reference_rows",
        "retained",
        "plain_retained",
        "combo_ids",
        "combo_counts",
        "combo_sizes",
        "combo_safe",
        "release_power",
        "moments",
        "shard_counts_done",
        "shard_moments_done",
        "shard_epoch",
        "shard_commitment_keys",
        "shard_commitment_values",
        "request_counter",
    ]
)


def _assert_checkpoint_roundtrip(federation, blob):
    """Restore ``blob`` into a fresh leader enclave and checkpoint again.

    The re-sealed plaintext must equal the original byte for byte, and
    the moment state must travel as arrays only.  Returns the restored
    enclave and the decoded payload.
    """
    leader_id = federation.leader_id
    fresh = GenDPREnclave(
        platform_key=federation.platforms[leader_id].root_key,
        enclave_id=leader_id,
        data_auth_key=federation.enclaves[leader_id]._data_signer._key,
    )
    fresh.ecall("restore_state", blob)
    plaintext = unseal(fresh, blob)
    assert unseal(fresh, fresh.ecall("checkpoint_state")) == plaintext
    payload = serialization.decode(plaintext)
    assert sorted(payload["moments"]) == ["case", "pairs", "reference"]
    assert all(
        isinstance(value, np.ndarray) for value in payload["moments"].values()
    )
    # Pinned inventory: moment state may only ever travel as the three
    # arrays under "moments", never as per-pair keys or rows.
    assert sorted(payload) == _CHECKPOINT_KEYS
    return fresh, payload


class TestCheckpointRestore:
    def test_recovered_leader_completes_study_identically(
        self, small_cohort, study_config
    ):
        # Reference: an uninterrupted run.
        reference = GenDPRProtocol(
            build_federation(
                study_config, partition_cohort(small_cohort, 3), small_cohort
            )
        ).run()

        # Interrupted run: checkpoint after MAF, crash, recover, resume.
        federation = build_federation(
            study_config, partition_cohort(small_cohort, 3), small_cohort
        )
        protocol, l_prime = _run_through_maf(federation)
        leader_host = federation.leader_host
        blob = leader_host.enclave.ecall("checkpoint_state")

        federation.enclaves[federation.leader_id].crash()
        replacement = _replace_leader(federation)
        replacement.ecall("restore_state", blob)
        # The leader's sealed stores live on its own host and remain
        # readable: sealing keys are platform+measurement bound, and the
        # replacement runs the same trusted code on the same platform.
        store = leader_host.store
        ref_store = leader_host.reference_store

        l_double_prime = replacement.ecall(
            "lead_run_ld", store, ref_store, protocol._exchange
        )
        replacement.ecall(
            "lead_broadcast_retained", "double_prime", protocol._exchange
        )
        l_safe = replacement.ecall(
            "lead_run_lr", store, ref_store, protocol._exchange
        )

        assert l_prime == reference.l_prime
        assert l_double_prime == reference.l_double_prime
        assert l_safe == reference.l_safe

    def test_checkpoint_requires_leader(self, federation):
        member_id = next(
            m for m in federation.member_ids if m != federation.leader_id
        )
        with pytest.raises(ProtocolError):
            federation.enclaves[member_id].ecall("checkpoint_state")

    def test_tampered_checkpoint_rejected(self, federation):
        protocol, _ = _run_through_maf(federation)
        blob = federation.leader_host.enclave.ecall("checkpoint_state")
        raw = bytearray(blob.data)
        raw[30] ^= 0xFF
        with pytest.raises(SealingError):
            federation.leader_host.enclave.ecall(
                "restore_state", SealedBlob(bytes(raw), blob.label)
            )

    def test_foreign_platform_cannot_restore(self, federation, small_cohort):
        protocol, _ = _run_through_maf(federation)
        blob = federation.leader_host.enclave.ecall("checkpoint_state")
        foreign = GenDPREnclave(
            platform_key=bytes(32),
            enclave_id=federation.leader_id,
            data_auth_key=bytes(32),
        )
        with pytest.raises(SealingError):
            foreign.ecall("restore_state", blob)

    def test_checkpoint_roundtrip_preserves_state(self, federation):
        protocol, l_prime = _run_through_maf(federation)
        leader = federation.enclaves[federation.leader_id]
        fresh, payload = _assert_checkpoint_roundtrip(
            federation, leader.ecall("checkpoint_state")
        )
        assert fresh._retained["prime"] == l_prime
        assert fresh._member_sizes == leader._member_sizes
        assert fresh._combo_sizes == leader._combo_sizes
        assert payload["moments"]["pairs"].shape == (0, 2)

    def test_checkpoint_roundtrip_after_ld_flat_collusion(
        self, small_cohort, study_config
    ):
        config = replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            study_id="roundtrip-flat-f1",
        )
        federation = build_federation(
            config, partition_cohort(small_cohort, 3), small_cohort
        )
        protocol, _l_prime = _run_through_maf(federation)
        leader_host = federation.leader_host
        leader_host.enclave.ecall(
            "lead_run_ld",
            leader_host.store,
            leader_host.reference_store,
            protocol._exchange,
        )
        _fresh, payload = _assert_checkpoint_roundtrip(
            federation, leader_host.enclave.ecall("checkpoint_state")
        )
        moments = payload["moments"]
        num_pairs = moments["pairs"].shape[0]
        assert num_pairs > 0
        # f0 plus the three 2-of-3 combinations, pooled at ingest.
        assert moments["case"].shape == (4, num_pairs)
        assert moments["reference"].shape == (num_pairs,)

    def test_checkpoint_roundtrip_at_every_shard_task_boundary(
        self, small_cohort, study_config, monkeypatch
    ):
        config = replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            sharding=ShardingConfig.over(3),
            resilience=ResilienceConfig.supervised(),
            study_id="roundtrip-sharded-f1",
        )
        federation = build_federation(
            config, partition_cohort(small_cohort, 3), small_cohort
        )
        boundaries = []
        seal_progress = ProtocolSupervisor._seal_progress

        def record(supervisor):
            seal_progress(supervisor)
            boundaries.append(supervisor._checkpoint)

        monkeypatch.setattr(ProtocolSupervisor, "_seal_progress", record)
        GenDPRProtocol(federation).run()
        # Three counts tasks, then one moments task per shard owning pairs.
        assert len(boundaries) > 3
        table_sizes = []
        for blob in boundaries:
            _fresh, payload = _assert_checkpoint_roundtrip(federation, blob)
            table_sizes.append(payload["moments"]["pairs"].shape[0])
        assert table_sizes[:3] == [0, 0, 0]
        assert table_sizes[3:] == sorted(table_sizes[3:])
        assert table_sizes[-1] > table_sizes[3] > 0
