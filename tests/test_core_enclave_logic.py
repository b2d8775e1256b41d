"""Trusted-module unit tests (GenDPREnclave internals)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import partition_cohort, run_study
from repro.config import CollusionPolicy, ShardingConfig
from repro.core import enclave_logic
from repro.core.enclave_logic import GenDPREnclave
from repro.core.federation import build_federation
from repro.errors import PhaseOrderError, ProtocolError, TEEError

_KEY = bytes(range(32))


def _enclave(enclave_id="gdo-0"):
    return GenDPREnclave(
        platform_key=_KEY, enclave_id=enclave_id, data_auth_key=bytes(32)
    )


def _params(**overrides):
    params = {
        "study_id": "s",
        "snp_count": 10,
        "maf_cutoff": 0.05,
        "ld_cutoff": 1e-5,
        "alpha": 0.1,
        "beta": 0.9,
        "member_ids": ["gdo-0", "gdo-1", "gdo-2"],
        "leader_id": "gdo-1",
        "f_values": [],
    }
    params.update(overrides)
    return params


class TestConfigure:
    def test_missing_keys_rejected(self):
        enclave = _enclave()
        with pytest.raises(ProtocolError, match="misses"):
            enclave.ecall("configure", {"study_id": "s"})

    def test_leader_must_be_member(self):
        enclave = _enclave()
        with pytest.raises(ProtocolError):
            enclave.ecall("configure", _params(leader_id="stranger"))

    def test_own_id_must_be_member(self):
        enclave = _enclave("outsider")
        with pytest.raises(ProtocolError):
            enclave.ecall("configure", _params())

    def test_unconfigured_enclave_refuses_work(self):
        enclave = _enclave()
        with pytest.raises(PhaseOrderError):
            enclave.ecall("received_retained", "prime")

    def test_is_leader(self):
        leader = _enclave("gdo-1")
        leader.ecall("configure", _params())
        assert leader.is_leader
        member = _enclave("gdo-0")
        member.ecall("configure", _params())
        assert not member.is_leader


class TestCombinationBuilder:
    def test_f0_always_first(self):
        combos = GenDPREnclave._build_combinations(["a", "b", "c"], [])
        assert combos == [("f0", 0, ("a", "b", "c"))]

    def test_static_f(self):
        combos = GenDPREnclave._build_combinations(["a", "b", "c"], [1])
        assert len(combos) == 1 + math.comb(3, 2)
        sizes = {len(members) for _, f, members in combos if f == 1}
        assert sizes == {2}

    def test_conservative(self):
        combos = GenDPREnclave._build_combinations(["a", "b", "c", "d"], [1, 2, 3])
        expected = 1 + math.comb(4, 3) + math.comb(4, 2) + math.comb(4, 1)
        assert len(combos) == expected
        ids = [combo_id for combo_id, _, _ in combos]
        assert len(set(ids)) == len(ids)  # unique identifiers

    def test_duplicate_f_collapsed(self):
        combos = GenDPREnclave._build_combinations(["a", "b"], [1, 1])
        assert len(combos) == 1 + 2

    def test_infeasible_f_rejected(self):
        with pytest.raises(ProtocolError):
            GenDPREnclave._build_combinations(["a", "b"], [2])

    def test_f_zero_in_list_ignored(self):
        combos = GenDPREnclave._build_combinations(["a", "b"], [0])
        assert len(combos) == 1


class TestChannelInstallation:
    def test_foreign_endpoint_rejected(self):
        from repro.tee.channel import ChannelEndpoint

        enclave = _enclave()
        endpoint = ChannelEndpoint("someone-else", "gdo-0", bytes(32))
        with pytest.raises(TEEError):
            enclave.install_channel(endpoint)

    def test_missing_channel_surfaces_protocol_error(self):
        enclave = _enclave("gdo-1")
        enclave.ecall("configure", _params())
        with pytest.raises(ProtocolError, match="attested channel"):
            enclave._channel("gdo-0")


class TestLoadValidation:
    def test_reference_size_mismatch(self):
        enclave = _enclave("gdo-1")
        enclave.ecall("configure", _params())
        with pytest.raises(ProtocolError):
            enclave.ecall("load_reference_matrix", bytes(25), 3)

    def test_reference_non_binary_rejected(self):
        enclave = _enclave("gdo-1")
        enclave.ecall("configure", _params())
        with pytest.raises(ProtocolError):
            enclave.ecall("load_reference_matrix", bytes([7] * 20), 2)

    def test_unknown_dataset_container_rejected(self):
        enclave = _enclave("gdo-1")
        enclave.ecall("configure", _params())
        with pytest.raises(ProtocolError):
            enclave.ecall("load_local_dataset", object())


class TestTrustedStateDeclaration:
    def test_channels_and_keys_declared_trusted(self):
        names = GenDPREnclave.trusted_state_names()
        assert "_channels" in names
        assert "_platform_key" in names
        assert "_data_signer" in names


class TestMalformedSnpVectors:
    """SNP lists arrive as 1-D int32 vectors, and LD pair lists as
    (P, 2) int32 matrices, or not at all.

    The frames below are authenticated by the leader's own channel, so
    they reach the codec intact, and the codec decodes any dtype and
    shape.  The receiving ECALL must refuse them, not truncate a float
    array or fail on a wrong shape with a bare ``TypeError``.
    """

    @pytest.mark.parametrize("ecall", ["ingest_retained", "answer_lr"])
    @pytest.mark.parametrize(
        "snps",
        [
            np.arange(4, dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
        ],
        ids=["float64-vector", "int32-matrix"],
    )
    def test_refused(self, small_cohort, study_config, ecall, snps):
        federation = build_federation(
            study_config, partition_cohort(small_cohort, 3), small_cohort
        )
        leader = federation.enclaves[federation.leader_id]
        member = next(m for m in federation.member_ids if m != federation.leader_id)
        if ecall == "ingest_retained":
            payload = {"stage": "prime", "snps": snps}
            args = (leader._protect(member, "retained", payload),)
        else:
            payload = {"req_id": "lr-1", "column_sets": {"main": snps}, "requests": []}
            store = federation.hosts[member].store
            args = (store, leader._protect(member, "lr", payload))
        with pytest.raises(ProtocolError, match="1-D int32 vector"):
            federation.enclaves[member].ecall(ecall, *args)

    @pytest.mark.parametrize("ecall", ["answer_ld", "ingest_shard_task"])
    @pytest.mark.parametrize(
        "pairs",
        [
            np.array([[12.7, 30.9]]),
            np.array([12, 30], dtype=np.int32),
        ],
        ids=["float64-matrix", "int32-vector"],
    )
    def test_pair_lists_refused(self, small_cohort, study_config, ecall, pairs):
        config = dataclasses.replace(study_config, sharding=ShardingConfig.over(2))
        federation = build_federation(
            config, partition_cohort(small_cohort, 3), small_cohort
        )
        leader = federation.enclaves[federation.leader_id]
        member = next(m for m in federation.member_ids if m != federation.leader_id)
        if ecall == "answer_ld":
            payload = {"req_id": "ld-1", "pairs": pairs}
            store = federation.hosts[member].store
            args = (store, leader._protect(member, "ld", payload))
        else:
            payload = {"task": "t-1", "kind": "moments", "shard": 0, "pairs": pairs}
            args = (leader._protect(member, "shard-task", payload),)
        with pytest.raises(ProtocolError, match=r"int32 array of shape \(None, 2\)"):
            federation.enclaves[member].ecall(ecall, *args)

    @pytest.mark.parametrize(
        "label, shards",
        [
            ("summary counts", 1),
            ("LD joint counts", 1),
            ("shard partial sums", 2),
            ("shard pool sizes", 2),
        ],
    )
    def test_float_statistics_refused(
        self, small_cohort, study_config, monkeypatch, label, shards
    ):
        """A sender shipping float64 statistics instead of int32 ones is
        refused at the receive site, not truncated to the honest ints:
        the summary counts, the LD joint counts, and both arrays of a
        shard partial."""
        narrow = enclave_logic._wire_int32

        def fractional(values, what):
            array = narrow(values, what)
            return array + 0.75 if what == label else array

        monkeypatch.setattr(enclave_logic, "_wire_int32", fractional)
        config = dataclasses.replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            sharding=ShardingConfig.over(shards),
        )
        with pytest.raises(ProtocolError, match="must be an int32 array of shape"):
            run_study(small_cohort, config, 3)


def _forge(monkeypatch, attribute, forged_for):
    """Patch a ``GenDPREnclave`` method so that some non-leader members
    run a forged version: a compromised module, whose lies the leader
    must refuse.  ``forged_for`` maps an index into the sorted
    non-leader members to the transform that member runs."""
    honest = getattr(GenDPREnclave, attribute)

    def patched(self, *args):
        members = sorted(self._config()["member_ids"])
        followers = [m for m in members if m != self._config()["leader_id"]]
        for index, transform in forged_for.items():
            if self.enclave_id == followers[index]:
                return transform(self, honest, *args)
        return honest(self, *args)

    monkeypatch.setattr(GenDPREnclave, attribute, patched)


def _joint_count_of_everyone(self, honest, store, pairs):
    """Every pair carried by every individual: within [0, n], but above
    ``min(c_l, c_r)`` for any SNP some individual does not carry."""
    return np.full_like(honest(self, store, pairs), store.num_rows)


class TestStatisticBounds:
    """Joint counts are bounded by their SNPs' allele counts, and tree
    rows by the sizes members declared; both lies raise ProtocolError."""

    def test_joint_count_above_allele_counts_refused_at_flat_ingest(
        self, small_cohort, study_config, monkeypatch
    ):
        _forge(monkeypatch, "_local_moments", {0: _joint_count_of_everyone})
        with pytest.raises(
            ProtocolError, match="LD joint counts from .* inconsistent with the allele"
        ):
            run_study(small_cohort, study_config, 3)

    def test_joint_count_above_allele_counts_refused_at_the_root(
        self, small_cohort, study_config, monkeypatch
    ):
        """Interior nodes bound rows by their sizes only; the root bounds
        every pooled combination by its pooled allele counts."""
        _forge(monkeypatch, "_local_moments", {1: _joint_count_of_everyone})
        config = dataclasses.replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            sharding=ShardingConfig.over(2),
        )
        with pytest.raises(
            ProtocolError, match="pooled LD joint counts are inconsistent"
        ):
            run_study(small_cohort, config, 4)

    def test_partial_sum_above_its_row_size_refused_by_the_parent(
        self, small_cohort, study_config, monkeypatch
    ):
        def beyond_everyone(self, honest, store, pairs):
            return np.full_like(honest(self, store, pairs), store.num_rows + 1)

        _forge(monkeypatch, "_local_moments", {1: beyond_everyone})
        config = dataclasses.replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            sharding=ShardingConfig.over(2),
        )
        with pytest.raises(
            ProtocolError, match="inconsistent with its declared pool sizes"
        ):
            run_study(small_cohort, config, 4)

    def test_forged_member_size_refused_at_the_root(
        self, small_cohort, study_config, monkeypatch
    ):
        """Two members misdeclare their sizes by +1 and -1, so the pooled
        total still matches; the root compares every member row."""

        def shifted(delta):
            def declare(self, honest, peer, kind, payload):
                if kind == "summary":
                    payload = dict(payload, n_case=payload["n_case"] + delta)
                return honest(self, peer, kind, payload)

            return declare

        _forge(monkeypatch, "_protect", {0: shifted(1), 1: shifted(-1)})
        config = dataclasses.replace(
            study_config,
            collusion=CollusionPolicy.static(1),
            sharding=ShardingConfig.over(2),
        )
        with pytest.raises(ProtocolError, match="row sizes diverge"):
            run_study(small_cohort, config, 3)
