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
from repro.stats import ld
from repro.tee.storage import ColumnReader, seal_matrix

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


def _walk_message():
    """A well-formed f = 0 walk message: one walk of four SNPs, its
    stack depths, both padded to four, and round 0."""
    return {
        "walks": [np.array([0, 2, 5, 9], dtype=np.int32)],
        "depths": [np.array([1, 2, 2, 0], dtype=np.int32)],
        "lengths": np.array([4], dtype=np.int32),
        "round": 0,
    }


def _with(key, value):
    return lambda message: dict(message, **{key: value})


def _walk(values, dtype=np.int32):
    return _with("walks", [np.array(values, dtype=dtype)])


def _depths(values, dtype=np.int32):
    return _with("depths", [np.array(values, dtype=dtype)])


def _without(key):
    return lambda message: {k: v for k, v in message.items() if k != key}


#: One flaw per receive check of the LD walk message.
_WALK_FLAWS = {
    "two-walks-at-f0": lambda message: dict(
        message,
        walks=message["walks"] * 2,
        depths=message["depths"] * 2,
        lengths=np.array([4, 4], dtype=np.int32),
    ),
    "no-walks": lambda message: dict(
        message, walks=[], depths=[], lengths=np.zeros(0, dtype=np.int32)
    ),
    "walks-missing": _without("walks"),
    "walk-float64": _walk([0, 2, 5, 9], np.float64),
    "walk-matrix": _with("walks", [np.array([[0, 2], [5, 9]], dtype=np.int32)]),
    "walk-descending": _walk([9, 5, 2, 0]),
    "walk-repeated-snp": _walk([0, 2, 2, 9]),
    "walk-negative-snp": _walk([-1, 2, 5, 9]),
    "walk-unknown-snp": _walk([0, 2, 5, 1 << 20]),
    "depths-float64": _depths([1, 2, 2, 0], np.float64),
    "depths-unpadded": _depths([1, 2, 2]),
    "depths-first-not-one": _depths([2, 2, 2, 0]),
    "depths-zero": _depths([1, 0, 1, 0]),
    "depths-jump": _depths([1, 3, 2, 0]),
    "depths-missing": _without("depths"),
    "lengths-beyond-padding": _with("lengths", np.array([5], dtype=np.int32)),
    "lengths-negative": _with("lengths", np.array([-1], dtype=np.int32)),
    "lengths-float64": _with("lengths", np.array([4.0])),
    "round-beyond-remainder": _with("round", 1),
    "round-negative": _with("round", -1),
    "round-not-an-int": _with("round", "0"),
    "shard-without-pairs": _with("shard", 1),
}


class TestJointCounts:
    """The one joint-count gather (a table of touched columns, no
    ``np.unique``) answers what a ``np.unique`` gather answers."""

    @staticmethod
    def _unique_gather(reader, pairs):
        columns, inverse = np.unique(pairs, return_inverse=True)
        return ld.pair_moments_kernel(
            reader.packed_columns(columns), inverse.reshape(pairs.shape)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "num_pairs, num_cols", [(0, 30), (1, 1), (40, 1), (500, 70)]
    )
    def test_matches_a_unique_gather(self, seed, num_pairs, num_cols):
        rng = np.random.default_rng(seed)
        enclave = _enclave()
        matrix = (rng.random((37, num_cols)) < 0.4).astype(np.uint8)
        store = seal_matrix(enclave, matrix, "t", chunk_bytes=37 * 8)
        # Few columns and many rows: every draw repeats pairs.
        pairs = rng.integers(0, num_cols, size=(num_pairs, 2))
        with ColumnReader(enclave, store) as reader:
            joint = enclave_logic._joint_counts(reader, pairs)
            assert np.array_equal(joint, self._unique_gather(reader, pairs))
        assert joint.shape == (num_pairs,)

    @pytest.mark.parametrize("bad", [-1, 30])
    def test_unknown_columns_refused(self, bad):
        enclave = _enclave()
        store = seal_matrix(enclave, np.zeros((5, 30), dtype=np.uint8), "t")
        with ColumnReader(enclave, store) as reader, pytest.raises(ProtocolError):
            enclave_logic._joint_counts(reader, np.array([[0, bad]]))


class TestMalformedSnpVectors:
    """SNP lists arrive as 1-D int32 vectors, and LD walks with their
    stack depths as 1-D int32 vectors of one padded length, or not at
    all.

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

    @pytest.mark.parametrize(
        "ecall, flaw",
        [
            pytest.param(ecall, flaw, id=f"{site}-{flaw}")
            for ecall, site in (("answer_ld", "ld"), ("ingest_shard_task", "shard"))
            for flaw in sorted(_WALK_FLAWS)
            if not (site == "ld" and flaw == "shard-without-pairs")
            and not (site == "shard" and flaw.startswith("round"))
        ],
    )
    def test_walks_refused(self, small_cohort, study_config, ecall, flaw):
        """Both receive sites of the LD walks refuse every malformed
        walk message with ProtocolError, after answering (or installing)
        the well-formed one: wrong walk count, walks that are not
        strictly ascending known SNPs, depths that no candidate stack
        makes, lengths beyond the padding, a round beyond the
        remainder, and a moments task for a shard owning no pairs."""
        shards = 1 if ecall == "answer_ld" else 2
        config = dataclasses.replace(
            study_config, sharding=ShardingConfig.over(shards)
        )
        federation = build_federation(
            config, partition_cohort(small_cohort, 3), small_cohort
        )
        leader = federation.enclaves[federation.leader_id]
        member = next(m for m in federation.member_ids if m != federation.leader_id)
        enclave = federation.enclaves[member]
        store = federation.hosts[member].store

        def deliver(payload):
            if ecall == "answer_ld":
                frame = leader._protect(member, "ld", dict(payload, req_id="ld-1"))
                return enclave.ecall("answer_ld", store, frame)
            spec = {k: v for k, v in payload.items() if k != "round"}
            spec["task"] = f"t-{len(enclave._shard_tasks)}"
            spec.setdefault("kind", "moments")
            spec.setdefault("shard", 0)
            frame = leader._protect(member, "shard-task", spec)
            return enclave.ecall("ingest_shard_task", frame)

        deliver(_walk_message())
        with pytest.raises(ProtocolError):
            deliver(_WALK_FLAWS[flaw](_walk_message()))

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
