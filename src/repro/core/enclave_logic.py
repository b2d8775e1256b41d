"""GenDPR's trusted module.

One enclave class implements both roles of Figure 2 — the member-side
modules (MAF/LD/LR-test "phase trusted modules") and the leader-side
coordination module.  Deploying a single trusted codebase everywhere is
what lets every pair of enclaves mutually attest to the *same*
measurement; which instance acts as leader is decided by the random
election, not by code identity.

Untrusted hosts interact with this class exclusively through ECALLs.
Leader-side ECALLs receive an ``ocall`` callable through which the
enclave asks the host to exchange encrypted frames with other members —
the SGX OCALL pattern: the host is a blind router, all payloads cross
it AEAD-protected under channel keys only enclaves hold.

Data flow per phase (paper Sections 5.3-5.5):

* **Summaries** — members answer with their case size and allele-count
  vector over ``L_des``.
* **Phase 1 (MAF)** — leader-local: aggregate counts, filter on folded
  global MAF, intersect across collusion combinations.
* **Phase 2 (LD)** — leader walks adjacent pairs of the retained list,
  keeping the better chi-squared-ranked SNP of each dependent pair.
  Beforehand it requests the joint count of every pair the walk can
  reach from every member in one padded round, and pools them with its
  own and the reference set's; a pair's other sums are the allele
  counts pooled for Phase 1.
* **Phase 3 (LR-test)** — leader broadcasts the global case/reference
  frequency vectors, members return local LR matrices, the leader
  merges them with its own and the reference matrix and runs the
  empirical safe-subset search.  All collusion combinations (and the
  plain track) are batched into a *single* request/response round:
  each member receives every entry it participates in at once and
  answers with all of its matrices in one frame.

Collusion tolerance (Section 5.6) runs every phase over all
``C(G, G-f)`` honest-member combinations and intersects the outcomes;
the full-federation combination (f = 0) is always included so the
release is also safe against purely external adversaries.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..crypto.kdf import derive_subkey
from ..crypto.signing import MacSigner
from ..errors import (
    ChannelError,
    EquivocationError,
    GenomicsError,
    PhaseOrderError,
    ProtocolError,
    StaleCheckpointError,
    TEEError,
    TranscriptDivergenceError,
)
from ..genomics.vcf import SignedMatrix
from ..net import serialization
from ..stats import chisq, ld, lr_test, maf
from ..tee.channel import ChannelEndpoint
from ..tee.enclave import Enclave, ecall
from ..tee.sealing import SealedBlob, seal, unseal
from ..tee.storage import ColumnReader, SealedColumnStore, seal_matrix
from . import pipeline
from .shard import (
    AggregationTree,
    ShardPlan,
    ShardRange,
    aggregation_tree,
    plan_shards,
)

#: Host-routed exchange: {peer_id: request_frame} -> {peer_id: response_frame}.
OcallExchange = Callable[[str, Dict[str, bytes]], Dict[str, bytes]]

#: Padded LD pairs per walked SNP.  Members answer exactly
#: ``_LD_PAD_PER_SNP * max(|L'|, |L'_plain|)`` pair rows per ``ld``
#: round (a moments shard task ``_LD_PAD_PER_SNP`` per walked SNP in
#: its range), so answer sizes depend on the published retained sets
#: only, never on the private ranking that shapes the reachable pair
#: set.  Measured maxima: 13.3 reachable pairs per L' SNP over 80 f=0
#: cohorts, and 14.65 per ``max(|L'|, |L'_plain|)`` for the f=1 union
#: over 24 cohorts.  A larger union takes further padded rounds
#: (``ld_overflow_rounds``).  Read at call time on both sides.
_LD_PAD_PER_SNP = 16

_STAGES = ("prime", "double_prime", "safe")

#: Shard-task kinds the tree aggregation knows how to combine.
_SHARD_KINDS = ("counts", "moments")
#: Zero state of the per-enclave shard counters (observability bridge).
_SHARD_COUNTER_ZERO = {
    "tasks_opened": 0,
    "tasks_accepted": 0,
    "partials_emitted": 0,
    "partials_ingested": 0,
    "partial_bytes": 0,
    "peak_partial_bytes": 0,
}


def _padded(rows: np.ndarray, bound: int) -> np.ndarray:
    """``rows`` followed by repeats of its first row: ``bound`` rows.

    Padding pair rows repeat the first pair, so padding their joint
    counts the same way gives the counts of the padded pair list.
    """
    out = np.repeat(rows[:1], bound, axis=0)
    out[: len(rows)] = rows
    return out


class _LdLayout(NamedTuple):
    """Where each pair an LD walk can reach is fetched.

    ``buckets`` maps a shard index to its moments task's ``(padded
    pairs, real pair count)``: the pairs whose right SNP it owns, at
    most ``_LD_PAD_PER_SNP`` per SNP any walk has in its range, padded
    to exactly that.  ``remainder`` holds the pairs no bucket holds
    (every pair on the flat path), fetched by flat ``ld`` rounds of
    :func:`_ld_round_bound` rows each.
    """

    buckets: Dict[int, Tuple[np.ndarray, int]]
    remainder: np.ndarray


def _ld_round_bound(message: Mapping[str, Any]) -> int:
    """Pair rows per flat ``ld`` round: ``_LD_PAD_PER_SNP`` per SNP of
    the walks' padded length ``m = max(|L'|, |L'_plain|)``, a public
    length both sides read off the walk message."""
    return _LD_PAD_PER_SNP * len(message["walks"][0])


def _ld_layout(
    walks: Sequence[np.ndarray],
    depths: Sequence[np.ndarray],
    ranges: Optional[Sequence[ShardRange]],
) -> _LdLayout:
    """The layout of every pair the walks over ``walks`` can reach.

    The leader and every member derive it from the same walks and
    stack depths (:func:`repro.stats.ld.pairs_from_depths`) and the
    attested shard ranges (``None`` on the flat path), which do not
    change with the repair epoch.  Raises :class:`GenomicsError` on
    malformed depths.
    """
    codes = ld.union_codes(
        [ld.pairs_from_depths(walk, depth) for walk, depth in zip(walks, depths)]
    )
    buckets: Dict[int, Tuple[np.ndarray, int]] = {}
    if ranges is None:
        return _LdLayout(buckets, ld.code_pairs(codes))
    starts = np.asarray([r.start for r in ranges], dtype=np.int64)
    stops = np.asarray([r.stop for r in ranges], dtype=np.int64)
    in_range = np.max(
        [np.searchsorted(w, stops) - np.searchsorted(w, starts) for w in walks],
        axis=0,
    )
    owners = np.searchsorted(starts, codes & 0xFFFFFFFF, side="right") - 1
    overflow = [codes[:0]]
    for shard in ranges:
        owned = codes[owners == shard.index]
        shard_bound = _LD_PAD_PER_SNP * int(in_range[shard.index])
        if len(owned):
            real = ld.code_pairs(owned[:shard_bound])
            buckets[shard.index] = (_padded(real, shard_bound), len(real))
            overflow.append(owned[shard_bound:])
    remainder = ld.code_pairs(np.sort(np.concatenate(overflow)))
    return _LdLayout(buckets, remainder)


def _joint_counts(
    reader: ColumnReader, pairs: np.ndarray, meter: Any = None
) -> np.ndarray:
    """The joint count ``mu_lr`` of each ``(P, 2)`` pair row over the
    reader's store, as a ``(P,)`` vector (rows match input).

    The touched columns are marked in a table over the store's columns,
    gathered once, bit-packed (one unseal per chunk), and every joint
    count is a set-bit count.  With a ``meter``, the gathered words are
    registered as a trusted buffer while the kernel runs.
    """
    pair_array = np.asarray(pairs, dtype=np.int64)
    if pair_array.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if pair_array.min() < 0 or pair_array.max() >= reader.num_cols:
        raise ProtocolError("LD pairs reference unknown SNPs")
    touched = np.zeros(reader.num_cols, dtype=bool)
    touched[pair_array] = True
    columns = np.flatnonzero(touched)
    inverse = (np.cumsum(touched) - 1)[pair_array]
    packed = reader.packed_columns(columns)
    if meter is None:
        return ld.pair_moments_kernel(packed, inverse)
    # One moment gather is in flight per enclave at a time (ECALLs are
    # synchronous), so a fixed name is unambiguous — and unlike an
    # id()-derived name it is identical across replayed runs.
    meter.register_buffer("ld-moments", packed.nbytes)
    try:
        return ld.pair_moments_kernel(packed, inverse)
    finally:
        meter.release_buffer("ld-moments")


_INT32 = np.iinfo(np.int32)


def _wire_int32(values: Any, what: str) -> np.ndarray:
    """Narrow integer ``values`` to the int32 wire format, range-checked."""
    array = np.asarray(values)
    if array.size and (array.min() < _INT32.min or array.max() > _INT32.max):
        raise ProtocolError(f"{what} overflow the int32 wire format")
    return array.astype(np.int32)


def _zero_padded(values: Any, width: int, what: str) -> np.ndarray:
    """``values`` as an int32 vector of ``width``, zeros after them."""
    out = np.zeros(width, dtype=np.int32)
    out[: len(values)] = _wire_int32(values, what)
    return out


def _check_joint(
    what: str, joint: np.ndarray, pairs: np.ndarray, counts: np.ndarray, sizes: Any
) -> None:
    """Refuse joint counts that 0/1 genotypes cannot produce.

    Of ``n`` individuals, ``c_l`` carrying SNP l and ``c_r`` SNP r,
    between ``max(0, c_l + c_r - n)`` and ``min(c_l, c_r)`` carry both.
    ``joint`` holds the joint counts of ``pairs`` (``P`` or ``C x P``)
    over populations with allele counts ``counts`` (``L`` or ``C x L``)
    and sizes ``sizes``.
    """
    left = counts[..., pairs[:, 0]]
    right = counts[..., pairs[:, 1]]
    size = np.asarray(sizes, dtype=np.int64)[..., None]
    if bool(np.any(joint < np.maximum(left + right - size, 0))) or bool(
        np.any(joint > np.minimum(left, right))
    ):
        raise ProtocolError(f"{what} are inconsistent with the allele counts")


def _received_int32(
    value: Any, what: str, shape: Tuple[Optional[int], ...] = (None,)
) -> np.ndarray:
    """Receive-side twin of :func:`_wire_int32`.

    The codec decodes whatever dtype and shape an authenticated frame
    carries, so anything but the int32 array a sender narrowed with
    :func:`_wire_int32` is refused, never coerced.  ``shape`` is the
    expected length per axis, ``None`` where any length goes: SNP
    vectors are ``(None,)``, an ``ld`` answer ``(B,)``.
    """
    if not (
        isinstance(value, np.ndarray)
        and value.dtype == np.int32
        and value.ndim == len(shape)
        and all(want is None or got == want for got, want in zip(value.shape, shape))
    ):
        expected = (
            "a 1-D int32 vector"
            if shape == (None,)
            else f"an int32 array of shape {shape}"
        )
        raise ProtocolError(f"{what} must be {expected}")
    return value


class GenDPREnclave(Enclave):
    """The federation's trusted module (member + leader roles)."""

    CODE_VERSION = "1"

    def __init__(
        self,
        platform_key: bytes,
        enclave_id: str,
        data_auth_key: bytes,
        rng=None,
    ):
        super().__init__(platform_key, enclave_id, rng=rng)
        self._data_signer = MacSigner(data_auth_key, purpose="vcf-dataset")
        self._channels: Dict[str, ChannelEndpoint] = {}
        self._study: Optional[Dict[str, Any]] = None
        self._combos: List[Tuple[str, int, Tuple[str, ...]]] = []
        # Leader aggregation state.
        self._member_counts: Dict[str, np.ndarray] = {}
        self._member_sizes: Dict[str, int] = {}
        self._reference_counts: Optional[np.ndarray] = None
        self._reference_rows = 0
        self._combo_counts: Dict[str, np.ndarray] = {}
        self._combo_sizes: Dict[str, int] = {}
        self._ranking_cache: Dict[str, np.ndarray] = {}
        #: Pooled LD pair moments per combination plus the reference's,
        #: filled by the flat fetch and the tree aggregation alike.
        self._moments = ld.MomentTable(0)
        # Plain (collusion-oblivious) track, kept alongside the tolerant
        # pipeline so Table 5 can report what collusion tolerance withheld.
        self._plain_retained: Dict[str, List[int]] = {}
        self._retained: Dict[str, List[int]] = {}
        self._combo_safe: Dict[str, Tuple[int, ...]] = {}
        self._release_power = 0.0
        self._lr_request_counter = 0
        # LD exchange accounting (observability only, not protocol
        # state): the walks' comparisons, padded pairs members
        # computed, and padded rounds beyond the planned exchange.
        self._ld_pairs_requested = 0
        self._ld_pairs_fetched = 0
        self._ld_overflow_rounds = 0
        # SNP-range sharding: every enclave derives the same plan and
        # aggregation tree from the attested study parameters, so a
        # Byzantine orchestrator can neither reroute shards nor re-root
        # the combine tree.
        self._shard_plan: Optional[ShardPlan] = None
        self._shard_tree: Optional[AggregationTree] = None
        self._shard_tasks: Dict[str, Dict[str, Any]] = {}
        #: Child partials received per open task: child -> (rows, sizes).
        self._shard_accum: Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]] = {}
        #: Shard indices whose counts task completed (resume boundary;
        #: a set so a repaired re-run folds idempotently).
        self._shard_counts_done: set = set()
        #: Shard indices whose moments task completed (resume boundary).
        self._shard_moments_done: set = set()
        #: Tree-repair generation: bumped by ``shard_repair`` after a
        #: mid-round member loss, rotating the deterministic layout.
        self._shard_epoch = 0
        #: Leader ledger of leaf commitments, keyed (kind, shard, node);
        #: the integrity layer's verification re-run compares against it.
        self._shard_commitments: Dict[Tuple[str, int, str], bytes] = {}
        #: Leader: the padded walks, stack depths and walk lengths every
        #: LD request and moments shard task carries.
        self._ld_walk_message: Optional[Dict[str, Any]] = None
        #: The LD layout last derived from received walks and depths,
        #: keyed by their bytes (a hardened member opens a moments task
        #: per shard and verify run, all with the same walks).
        self._ld_layout_cache: Optional[Tuple[bytes, _LdLayout]] = None
        self._shard_counters: Dict[str, int] = dict(_SHARD_COUNTER_ZERO)
        # Member-side record of leader broadcasts.
        self._received_retained: Dict[str, List[int]] = {}
        # Outbound payload audit trail (kind, peer, bytes, genotype_rows).
        self._audit_log: List[Dict[str, Any]] = []
        # Broadcast-consistency state: digest of the canonical broadcast
        # payload per stage (leader records at send, members at ingest),
        # signed during the echo round with a key every enclave derives
        # from the study's data-authenticity root.
        self._echo_signer = MacSigner(
            derive_subkey(data_auth_key, "broadcast-echo"),
            purpose="broadcast-echo",
        )
        self._broadcast_digests: Dict[str, bytes] = {}
        # Checkpoint-freshness counter (leader only; installed at build
        # time from the hosting platform, like channels).
        self._rollback_counter = None
        # Simulation hook: a compromised-broadcaster adversary the chaos
        # tier installs to make the leader equivocate (never installed
        # in production configurations).
        self._equivocation_adversary = None
        # Simulation hook: a compromised-module adversary that falsifies
        # this enclave's own shard-leaf statistics before emission
        # (exercises the dual-run commitment comparison).
        self._shard_adversary = None

    # ------------------------------------------------------------------
    # Trusted provisioning (attestation-time, not host-callable ECALLs)
    # ------------------------------------------------------------------

    def install_channel(self, endpoint: ChannelEndpoint) -> None:
        """Install an attested channel endpoint.

        Called by the federation setup immediately after
        :func:`repro.tee.channel.establish_channel`; conceptually this
        happens inside the attestation ceremony, never across the
        untrusted ECALL boundary.
        """
        if endpoint.local_id != self.enclave_id:
            raise TEEError("endpoint does not belong to this enclave")
        self._channels[endpoint.peer_id] = endpoint

    def install_rollback_counter(self, counter) -> None:
        """Bind the platform's monotonic counter for checkpoint epochs.

        Provisioning-time, like :meth:`install_channel`: the counter is
        platform state (it survives enclave teardown), so a replacement
        enclave on the same platform sees its predecessor's advances —
        which is exactly what defeats checkpoint rollback.
        """
        self._rollback_counter = counter

    def install_equivocation_adversary(self, adversary) -> None:
        """Install the chaos tier's compromised-broadcaster hook.

        Simulation-only: models a leader whose broadcast path is under
        adversarial control, to exercise the echo-round detection.
        """
        self._equivocation_adversary = adversary

    def install_shard_adversary(self, adversary) -> None:
        """Install the chaos tier's compromised-module hook.

        Simulation-only: models an interior tree node whose leaf
        statistics are falsified before emission.  A *crash* replacement
        re-installs the hook (the platform stays compromised); a
        *quarantine* replacement installs a fresh attested module and
        passes ``None`` (the lie was in the module, and re-attestation
        restores honesty).
        """
        self._shard_adversary = adversary

    @classmethod
    def trusted_state_names(cls) -> set:
        return super().trusted_state_names() | {
            "_channels",
            "_data_signer",
            "_echo_signer",
            "_member_counts",
            "_moments",
            "_rollback_counter",
            "_shard_accum",
        }

    def crash(self) -> None:
        """Tear the enclave down; the derived LD layout goes with it."""
        super().crash()
        self._ld_walk_message = None
        self._ld_layout_cache = None

    # ------------------------------------------------------------------
    # Framing helpers
    # ------------------------------------------------------------------

    def _channel(self, peer: str) -> ChannelEndpoint:
        try:
            return self._channels[peer]
        except KeyError:
            raise ProtocolError(
                f"{self.enclave_id} has no attested channel to {peer}"
            ) from None

    def _protect(self, peer: str, kind: str, payload: Any) -> bytes:
        raw = serialization.encode(payload)
        self._audit_log.append(
            {
                "peer": peer,
                "kind": kind,
                "plaintext_bytes": len(raw),
                "genotype_rows": 0,
            }
        )
        return self._channel(peer).protect(raw, kind=kind.encode("utf-8"))

    def _open(self, peer: str, kind: str, frame: bytes) -> Any:
        raw = self._channel(peer).open(frame, kind=kind.encode("utf-8"))
        return serialization.decode(raw)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @ecall
    def configure(self, params: Dict[str, Any]) -> None:
        """Fix the study parameters (thresholds, members, leader, f values)."""
        required = {
            "study_id",
            "snp_count",
            "maf_cutoff",
            "ld_cutoff",
            "alpha",
            "beta",
            "member_ids",
            "leader_id",
            "f_values",
        }
        missing = required - set(params)
        if missing:
            raise ProtocolError(f"study configuration misses {sorted(missing)}")
        members = sorted(params["member_ids"])
        if params["leader_id"] not in members:
            raise ProtocolError("leader must be a federation member")
        if self.enclave_id not in members:
            raise ProtocolError(
                f"{self.enclave_id} is not part of this federation"
            )
        self._study = dict(params, member_ids=members)
        self._combos = self._build_combinations(members, list(params["f_values"]))
        self._reset_study_state()
        self._build_shard_layout()

    def _build_shard_layout(self) -> None:
        """Derive the shard plan and combine tree from the attested study.

        Every enclave recomputes both locally from ``configure``'s
        parameters (which the fingerprint covers), so the untrusted
        orchestrator can only *schedule* shard work, never redefine
        which ranges exist, who owns them, or who aggregates for whom.
        """
        study = self._config()
        num_shards = int(study.get("num_shards", 1))
        if num_shards <= 1:
            self._shard_plan = None
            self._shard_tree = None
            return
        members = list(study["member_ids"])
        self._shard_plan = plan_shards(
            study["snp_count"], num_shards, members,
            epoch=self._shard_epoch,
        )
        self._shard_tree = aggregation_tree(
            members, study["leader_id"], epoch=self._shard_epoch
        )

    def _reset_study_state(self) -> None:
        """Clear every per-study aggregate so a warm enclave can serve a
        new study over its existing substrate (channels, signers,
        rollback counter survive; everything a phase accumulates does
        not).  Safe under failover too: a replacement enclave is
        configured fresh and then ``restore_state`` overwrites exactly
        the checkpointed fields."""
        self._member_counts = {}
        self._member_sizes = {}
        self._reference_counts = None
        self._reference_rows = 0
        self._combo_counts = {}
        self._combo_sizes = {}
        self._ranking_cache = {}
        self._moments = ld.MomentTable(len(self._combos))
        self._plain_retained = {}
        self._retained = {}
        self._combo_safe = {}
        self._release_power = 0.0
        self._lr_request_counter = 0
        self._ld_pairs_requested = 0
        self._ld_pairs_fetched = 0
        self._ld_overflow_rounds = 0
        self._received_retained = {}
        self._audit_log = []
        self._broadcast_digests = {}
        self._shard_plan = None
        self._shard_tree = None
        self._shard_tasks = {}
        for task_id in list(self._shard_accum):
            self._drop_shard_accum(task_id)
        self._shard_counts_done = set()
        self._shard_moments_done = set()
        self._shard_epoch = 0
        self._shard_commitments = {}
        self._ld_walk_message = None
        self._ld_layout_cache = None
        self._shard_counters = dict(_SHARD_COUNTER_ZERO)

    @staticmethod
    def _build_combinations(
        members: List[str], f_values: List[int]
    ) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """All honest-subset combinations to verify, f=0 first."""
        combos: List[Tuple[str, int, Tuple[str, ...]]] = [
            ("f0", 0, tuple(members))
        ]
        for f in sorted(set(f_values)):
            if f <= 0:
                continue
            if f >= len(members):
                raise ProtocolError(
                    f"cannot tolerate f={f} among G={len(members)} members"
                )
            for subset in itertools.combinations(members, len(members) - f):
                combos.append((f"f{f}:" + "+".join(subset), f, subset))
        return combos

    def _config(self) -> Dict[str, Any]:
        if self._study is None:
            raise PhaseOrderError("enclave is not configured")
        return self._study

    @property
    def is_leader(self) -> bool:
        return self._config()["leader_id"] == self.enclave_id

    # ------------------------------------------------------------------
    # Dataset loading
    # ------------------------------------------------------------------

    @ecall
    def load_local_dataset(self, signed_dataset) -> SealedColumnStore:
        """Verify a signed local dataset and seal it for streaming access.

        The dataset must be a :class:`SignedMatrix`, whose authenticity
        signature the trusted module checks per the threat model.  The
        sealed store is returned to the host (sealed data lives on
        untrusted storage).
        """
        config = self._config()
        if not isinstance(signed_dataset, SignedMatrix):
            raise ProtocolError(
                f"unsupported dataset container {type(signed_dataset).__name__}"
            )
        matrix = signed_dataset.open_verified(self._data_signer)
        if matrix.num_snps != config["snp_count"]:
            raise ProtocolError(
                f"dataset covers {matrix.num_snps} SNPs, study expects "
                f"{config['snp_count']}"
            )
        return seal_matrix(self, matrix.array(), label="case")

    @ecall
    def load_reference_matrix(
        self, raw: bytes, num_rows: int
    ) -> SealedColumnStore:
        """Seal the public reference population for streaming access."""
        config = self._config()
        num_snps = config["snp_count"]
        if num_rows <= 0 or len(raw) != num_rows * num_snps:
            raise ProtocolError("reference matrix has inconsistent size")
        matrix = np.frombuffer(raw, dtype=np.uint8).reshape(num_rows, num_snps)
        if matrix.max(initial=0) > 1:
            raise ProtocolError("reference genotypes must be binary")
        self._reference_rows = num_rows
        return seal_matrix(self, matrix, label="reference")

    # ------------------------------------------------------------------
    # Local computations shared by both roles
    # ------------------------------------------------------------------

    def _local_counts(self, store: SealedColumnStore) -> np.ndarray:
        with ColumnReader(self, store) as reader:
            return reader.column_sums()

    def _local_moments(
        self, store: SealedColumnStore, pairs: np.ndarray
    ) -> np.ndarray:
        """The joint count ``mu_lr`` of each ``(P, 2)`` pair row over the
        local store, as a ``(P,)`` vector (rows match input)."""
        with ColumnReader(self, store) as reader:
            return _joint_counts(reader, pairs, self.meter)

    # ------------------------------------------------------------------
    # Member-side ECALLs (answer leader requests)
    # ------------------------------------------------------------------

    @ecall
    def answer_summary(self, store: SealedColumnStore, frame: bytes) -> bytes:
        """Produce the caseLocalCounts vector and local case size.

        A ``sizes`` request returns only the local population size: the
        sharded pipeline aggregates the count vectors through the
        combine tree instead, but the leader still needs every member's
        declared size up front to validate tree partials and LR shapes.
        """
        config = self._config()
        leader = config["leader_id"]
        request = self._open(leader, "summary", frame)
        if request.get("req") == "sizes":
            return self._protect(leader, "summary", {"n_case": store.num_rows})
        if request.get("req") != "summary":
            raise ProtocolError("malformed summary request")
        counts = self._local_counts(store)
        # 32-bit on the wire: counts are bounded by the local population
        # size, and 4 * L_des bytes is the paper's bandwidth figure.
        return self._protect(
            leader,
            "summary",
            {
                "n_case": store.num_rows,
                "counts": _wire_int32(counts, "summary counts"),
            },
        )

    @ecall
    def answer_ld(self, store: SealedColumnStore, frame: bytes) -> bytes:
        """Compute the local joint count of every pair row of one flat
        ``ld`` round, padding included, as a ``(B,)`` int32 vector.

        The request carries the walks and their stack depths, not the
        pairs: the member rebuilds the layout the leader fetches by
        (:meth:`_checked_ld_layout`) and answers the ``round``-th
        ``bound`` rows of its remainder.  Only the real rows go through
        the kernel; the padding repeats the first row's count.
        """
        leader = self._config()["leader_id"]
        request = self._open(leader, "ld", frame)
        remainder = self._checked_ld_layout(request).remainder
        bound = _ld_round_bound(request)
        index = request.get("round")
        if type(index) is not int or not 0 <= index * bound < len(remainder):
            raise ProtocolError("LD request round is beyond the remainder")
        real = remainder[index * bound : (index + 1) * bound]
        joint = _padded(self._local_moments(store, real), bound)
        return self._protect(
            leader,
            "ld",
            {
                "req_id": request["req_id"],
                "moments": _wire_int32(joint, "LD joint counts"),
            },
        )

    @ecall
    def answer_lr(self, store: SealedColumnStore, frame: bytes) -> bytes:
        """Build this member's local LR matrices for one batched round.

        The leader ships every (combination, frequency-vector) entry
        this member participates in as one request: distinct column
        sets are gathered from the sealed store once each, then every
        entry's ``N x L`` matrix is computed against its own frequency
        vectors and all of them travel back in a single frame.
        """
        leader = self._config()["leader_id"]
        request = self._open(leader, "lr", frame)
        req_id = request["req_id"]
        column_sets = {
            set_id: _received_int32(cols, "LR column set")
            for set_id, cols in request["column_sets"].items()
        }
        matrices: Dict[str, np.ndarray] = {}
        with ColumnReader(self, store) as reader:
            gathered = {
                set_id: reader.columns(cols)
                for set_id, cols in sorted(column_sets.items())
            }
            for entry in request["requests"]:
                set_id = entry["set"]
                if set_id not in gathered:
                    raise ProtocolError(  # lint: disable=R6 (request/set ids are control-plane metadata)
                        f"LR entry {entry['rid']!r} references unknown "
                        f"column set {set_id!r}"
                    )
                genotypes = gathered[set_id]
                label = f"lr-local/{req_id}/{entry['rid']}"
                self.meter.register_buffer(label, genotypes.nbytes * 9)
                try:
                    matrices[entry["rid"]] = lr_test.lr_matrix(
                        genotypes, entry["case_freqs"], entry["ref_freqs"]
                    )
                finally:
                    self.meter.release_buffer(label)
        return self._protect(
            leader,
            "lr",
            {"req_id": req_id, "matrices": matrices},
        )

    @ecall
    def ingest_retained(self, frame: bytes) -> Dict[str, Any]:
        """Receive a leader broadcast of a retained SNP list."""
        leader = self._config()["leader_id"]
        payload = self._open(leader, "retained", frame)
        stage = payload["stage"]
        if stage not in _STAGES:
            raise ProtocolError(f"unknown broadcast stage {stage!r}")  # lint: disable=R6 (stage names are protocol control-plane metadata)
        vector = _received_int32(payload["snps"], "retained SNP broadcast")
        snps = vector.tolist()
        self._received_retained[stage] = snps
        self._broadcast_digests[stage] = self._broadcast_digest(stage, vector)
        return {"stage": stage, "snps": snps}

    @ecall
    def received_retained(self, stage: str) -> List[int]:
        """The most recent broadcast list for ``stage`` (member view)."""
        if stage not in self._received_retained:
            raise PhaseOrderError(f"no {stage!r} broadcast received yet")
        return list(self._received_retained[stage])

    # ------------------------------------------------------------------
    # Leader-side ECALLs
    # ------------------------------------------------------------------

    def _other_members(self) -> List[str]:
        config = self._config()
        return [m for m in config["member_ids"] if m != self.enclave_id]

    def _require_leader(self) -> None:
        if not self.is_leader:
            raise ProtocolError(
                f"{self.enclave_id} is not the elected leader"
            )

    @ecall
    def lead_collect_summaries(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        ocall: OcallExchange,
    ) -> None:
        """Gather member summaries and compute leader + reference counts."""
        self._require_leader()
        requests = {
            member: self._protect(member, "summary", {"req": "summary"})
            for member in self._other_members()
        }
        responses = ocall("summary", requests)
        for member in self._other_members():
            if member not in responses:
                raise ProtocolError(f"no summary received from {member}")
            payload = self._open(member, "summary", responses[member])
            counts = _received_int32(
                payload["counts"],
                f"summary counts from {member}",
                (self._config()["snp_count"],),
            ).astype(np.int64)
            n_case = int(payload["n_case"])
            if np.any(counts < 0) or np.any(counts > n_case):
                raise ProtocolError(f"summary from {member} is inconsistent")
            self._member_counts[member] = counts
            self._member_sizes[member] = n_case
        # The leader is itself a member: add its own data.
        self._member_counts[self.enclave_id] = self._local_counts(store)
        self._member_sizes[self.enclave_id] = store.num_rows
        with ColumnReader(self, ref_store) as reader:
            self._reference_counts = reader.column_sums()
        self._reference_rows = ref_store.num_rows

    @ecall
    def lead_collect_sizes(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        ocall: OcallExchange,
    ) -> None:
        """Sharded replacement for :meth:`lead_collect_summaries`.

        Collects only the member population *sizes* (one integer per
        member instead of an ``L``-wide vector); the count vectors
        themselves flow through the shard combine tree, so the leader's
        fan-in stays bounded.  The tree bounds frames, not what the
        leader learns: see the sharding notes below for what a parent
        enclave can recover of its subtree's members.
        """
        self._require_leader()
        if self._shard_plan is None:
            raise PhaseOrderError("study is not sharded")
        requests = {
            member: self._protect(member, "summary", {"req": "sizes"})
            for member in self._other_members()
        }
        responses = ocall("summary", requests)
        for member in self._other_members():
            if member not in responses:
                raise ProtocolError(f"no size report received from {member}")
            payload = self._open(member, "summary", responses[member])
            n_case = int(payload["n_case"])
            if n_case < 0:
                raise ProtocolError(f"negative population size from {member}")
            self._member_sizes[member] = n_case
        self._member_sizes[self.enclave_id] = store.num_rows
        with ColumnReader(self, ref_store) as reader:
            self._reference_counts = reader.column_sums()
        self._reference_rows = ref_store.num_rows

    def _combo_case_data(self, combo_members: Tuple[str, ...]) -> Tuple[np.ndarray, int]:
        counts = maf.aggregate_counts(
            [self._member_counts[m] for m in combo_members]
        )
        size = sum(self._member_sizes[m] for m in combo_members)
        return counts, size

    def _ranking(self, combo_id: str) -> np.ndarray:
        """Chi-squared ranking p-values of a combination (cached)."""
        if combo_id not in self._ranking_cache:
            if self._reference_counts is None:
                raise PhaseOrderError("summaries not collected yet")
            counts = self._combo_counts[combo_id]
            size = self._combo_sizes[combo_id]
            self._ranking_cache[combo_id] = chisq.rank_pvalues(
                counts, self._reference_counts, size, self._reference_rows
            )
        return self._ranking_cache[combo_id]

    @ecall
    def lead_run_maf(self) -> List[int]:
        """Phase 1: global MAF filter, intersected across combinations."""
        self._require_leader()
        if self._reference_counts is None:
            raise PhaseOrderError("summaries must be collected before MAF")
        config = self._config()
        if self._shard_plan is not None and (
            len(self._shard_counts_done) != self._shard_plan.num_shards
        ):
            raise PhaseOrderError(
                f"sharded count aggregation incomplete: "
                f"{len(self._shard_counts_done)} of "
                f"{self._shard_plan.num_shards} shards finished"
            )
        survivor_sets: List[set] = []
        for combo_id, _f, combo_members in self._combos:
            if self._shard_plan is not None:
                # Tree aggregation already installed the pooled counts.
                counts = self._combo_counts[combo_id]
                size = self._combo_sizes[combo_id]
            else:
                counts, size = self._combo_case_data(combo_members)
                self._combo_counts[combo_id] = counts
                self._combo_sizes[combo_id] = size
            total = maf.aggregate_counts([counts, self._reference_counts])
            frequencies = maf.allele_frequencies(
                total, size + self._reference_rows
            )
            survivors = maf.maf_filter(frequencies, config["maf_cutoff"])
            if combo_id == "f0":
                # The plain (collusion-oblivious) track: what a federation
                # without collusion tolerance would have released; Table 5
                # measures withheld SNPs against this baseline.
                self._plain_retained["prime"] = list(survivors)
            survivor_sets.append(set(survivors))
        retained = sorted(set.intersection(*survivor_sets))
        self._retained["prime"] = retained
        return list(retained)

    @ecall
    def lead_broadcast_retained(self, stage: str, ocall: OcallExchange) -> None:
        """Broadcast a retained list to every member over the channels."""
        self._require_leader()
        if stage not in self._retained:
            raise PhaseOrderError(f"stage {stage!r} not computed yet")
        snps = _wire_int32(self._retained[stage], "retained SNP broadcast")
        # The digest the echo round will attest is always that of the
        # honest payload: a compromised broadcast path (the adversary
        # hook below) mutates what individual members receive, which is
        # exactly what the digest comparison then exposes.
        self._broadcast_digests[stage] = self._broadcast_digest(stage, snps)
        frames = {}
        for member in self._other_members():
            member_snps = snps
            if self._equivocation_adversary is not None:
                member_snps = _wire_int32(
                    self._equivocation_adversary.mutate(
                        stage, member, snps.tolist()
                    ),
                    "retained SNP broadcast",
                )
            frames[member] = self._protect(
                member, "retained", {"stage": stage, "snps": member_snps}
            )
        ocall("retained", frames)

    # ------------------------------------------------------------------
    # SNP-range sharding: tree aggregation of partial statistics
    # ------------------------------------------------------------------
    #
    # One shard *task* covers one SNP range (counts) or one bucket of
    # the LD pair union (moments: one joint count per pair).  Enclaves
    # combine partials along the locally derived aggregation tree: each
    # node puts its own row of sums in front of its children's partials
    # and emits one bounded frame to its parent, so the leader ingests
    # O(log G) frames per task instead of G flat responses.  The root
    # pools the rows into every combination with the same
    # ``ld.pool_moments`` product the flat fetch uses; integer sums are
    # associative and commutative, so the pools are bit-identical to
    # the flat exchange's — the invariant the shard equivalence tests
    # enforce.
    #
    # The rows a partial carries follow from the attested f values:
    #
    # * f >= 1: one row per member of the sender's subtree, in
    #   pre-order, which every enclave derives from the attested tree.
    #   This adds no trust.  The ``C(G, G-f)`` combination rows a
    #   parent would otherwise receive already determine each subtree
    #   member's sums (the membership rows restricted to any subtree
    #   have full column rank), so the root could recover every
    #   member's sums, as the flat ingest hands them over.
    # * f = 0: a parent adds its children's rows to its own, so a
    #   partial is its subtree's one pooled row, and an interior parent
    #   learns only that total.
    #
    # Only enclaves see rows: partials cross attested channels, and the
    # host sees ciphertext sizes, which depend on G, f, the shard
    # ranges and the released ``L'`` alone.

    def _shard_plan_required(self) -> ShardPlan:
        if self._shard_plan is None:
            raise PhaseOrderError("study is not sharded")
        return self._shard_plan

    def _shard_tree_required(self) -> AggregationTree:
        if self._shard_tree is None:
            raise PhaseOrderError("study is not sharded")
        return self._shard_tree

    def _membership(self, parties: Sequence[str]) -> np.ndarray:
        """``C x len(parties)`` 0/1 matrix: is each party in each pool?"""
        return np.asarray(
            [
                [1 if party in members else 0 for party in parties]
                for _id, _f, members in self._combos
            ],
            dtype=np.int64,
        )

    def _partial_rows(self, node: str) -> Tuple[str, ...]:
        """Whose sums each row of ``node``'s partial holds.

        With f >= 1, the members of ``node``'s subtree in pre-order.
        With f = 0 (one combination) the partial's one row is the
        subtree's pool, listed under ``node``.
        """
        if len(self._combos) == 1:
            return (node,)
        return self._shard_tree_required().subtree(node)

    def _shard_width(self, spec: Dict[str, Any]) -> int:
        """Columns per partial row: the shard's SNPs, or its padded pairs."""
        if spec["kind"] == "counts":
            return len(self._shard_plan_required().ranges[spec["shard"]].columns())
        return len(spec["pairs"])

    def _install_shard_task(self, spec: Dict[str, Any]) -> None:
        task_id = spec["task"]
        if task_id in self._shard_tasks:
            raise ProtocolError(f"shard task {task_id!r} already open")  # lint: disable=R6 (shard task ids are control-plane metadata)
        plan = self._shard_plan_required()
        if spec.get("kind") not in _SHARD_KINDS:
            raise ProtocolError(f"unknown shard task kind {spec.get('kind')!r}")  # lint: disable=R6 (shard task kinds are control-plane metadata)
        shard_index = int(spec["shard"])
        if not 0 <= shard_index < plan.num_shards:
            raise ProtocolError(f"shard index {shard_index} out of range")  # lint: disable=R6 (shard indices are control-plane metadata)
        normalized: Dict[str, Any] = {
            "task": str(task_id),
            "kind": str(spec["kind"]),
            "shard": shard_index,
        }
        if spec["kind"] == "moments":
            # The spec carries the walks; the bucket is rebuilt here.
            bucket = self._checked_ld_layout(spec).buckets.get(shard_index)
            if bucket is None:
                raise ProtocolError("moments task for a shard that owns no LD pairs")
            normalized["pairs"], normalized["real"] = bucket
        self._shard_tasks[normalized["task"]] = normalized
        self._shard_counters["tasks_accepted"] += 1

    def _drop_shard_accum(self, task_id: str) -> None:
        if task_id in self._shard_accum:
            del self._shard_accum[task_id]
            self.meter.release_buffer(f"shard-accum/{task_id}")

    def _drop_shard_task(self, task_id: str) -> None:
        self._shard_tasks.pop(task_id, None)
        self._drop_shard_accum(task_id)

    def _shard_leaf(
        self, store: SealedColumnStore, spec: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray, bytes]:
        """This node's partial: its own row, then its children's.

        Returns ``(stats, sizes, leaf_digest)``: one row of sums and one
        population size per entry of :meth:`_partial_rows`, and a digest
        of this node's *own* row, after any installed shard adversary
        mutated it — the quantity the dual-run commitment comparison
        checks for equivocation.  With f >= 1 the children's rows are
        concatenated after the own row in :meth:`AggregationTree.children`
        order, whatever order they arrived in; at f = 0 they are added
        to it.

        Raises unless *every* tree child has delivered its partial — a
        host that drops or reorders combine rounds fails closed here.
        """
        tree = self._shard_tree_required()
        if spec["kind"] == "counts":
            shard = self._shard_plan_required().ranges[spec["shard"]]
            with ColumnReader(self, store) as reader:
                local = reader.column_sums(shard.start, shard.stop)
        else:
            real = spec["pairs"][: spec["real"]]
            local = _padded(self._local_moments(store, real), len(spec["pairs"]))
        own = local[None]
        if self._shard_adversary is not None:
            own = np.asarray(
                self._shard_adversary.mutate(spec["kind"], spec["shard"], own),
                dtype=np.int64,
            )
        leaf_digest = hashlib.sha256(np.ascontiguousarray(own).tobytes()).digest()
        children = tree.children(self.enclave_id)
        received = self._shard_accum.get(spec["task"], {})
        if len(received) != len(children):
            raise ProtocolError(
                f"shard task {spec['task']!r} holds {len(received)} of "
                f"{len(children)} child partials"
            )
        stats = [own] + [received[child][0] for child in children]
        sizes = [np.asarray([store.num_rows], dtype=np.int64)] + [
            received[child][1] for child in children
        ]
        if len(self._combos) == 1:
            return sum(stats), sum(sizes), leaf_digest
        return np.concatenate(stats), np.concatenate(sizes), leaf_digest

    def _note_partial(self, size: int) -> None:
        self._shard_counters["partial_bytes"] += size
        self._shard_counters["peak_partial_bytes"] = max(
            self._shard_counters["peak_partial_bytes"], size
        )

    @ecall
    def ingest_shard_task(self, frame: bytes) -> None:
        """Accept a leader-authenticated shard task specification."""
        leader = self._config()["leader_id"]
        spec = self._open(leader, "shard-task", frame)
        self._install_shard_task(spec)

    def _shard_commitment_record(
        self, spec: Dict[str, Any], leaf_digest: bytes
    ) -> Tuple[bytes, bytes]:
        """Signed leaf commitment ``(record, sig)`` for one task emission.

        The record binds ``(study, kind, shard, node, leaf digest)``
        under the broadcast-echo MAC key every enclave derives from the
        study's data-authenticity root, so the untrusted hosts relaying
        commitments to the leader cannot forge or splice them.  The
        task id is deliberately absent: the integrity layer compares the
        commitment of a verification re-run (a fresh task id) against
        the original run's.
        """
        record = serialization.encode(
            {
                "study": self._config()["study_id"],
                "kind": spec["kind"],
                "shard": int(spec["shard"]),
                "node": self.enclave_id,
                "leaf": leaf_digest,
            }
        )
        return record, self._echo_signer.sign(record)

    @ecall
    def shard_emit_partial(
        self, store: SealedColumnStore, task_id: str, parent: str
    ) -> Dict[str, bytes]:
        """Combine own leaf with child partials; emit one frame upward.

        Returns the parent-bound frame plus a signed commitment to this
        node's own leaf contribution, which the orchestrator forwards to
        the leader (``lead_ingest_shard_commitment``) when the integrity
        layer is active.
        """
        spec = self._shard_tasks.get(task_id)
        if spec is None:
            raise PhaseOrderError(f"unknown shard task {task_id!r}")
        expected_parent = self._shard_tree_required().parent(self.enclave_id)
        if expected_parent is None:
            raise ProtocolError("the tree root does not emit partials")
        if parent != expected_parent:
            raise ProtocolError(
                f"{self.enclave_id} aggregates toward {expected_parent}, "
                f"not {parent}"
            )
        stats, sizes, leaf_digest = self._shard_leaf(store, spec)
        self._note_partial(stats.nbytes + sizes.nbytes)
        frame = self._protect(
            parent,
            "shard",
            {
                "task": task_id,
                "stats": _wire_int32(stats, "shard partial sums"),
                "counts": _wire_int32(sizes, "shard pool sizes"),
            },
        )
        record, sig = self._shard_commitment_record(spec, leaf_digest)
        self._shard_counters["partials_emitted"] += 1
        self._drop_shard_task(task_id)
        return {"frame": frame, "commitment": record, "sig": sig}

    @ecall
    def shard_ingest_partial(self, peer: str, frame: bytes) -> None:
        """Add one tree child's partial into this node's accumulator."""
        payload = self._open(peer, "shard", frame)
        task_id = str(payload["task"])
        spec = self._shard_tasks.get(task_id)
        if spec is None:
            raise ProtocolError(  # lint: disable=R6 (task/peer ids are control-plane metadata)
                f"partial for unknown shard task {task_id!r} from {peer}"
            )
        tree = self._shard_tree_required()
        children = tree.children(self.enclave_id)
        if peer not in children:
            raise ProtocolError(
                f"{peer} is not a tree child of {self.enclave_id}"
            )
        rows = len(self._partial_rows(peer))
        stats = _received_int32(
            payload["stats"],
            f"shard partial sums from {peer}",
            (rows, self._shard_width(spec)),
        ).astype(np.int64)
        sizes = _received_int32(
            payload["counts"], f"shard pool sizes from {peer}", (rows,)
        ).astype(np.int64)
        # Untrusted peer subtree: sums of binary genotypes over a row's
        # ``sizes[i]`` individuals must land in [0, sizes[i]].
        if (
            sizes.min() < 0
            or stats.min(initial=0) < 0
            or bool(np.any(stats > sizes[:, None]))
        ):
            raise ProtocolError(
                f"shard partial from {peer} is inconsistent with its "
                f"declared pool sizes"
            )
        received = self._shard_accum.setdefault(task_id, {})
        if peer in received:
            raise ProtocolError(  # lint: disable=R6 (task/peer ids are control-plane metadata)
                f"duplicate shard partial from {peer} for task {task_id!r}"
            )
        received[peer] = (stats, sizes)
        held = sum(part.nbytes for partial in received.values() for part in partial)
        self.meter.register_buffer(f"shard-accum/{task_id}", held)
        self._shard_counters["partials_ingested"] += 1
        self._note_partial(held)

    @ecall
    def lead_open_shard_task(
        self, kind: str, shard_index: int, ocall: OcallExchange
    ) -> Optional[str]:
        """Open one shard task: broadcast its spec, install it locally.

        Returns the task id, or ``None`` when a moments shard owns no
        pairs of the LD union (nothing to aggregate).  A moments spec
        carries the LD walks and their stack depths, from which every
        enclave rebuilds the shard's padded pair bucket.
        """
        self._require_leader()
        plan = self._shard_plan_required()
        if kind not in _SHARD_KINDS:
            raise ProtocolError(f"unknown shard task kind {kind!r}")
        if not 0 <= shard_index < plan.num_shards:
            raise ProtocolError(f"shard index {shard_index} out of range")
        spec: Dict[str, Any] = {"kind": kind, "shard": int(shard_index)}
        if kind == "moments":
            message = self._ld_walks_message()
            if int(shard_index) not in self._checked_ld_layout(message).buckets:
                return None
            spec.update(message)
        self._lr_request_counter += 1
        task_id = f"shard-{kind}-{shard_index}-{self._lr_request_counter}"
        spec["task"] = task_id
        frames = {
            member: self._protect(member, "shard-task", spec)
            for member in self._other_members()
        }
        if frames:
            ocall("shard-task", frames)
        self._install_shard_task(spec)
        self._shard_counters["tasks_opened"] += 1
        return task_id

    @ecall
    def lead_finish_shard_task(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        task_id: str,
        verify: bool = False,
    ) -> None:
        """Fold the completed tree root of one task into leader state.

        With ``verify=True`` (integrity layer, second run of the same
        ``(kind, shard)`` coordinates) nothing is folded: the freshly
        aggregated root is compared against the state the original run
        installed, and any divergence — after the per-node commitment
        comparison has already attributed lying leaves — is an
        unattributed equivocation (classified abort).
        """
        self._require_leader()
        spec = self._shard_tasks.get(task_id)
        if spec is None:
            raise PhaseOrderError(f"unknown shard task {task_id!r}")
        plan = self._shard_plan_required()
        stats, sizes, leaf_digest = self._shard_leaf(store, spec)
        self._note_partial(stats.nbytes + sizes.nbytes)
        self._ledger_own_leaf(spec, leaf_digest, verify)
        pooled, pool_sizes = self._pool_shard_root(stats, sizes)
        if verify:
            self._verify_shard_root(spec, pooled, pool_sizes)
            self._drop_shard_task(task_id)
            return
        for index, (combo_id, _f, _members) in enumerate(self._combos):
            self._check_combo_size(combo_id, int(pool_sizes[index]))
        if spec["kind"] == "counts":
            shard = plan.ranges[spec["shard"]]
            snp_count = self._config()["snp_count"]
            for index, (combo_id, _f, _members) in enumerate(self._combos):
                if combo_id not in self._combo_counts:
                    self._combo_counts[combo_id] = np.zeros(
                        snp_count, dtype=np.int64
                    )
                self._combo_counts[combo_id][shard.start : shard.stop] = (
                    pooled[index]
                )
            self._shard_counts_done.add(int(spec["shard"]))
            if (
                len(self._shard_counts_done) == plan.num_shards
                and self._member_sizes
                and self._combo_sizes.get("f0")
                != sum(self._member_sizes.values())
            ):
                raise ProtocolError(
                    "pooled shard size diverges from declared member sizes"
                )
        else:
            self._check_pooled_joint(spec["pairs"], pooled)
            pairs = spec["pairs"][: spec["real"]]
            # The reference side is computed here, once per task, so
            # every installed pair has its complete table row.
            with ColumnReader(self, ref_store) as ref_reader:
                reference = _joint_counts(ref_reader, pairs)
            self._moments.put(pairs, pooled[:, : len(pairs)], reference)
            self._ld_pairs_fetched += len(spec["pairs"])
            self._shard_moments_done.add(int(spec["shard"]))
        self._drop_shard_task(task_id)

    def _pool_shard_root(
        self, stats: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pool the root's partial into every combination.

        With f >= 1 each row holds one member's sums, and its size must
        be the size that member declared in ``lead_collect_sizes``.
        Returns the ``C x width`` pooled sums and the ``(C,)`` pool sizes.
        """
        rows = self._partial_rows(self.enclave_id)
        if len(self._combos) > 1 and sizes.tolist() != [
            self._member_sizes.get(member) for member in rows
        ]:
            raise ProtocolError(
                "shard partial row sizes diverge from the declared member sizes"
            )
        membership = self._membership(rows)
        return ld.pool_moments(membership, stats), ld.pool_moments(membership, sizes)

    def _ledger_own_leaf(
        self, spec: Dict[str, Any], leaf_digest: bytes, verify: bool
    ) -> None:
        """Record (or, verifying, compare) the leader's own leaf digest."""
        key = (spec["kind"], int(spec["shard"]), self.enclave_id)
        if not verify:
            self._shard_commitments[key] = leaf_digest
            return
        recorded = self._shard_commitments.get(key)
        if recorded is None or not hmac.compare_digest(recorded, leaf_digest):
            raise EquivocationError(  # lint: disable=R6 (shard labels are control-plane metadata)
                "leader leaf contribution diverged between the original "
                "and verification shard runs",
                stage=f"shard:{spec['kind']}:{spec['shard']}",
                reporter=self.enclave_id,
                peer=self.enclave_id,
            )

    def _verify_shard_root(
        self, spec: Dict[str, Any], pooled: np.ndarray, pool_sizes: np.ndarray
    ) -> None:
        """Compare a verification re-run's pooled root against installed
        state: the combination counts, or the table's joint counts.

        Per-node commitments matched (``lead_ingest_shard_commitment``
        raised otherwise), so a divergent fold here cannot be pinned on
        a single leaf: it is reported unattributed and the study takes a
        classified abort instead of repairing around anyone.
        """
        combo_ids = [combo_id for combo_id, _f, _members in self._combos]
        sizes = [self._combo_sizes.get(combo_id) for combo_id in combo_ids]
        if spec["kind"] == "counts":
            shard = self._shard_plan_required().ranges[spec["shard"]]
            installed = [self._combo_counts.get(c) for c in combo_ids]
            folded = None
            if all(c is not None for c in installed):
                folded = np.stack([c[shard.start : shard.stop] for c in installed])
        else:
            pairs = spec["pairs"][: spec["real"]]
            folded = self._moments.case_rows(pairs)
            pooled = pooled[:, : len(pairs)]
        if (
            folded is None
            or sizes != pool_sizes.tolist()
            or not np.array_equal(folded, pooled)
        ):
            raise EquivocationError(  # lint: disable=R6 (shard labels are control-plane metadata)
                "shard verification run diverged from the original fold "
                "with matching leaf commitments",
                stage=f"shard:{spec['kind']}:{spec['shard']}",
                reporter=self.enclave_id,
            )

    @ecall
    def lead_ingest_shard_commitment(
        self, record: bytes, sig: bytes, verify: bool = False
    ) -> None:
        """Ledger (or, verifying, compare) one node's leaf commitment.

        The original run of each shard task records every emitting
        node's signed leaf digest keyed ``(kind, shard, node)``.  The
        integrity layer's verification re-run replays the task with
        fresh task ids and passes ``verify=True``: a node whose leaf
        digest changed between the two runs *equivocated* — its module
        answered the same attested question two ways — and is named in
        the raised :class:`EquivocationError` so the supervisor can
        quarantine it and the protocol can repair the tree around it.
        """
        self._require_leader()
        self._echo_signer.verify(bytes(record), bytes(sig))
        entry = serialization.decode(bytes(record))
        if entry.get("study") != self._config()["study_id"]:
            raise ProtocolError("shard commitment for a different study")
        node = str(entry.get("node"))
        if node not in self._config()["member_ids"]:
            raise ProtocolError(f"shard commitment from unknown node {node!r}")
        kind = str(entry.get("kind"))
        if kind not in _SHARD_KINDS:
            raise ProtocolError(f"shard commitment of unknown kind {kind!r}")
        key = (kind, int(entry["shard"]), node)
        digest = bytes(entry["leaf"])
        if not verify:
            self._shard_commitments[key] = digest
            return
        recorded = self._shard_commitments.get(key)
        if recorded is None or not hmac.compare_digest(recorded, digest):
            raise EquivocationError(
                f"{node} committed to different leaf statistics across "
                f"the original and verification shard runs",
                stage=f"shard:{kind}:{entry['shard']}",
                reporter=self.enclave_id,
                peer=node,
            )

    @ecall
    def shard_progress(self) -> Dict[str, Any]:
        """Leader's shard-task completion state (failover resume point).

        Reports the explicit index sets of completed counts and moments
        tasks, so a restored orchestrator resumes each sharded phase
        from the last completed combine boundary instead of re-running
        the whole phase.
        """
        self._require_leader()
        return {
            "counts_done": sorted(self._shard_counts_done),
            "moments_done": sorted(self._shard_moments_done),
            "epoch": int(self._shard_epoch),
        }

    @ecall
    def shard_repair(self, epoch: int) -> None:
        """Adopt tree-repair generation ``epoch``: rebuild plan and tree.

        Broadcast by the orchestrator to every surviving enclave after a
        member loss mid-tree-round.  Every open shard task and partial
        accumulator is discarded (the interrupted task re-runs from leaf
        partials under the new layout) and the plan/tree are re-derived
        from the attested study parameters plus the epoch — so a
        Byzantine orchestrator calling this can only *re-shape* the
        deterministic layout (and desynchronised epochs fail closed as
        parent/child mismatches), never redefine ranges or re-root the
        tree.  Idempotent for the current epoch.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ProtocolError("shard repair epoch must be >= 0")
        self._shard_plan_required()
        if epoch == self._shard_epoch and not self._shard_tasks:
            return
        self._shard_epoch = epoch
        for task_id in list(self._shard_tasks):
            self._drop_shard_task(task_id)
        for task_id in list(self._shard_accum):
            self._drop_shard_accum(task_id)
        self._build_shard_layout()

    def _check_combo_size(self, combo_id: str, size: int) -> None:
        """Pooled sizes must agree across every shard of a combination."""
        known = self._combo_sizes.get(combo_id)
        if known is None:
            self._combo_sizes[combo_id] = size
        elif known != size:
            raise ProtocolError(  # lint: disable=R6 (combo pool sizes are aggregate control-plane metadata)
                f"combination {combo_id!r} pool size drifted across "
                f"shards ({known} vs {size})"
            )

    @ecall
    def shard_stats(self) -> Dict[str, int]:
        """Per-enclave shard counters (for the observability bridge)."""
        return dict(self._shard_counters)

    # ------------------------------------------------------------------
    # Broadcast-consistency echo + transcript attestation (integrity)
    # ------------------------------------------------------------------

    @staticmethod
    def _broadcast_digest(stage: str, snps: np.ndarray) -> bytes:
        """Canonical digest of a broadcast payload (what the echo signs).

        ``snps`` is the int32 wire vector, on the leader and on every
        member alike, so two digests agree exactly when the lists do.
        """
        return hashlib.sha256(
            serialization.encode({"stage": stage, "snps": snps})
        ).digest()

    @ecall
    def export_broadcast_echo(self, stage: str) -> bytes:
        """Signed record of the broadcast digest this enclave holds.

        The record binds ``(study, stage, node, digest)`` under a MAC
        key every enclave derives from the study's data-authenticity
        root, so the untrusted hosts relaying echoes cannot forge or
        splice them.
        """
        config = self._config()
        if stage not in self._broadcast_digests:
            raise PhaseOrderError(f"no {stage!r} broadcast digest held yet")
        record = serialization.encode(
            {
                "study": config["study_id"],
                "stage": stage,
                "node": self.enclave_id,
                "digest": self._broadcast_digests[stage],
            }
        )
        return serialization.encode(
            {"record": record, "sig": self._echo_signer.sign(record)}
        )

    @ecall
    def verify_broadcast_echo(self, stage: str, peer: str, frame: bytes) -> None:
        """Check a peer's echoed broadcast digest against our own.

        Raises :class:`~repro.errors.EquivocationError` when the digests
        differ — the broadcaster sent this peer different bytes than it
        sent us (or vice versa); one honest pair of witnesses suffices
        to expose it.
        """
        envelope = serialization.decode(frame)
        record_raw = bytes(envelope["record"])
        self._echo_signer.verify(record_raw, bytes(envelope["sig"]))
        record = serialization.decode(record_raw)
        config = self._config()
        if (
            record["study"] != config["study_id"]
            or record["stage"] != stage
            or record["node"] != peer
        ):
            raise ProtocolError("echo record does not match its context")
        if stage not in self._broadcast_digests:
            raise PhaseOrderError(f"no {stage!r} broadcast digest held yet")
        if not hmac.compare_digest(
            bytes(record["digest"]), self._broadcast_digests[stage]
        ):
            raise EquivocationError(
                f"stage {stage!r} broadcast digest from {peer} diverges "
                f"from the one {self.enclave_id} holds",
                stage=stage,
                reporter=self.enclave_id,
                peer=peer,
            )

    @ecall
    def answer_transcript(self, frame: bytes) -> bytes:
        """Attest this member's channel transcript to the leader.

        The leader's request carries its (send, recv) transcript digests
        taken before protecting the request; with no frame in flight
        they must mirror ours exactly.  A mismatch means the two
        endpoints processed different frame sequences — equivocation or
        splicing below the AEAD layer — and fails closed.
        """
        leader = self._config()["leader_id"]
        channel = self._channel(leader)
        sent_snap, recv_snap = channel.transcript_snapshot()
        request = self._open(leader, "transcript", frame)
        stage = str(request["stage"])
        if not hmac.compare_digest(bytes(request["send"]), recv_snap):
            raise TranscriptDivergenceError(  # lint: disable=R6 (stage names are control-plane metadata)
                f"leader send transcript diverges from what "
                f"{self.enclave_id} received (stage {stage!r})"
            )
        if not hmac.compare_digest(bytes(request["recv"]), sent_snap):
            raise TranscriptDivergenceError(  # lint: disable=R6 (stage names are control-plane metadata)
                f"leader recv transcript diverges from what "
                f"{self.enclave_id} sent (stage {stage!r})"
            )
        return self._protect(
            leader,
            "transcript",
            {"stage": stage, "send": sent_snap, "recv": recv_snap},
        )

    @ecall
    def lead_verify_transcripts(self, stage: str, ocall: OcallExchange) -> None:
        """Cross-check channel transcripts with every member.

        Run at phase boundaries: each member attests the digests of the
        frame sequence it sent and received on its leader channel, and
        the leader matches them against its own mirror-image digests.
        Snapshots are taken immediately before protecting the request
        (leader), before opening it (member), and before opening the
        reply (leader), so each comparison happens at a quiescent point
        of the channel.
        """
        self._require_leader()
        sent_before: Dict[str, bytes] = {}
        frames: Dict[str, bytes] = {}
        for member in self._other_members():
            send_digest, recv_digest = self._channel(
                member
            ).transcript_snapshot()
            sent_before[member] = send_digest
            frames[member] = self._protect(
                member,
                "transcript",
                {"stage": stage, "send": send_digest, "recv": recv_digest},
            )
        # The round kind embeds the stage: transcript rounds recur every
        # phase, and a kind unique per round lets the reply router
        # reject cross-round replays by tag alone.
        responses = ocall(f"transcript:{stage}", frames)
        for member in self._other_members():
            if member not in responses:
                raise ProtocolError(
                    f"no transcript attestation from {member}"
                )
            _, recv_before_reply = self._channel(member).transcript_snapshot()
            try:
                answer = self._open(member, "transcript", responses[member])
            except ChannelError as exc:
                # The host delivered something that fails channel
                # authentication or ordering *as this round's
                # attestation* — replayed or spliced reply traffic.
                raise TranscriptDivergenceError(
                    f"transcript attestation from {member} failed "
                    f"channel verification (stage {stage!r})"
                ) from exc
            if answer.get("stage") != stage:
                raise ProtocolError(
                    f"transcript attestation from {member} is for the "
                    f"wrong stage"
                )
            if not hmac.compare_digest(
                bytes(answer["send"]), recv_before_reply
            ):
                raise TranscriptDivergenceError(
                    f"{member} send transcript diverges from what the "
                    f"leader received (stage {stage!r})"
                )
            if not hmac.compare_digest(
                bytes(answer["recv"]), sent_before[member]
            ):
                raise TranscriptDivergenceError(
                    f"{member} recv transcript diverges from what the "
                    f"leader sent (stage {stage!r})"
                )

    # -- Phase 2: LD -----------------------------------------------------------

    def _ld_walks(self) -> List[List[int]]:
        """The SNP lists the LD walks traverse: the intersected ``L'``
        and, with collusion tolerance, the plain track's ``L'``."""
        if "prime" not in self._retained:
            raise PhaseOrderError("MAF phase has not run")
        walks = [self._retained["prime"]]
        if len(self._combos) > 1:
            walks.append(self._plain_retained["prime"])
        return walks

    def _ld_walks_message(self) -> Dict[str, Any]:
        """The walks, stack depths and walk lengths that every ``ld``
        request and moments shard task carries (cached per study).

        Every walk breaks dependent pairs by the study's f0 ranking, so
        the pairs it can reach are known before any moment is fetched,
        and its stack depths (:func:`repro.stats.ld.reachable_depths`)
        determine them.  Each walk and depth vector is padded to the
        longest walk ``m``, so the message size depends on ``m`` and
        the walk count only; the true lengths travel inside it.
        """
        if self._ld_walk_message is None:
            walks = self._ld_walks()
            ranking = self._ranking("f0")
            width = max(len(walk) for walk in walks)
            self._ld_walk_message = {
                "walks": [_zero_padded(w, width, "LD walk") for w in walks],
                "depths": [
                    _zero_padded(ld.reachable_depths(w, ranking), width, "LD depths")
                    for w in walks
                ],
                "lengths": _wire_int32([len(w) for w in walks], "LD walk lengths"),
            }
        return self._ld_walk_message

    def _checked_ld_layout(self, message: Mapping[str, Any]) -> _LdLayout:
        """Check the walks and depths of an ``ld`` request or moments
        spec and derive their layout, cached on their bytes.

        Refused with :class:`ProtocolError`: a walk count other than the
        attested policy's (1 at f = 0, 2 at f >= 1), vectors that are
        not 1-D int32 of one padded length, lengths beyond it, a walk
        that is not strictly ascending inside ``[0, snp_count)``, and
        depths :func:`repro.stats.ld.pairs_from_depths` refuses.
        """
        expected = 2 if len(self._combos) > 1 else 1
        walks, depths = message.get("walks"), message.get("depths")
        if not (
            isinstance(walks, list)
            and isinstance(depths, list)
            and len(walks) == len(depths) == expected
        ):
            raise ProtocolError("LD walk count differs from the attested policy")
        lengths = _received_int32(
            message.get("lengths"), "LD walk lengths", (expected,)
        )
        width = len(_received_int32(walks[0], "LD walk"))
        walks = [_received_int32(walk, "LD walk", (width,)) for walk in walks]
        depths = [_received_int32(depth, "LD depths", (width,)) for depth in depths]
        key = b"".join(array.tobytes() for array in (lengths, *walks, *depths))
        if self._ld_layout_cache is not None and self._ld_layout_cache[0] == key:
            return self._ld_layout_cache[1]
        if lengths.min() < 0 or lengths.max() > width:
            raise ProtocolError("LD walk lengths exceed the padding")
        snp_count = self._config()["snp_count"]
        real_walks, real_depths = [], []
        for walk, depth, length in zip(walks, depths, lengths.tolist()):
            real = walk[:length].astype(np.int64)
            if length and (
                real[0] < 0 or real[-1] >= snp_count or bool((np.diff(real) <= 0).any())
            ):
                raise ProtocolError("LD walks must be ascending known SNPs")
            real_walks.append(real)
            real_depths.append(depth[: max(length - 1, 0)])
        ranges = None if self._shard_plan is None else self._shard_plan.ranges
        try:
            layout = _ld_layout(real_walks, real_depths, ranges)
        except GenomicsError:
            raise ProtocolError("LD stack depths are malformed") from None
        self._ld_layout_cache = (key, layout)
        return layout

    def _fetch_moments(
        self,
        layout: _LdLayout,
        store: SealedColumnStore,
        ref_reader: ColumnReader,
        ocall: OcallExchange,
    ) -> int:
        """Fetch the joint counts of the layout's remainder in rounds of
        exactly :func:`_ld_round_bound` pair rows.

        Each request carries the walks and depths plus the round index;
        each member rebuilds the round's pairs, padded with repeats of
        the first, and answers every row.  The leader bounds each
        answer by that member's allele counts, keeps the real prefix,
        and pools it with its own counts into every combination by one
        membership product, so per-member counts are never stored.
        Returns the rounds sent.
        """
        members = self._other_members()
        parties = self._config()["member_ids"]
        membership = self._membership(parties)
        message = self._ld_walks_message()
        bound = _ld_round_bound(message)
        rounds = 0
        for start in range(0, len(layout.remainder), bound):
            real = layout.remainder[start : start + bound]
            padded = _padded(real, bound)
            self._lr_request_counter += 1
            request_id = f"ld-{self._lr_request_counter}"
            payload = {"req_id": request_id, "round": rounds, **message}
            requests = {
                member: self._protect(member, "ld", payload) for member in members
            }
            responses = ocall("ld", requests)
            per_party = np.empty((len(parties), len(real)), dtype=np.int64)
            for member in members:
                answer = self._open(member, "ld", responses[member])
                if answer["req_id"] != request_id:
                    raise ProtocolError(f"stale LD response from {member}")
                what = f"LD joint counts from {member}"
                joint = _received_int32(answer["moments"], what, (bound,))
                size = self._member_sizes[member]
                counts = self._member_counts.get(member)
                if counts is not None:
                    _check_joint(what, joint, padded, counts, size)
                elif joint.min() < 0 or joint.max() > size:
                    # A sharded study's overflow round: member counts
                    # never reach the leader, so the pooled check below
                    # bounds these by allele counts.
                    raise ProtocolError(f"{what} exceed its population size")
                per_party[parties.index(member)] = joint[: len(real)]
            per_party[parties.index(self.enclave_id)] = self._local_moments(
                store, real
            )
            pooled = ld.pool_moments(membership, per_party)
            self._check_pooled_joint(real, pooled)
            self._moments.put(real, pooled, _joint_counts(ref_reader, real))
            self._ld_pairs_fetched += bound
            rounds += 1
        return rounds

    def _check_pooled_joint(self, pairs: np.ndarray, pooled: np.ndarray) -> None:
        """Bound every combination's pooled joint counts by its pooled
        allele counts and size (flat rounds and the shard root alike)."""
        combo_ids = [combo_id for combo_id, _f, _members in self._combos]
        _check_joint(
            "pooled LD joint counts",
            pooled,
            pairs,
            np.stack([self._combo_counts[combo_id] for combo_id in combo_ids]),
            [self._combo_sizes[combo_id] for combo_id in combo_ids],
        )

    @ecall
    def lead_run_ld(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        ocall: OcallExchange,
    ) -> List[int]:
        """Phase 2: greedy adjacent-pair LD pruning per combination.

        Every pair any walk can compare is fetched before the walks in
        rounds of ``_LD_PAD_PER_SNP * max(|L'|, |L'_plain|)`` padded
        pairs: one round on the flat path, none on the sharded path,
        whose moments tasks already installed the union.  A union too
        big for that (or for a shard bucket) takes overflow rounds,
        counted in ``ld_overflow_rounds``.  A restored leader holds all
        of that remainder or none of it (checkpoints fall on task and
        phase boundaries), so any gap refetches all of it.  One pass
        over the complete table then gives every combination's
        statistics (:meth:`_ld_statistics`), and the walks read those.
        """
        self._require_leader()
        walks = self._ld_walks()
        l_prime = walks[0]
        cutoff = self._config()["ld_cutoff"]
        layout = self._checked_ld_layout(self._ld_walks_message())
        if len(layout.remainder) and self._moments.case_rows(layout.remainder) is None:
            with ColumnReader(self, ref_store) as ref_reader:
                rounds = self._fetch_moments(layout, store, ref_reader, ocall)
            planned = 1 if self._shard_plan is None else 0
            self._ld_overflow_rounds += rounds - planned
        statistics = self._ld_statistics()
        survivor_sets = [
            set(self._ld_greedy(combo_index, l_prime, cutoff, statistics))
            for combo_index in range(len(self._combos))
        ]
        if len(self._combos) > 1:
            # Plain track: the f0 walk over the un-intersected list.
            self._plain_retained["double_prime"] = self._ld_greedy(
                0, walks[1], cutoff, statistics
            )
        retained = sorted(set.intersection(*survivor_sets))
        self._retained["double_prime"] = retained
        if len(self._combos) == 1:
            self._plain_retained["double_prime"] = list(retained)
        return list(retained)

    def _ld_pooled_counts(self, combo_index: int) -> Tuple[np.ndarray, int]:
        """A combination's allele counts and size, each plus the
        reference's."""
        combo_id = self._combos[combo_index][0]
        return (
            self._combo_counts[combo_id] + self._reference_counts,
            self._combo_sizes[combo_id] + self._reference_rows,
        )

    def _ld_statistics(self) -> np.ndarray:
        """Every combination's ``N * r^2`` for every moment-table row,
        ``C x P``.

        One :func:`repro.stats.ld.ld_statistics` pass over the table;
        rows it leaves NaN (operands at or above 2^53) are evaluated in
        Python ints by the walk that first compares them.  Derived from
        the table on every call, so never checkpointed.
        """
        pooled = [self._ld_pooled_counts(i) for i in range(len(self._combos))]
        return ld.ld_statistics(
            self._moments.case + self._moments.reference,
            np.stack([counts for counts, _size in pooled]),
            self._moments.pairs,
            np.array([size for _counts, size in pooled], dtype=np.int64),
        )

    def _ld_greedy(
        self,
        combo_index: int,
        l_prime: List[int],
        cutoff: float,
        statistics: np.ndarray,
    ) -> List[int]:
        """Run the shared LD walk for one combination.

        The decision logic is :func:`repro.core.pipeline.ld_prune` —
        identical to the baselines'; only the statistic *source*
        differs: here it reads ``statistics[combo_index]``, computed
        over the leader's moment table, which ``lead_run_ld`` filled
        with every pair the walk can reach.  A NaN row is evaluated
        with :func:`repro.stats.ld.r_squared` and kept in its place.
        """
        # The chi-squared ranking that breaks dependent pairs is the
        # *study's* ranking (paper: getMostRanked(l, l+1, s)) — utility
        # ordering is a property of the study, computed over the full
        # federation, while the privacy decisions below remain
        # per-combination.
        ranking = self._ranking("f0")
        # A memoryview reads Python floats straight from the array, and
        # writes an evaluated NaN row back for the plain track's walk.
        row_statistics = memoryview(statistics[combo_index])
        table = self._moments
        counts, size = self._ld_pooled_counts(combo_index)

        def get_statistic(left: int, right: int, _position: int) -> float:
            row = table.row_id(left, right)
            if row < 0:
                raise ProtocolError("LD walk reached a pair outside the fetched set")
            self._ld_pairs_requested += 1
            statistic = row_statistics[row]
            if math.isnan(statistic):
                joint = int(table.case[combo_index, row] + table.reference[row])
                moments = ld.PairMoments(
                    int(counts[left]), int(counts[right]), joint, size
                )
                statistic = row_statistics[row] = size * ld.r_squared(moments)
            return statistic

        return pipeline.ld_prune(l_prime, ranking, get_statistic, cutoff)

    # -- Phase 3: LR-test ------------------------------------------------------

    @ecall
    def lead_run_lr(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        ocall: OcallExchange,
    ) -> List[int]:
        """Phase 3: distributed LR-test, intersected across combinations.

        Every combination — and, with collusion tolerance, the plain
        (collusion-oblivious) Table 5 baseline — is evaluated from a
        *single* batched request/response round: the per-combination
        protocol's ``O(C(G, G-f))`` rounds collapse to one, while each
        merged matrix stays byte-identical to what the per-combination
        exchange produced (members compute the same ``lr_matrix`` over
        the same columns and frequency vectors, merged in the same
        member order).
        """
        self._require_leader()
        if "double_prime" not in self._retained:
            raise PhaseOrderError("LD phase has not run")
        config = self._config()
        columns = self._retained["double_prime"]
        alpha, beta = config["alpha"], config["beta"]
        plain_track = len(self._combos) > 1
        plain_columns = (
            self._plain_retained.get("double_prime", []) if plain_track else []
        )

        def entry_freqs(combo_id: str, cols: List[int]):
            case = (
                self._combo_counts[combo_id][cols].astype(np.float64)
                / self._combo_sizes[combo_id]
            )
            ref = (
                self._reference_counts[cols].astype(np.float64)
                / self._reference_rows
            )
            return case, ref

        # Distinct column lists are shipped once per member and
        # referenced by set id from each entry; with collusion tolerance
        # there are at most two (the intersected list and the
        # un-intersected plain list).
        column_sets: Dict[str, np.ndarray] = {}
        entries: List[Dict[str, Any]] = []
        if columns:
            column_sets["main"] = _wire_int32(columns, "LR column set")
            for combo_id, _f, combo_members in self._combos:
                case_freqs, ref_freqs = entry_freqs(combo_id, columns)
                entries.append(
                    {
                        "rid": combo_id,
                        "set": "main",
                        "members": combo_members,
                        "case_freqs": case_freqs,
                        "ref_freqs": ref_freqs,
                    }
                )
        if plain_track and plain_columns:
            column_sets["plain"] = _wire_int32(plain_columns, "LR column set")
            case_freqs, ref_freqs = entry_freqs("f0", plain_columns)
            entries.append(
                {
                    "rid": "plain",
                    "set": "plain",
                    "members": self._combos[0][2],
                    "case_freqs": case_freqs,
                    "ref_freqs": ref_freqs,
                }
            )
        merged = self._batched_lr_matrices(
            store, ref_store, column_sets, entries, ocall
        )

        if columns:
            order = pipeline.lr_ranking_order(columns, self._ranking("f0"))
            full_case_matrix: Optional[np.ndarray] = None
            full_ref_matrix: Optional[np.ndarray] = None
            survivor_sets: List[set] = []
            for combo_id, _f, _members in self._combos:
                case_matrix, ref_matrix = merged[combo_id]
                selection = lr_test.select_safe_subset(
                    case_matrix, ref_matrix, order, alpha=alpha, beta=beta
                )
                safe = tuple(
                    sorted(columns[c] for c in selection.selected_columns)
                )
                self._combo_safe[combo_id] = safe
                survivor_sets.append(set(safe))
                if combo_id == "f0":
                    full_case_matrix = case_matrix
                    full_ref_matrix = ref_matrix
            safe_final = sorted(set.intersection(*survivor_sets))
        else:
            full_case_matrix = full_ref_matrix = None
            safe_final = []
        self._retained["safe"] = safe_final
        # Residual power of the actually-released set under the full data.
        if safe_final and full_case_matrix is not None:
            position = {snp: i for i, snp in enumerate(columns)}
            positions = [position[s] for s in safe_final]
            self._release_power = lr_test.empirical_power(
                lr_test.lr_scores(full_case_matrix, positions),
                lr_test.lr_scores(full_ref_matrix, positions),
                alpha,
            )
        else:
            self._release_power = 0.0
        if not plain_track:
            self._plain_retained["safe"] = list(safe_final)
        elif "plain" in merged:
            case_matrix, ref_matrix = merged["plain"]
            order = pipeline.lr_ranking_order(
                plain_columns, self._ranking("f0")
            )
            selection = lr_test.select_safe_subset(
                case_matrix, ref_matrix, order, alpha=alpha, beta=beta
            )
            self._plain_retained["safe"] = sorted(
                plain_columns[c] for c in selection.selected_columns
            )
        else:
            self._plain_retained["safe"] = []
        self.meter.release_buffer("lr-merged")
        return list(safe_final)

    def _batched_lr_matrices(
        self,
        store: SealedColumnStore,
        ref_store: SealedColumnStore,
        column_sets: Dict[str, np.ndarray],
        entries: List[Dict[str, Any]],
        ocall: OcallExchange,
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """One batched round producing every entry's merged LR matrices.

        Each member receives one request carrying the column sets and
        the (rid, frequency-vector) entries it participates in, and
        answers with all of its local matrices in one frame.  Returns
        ``{rid: (case_matrix, ref_matrix)}`` with rows merged in the
        entry's (sorted) member order — the same layout the
        per-combination protocol produced.
        """
        if not entries:
            return {}
        self._lr_request_counter += 1
        request_id = f"lr-{self._lr_request_counter}"
        member_entries: Dict[str, List[Dict[str, Any]]] = {}
        for entry in entries:
            for member in entry["members"]:
                if member != self.enclave_id:
                    member_entries.setdefault(member, []).append(entry)
        requests = {}
        for member, owned in member_entries.items():
            sets_used = sorted({e["set"] for e in owned})
            payload = {
                "req_id": request_id,
                "column_sets": {s: column_sets[s] for s in sets_used},
                "requests": [
                    {
                        "rid": e["rid"],
                        "set": e["set"],
                        "case_freqs": e["case_freqs"],
                        "ref_freqs": e["ref_freqs"],
                    }
                    for e in owned
                ],
            }
            requests[member] = self._protect(member, "lr", payload)
        responses = ocall("lr", requests) if requests else {}
        answers: Dict[str, Dict[str, Any]] = {}
        for member in sorted(member_entries):
            if member not in responses:
                raise ProtocolError(f"no LR answer received from {member}")
            answer = self._open(member, "lr", responses[member])
            if answer["req_id"] != request_id:
                raise ProtocolError(f"stale LR response from {member}")
            answers[member] = answer["matrices"]
        # Gather each distinct column set once from the leader's own and
        # the reference store (instead of once per combination).
        leader_sets = sorted(
            {e["set"] for e in entries if self.enclave_id in e["members"]}
        )
        local_genotypes: Dict[str, np.ndarray] = {}
        if leader_sets:
            with ColumnReader(self, store) as reader:
                for set_id in leader_sets:
                    local_genotypes[set_id] = reader.columns(column_sets[set_id])
        ref_genotypes: Dict[str, np.ndarray] = {}
        with ColumnReader(self, ref_store) as ref_reader:
            for set_id in sorted({e["set"] for e in entries}):
                ref_genotypes[set_id] = ref_reader.columns(column_sets[set_id])
        merged: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for entry in entries:
            rid, set_id = entry["rid"], entry["set"]
            width = len(column_sets[set_id])
            parts: List[np.ndarray] = []
            for member in entry["members"]:  # sorted order fixes row layout
                if member == self.enclave_id:
                    genotypes = local_genotypes[set_id]
                    label = f"lr-local/{request_id}/{rid}"
                    self.meter.register_buffer(label, genotypes.nbytes * 9)
                    try:
                        parts.append(
                            lr_test.lr_matrix(
                                genotypes,
                                entry["case_freqs"],
                                entry["ref_freqs"],
                            )
                        )
                    finally:
                        self.meter.release_buffer(label)
                    continue
                member_matrices = answers[member]
                if rid not in member_matrices:
                    raise ProtocolError(
                        f"LR answer from {member} misses entry {rid!r}"
                    )
                matrix = np.asarray(member_matrices[rid], dtype=np.float64)
                expected_shape = (self._member_sizes[member], width)
                if matrix.shape != expected_shape:
                    raise ProtocolError(  # lint: disable=R6 (matrix shapes are dimensional metadata)
                        f"LR matrix from {member} has shape {matrix.shape}, "
                        f"expected {expected_shape}"
                    )
                parts.append(matrix)
            case_matrix = np.vstack(parts)
            ref_matrix = lr_test.lr_matrix(
                ref_genotypes[set_id], entry["case_freqs"], entry["ref_freqs"]
            )
            self.meter.register_buffer(
                "lr-merged", case_matrix.nbytes + ref_matrix.nbytes
            )
            merged[rid] = (case_matrix, ref_matrix)
        return merged

    # ------------------------------------------------------------------
    # Results and introspection
    # ------------------------------------------------------------------

    @ecall
    def lead_exchange_stats(self) -> Dict[str, int]:
        """LD exchange counters (for the observability bridge).

        ``ld_pairs_requested`` counts the walks' comparisons, one per
        pair a walk compares, over every combination's walk and the
        plain track's, which is also the number of rounds the paper's
        per-pair exchange would take.  ``ld_pairs_fetched``
        counts the padded pair rows members answered, in flat LD
        rounds and moments shard tasks alike, and
        ``ld_overflow_rounds`` the padded rounds a reachable pair union
        too big for its public bound took beyond the planned exchange.
        """
        self._require_leader()
        return {
            "ld_pairs_requested": self._ld_pairs_requested,
            "ld_pairs_fetched": self._ld_pairs_fetched,
            "ld_overflow_rounds": self._ld_overflow_rounds,
        }

    @ecall
    def lead_combo_outcomes(self) -> List[Dict[str, Any]]:
        """Per-combination safe sets (for the Table 5 analysis)."""
        self._require_leader()
        return [
            {
                "combo_id": combo_id,
                "f": f,
                "members": list(members),
                "safe": list(self._combo_safe.get(combo_id, ())),
            }
            for combo_id, f, members in self._combos
        ]

    @ecall
    def lead_plain_safe(self) -> List[int]:
        """The plain (collusion-oblivious) release — Table 5's baseline."""
        self._require_leader()
        if "safe" not in self._plain_retained:
            raise PhaseOrderError("LR phase has not run")
        return list(self._plain_retained["safe"])

    @ecall
    def lead_release_power(self) -> float:
        self._require_leader()
        return self._release_power

    @ecall
    def lead_release_statistics(self) -> Dict[str, Any]:
        """Chi-squared release statistics over the final safe set."""
        self._require_leader()
        if "safe" not in self._retained:
            raise PhaseOrderError("LR phase has not run")
        safe = self._retained["safe"]
        counts = self._combo_counts["f0"][safe]
        n_case = self._combo_sizes["f0"]
        ref_counts = self._reference_counts[safe]
        statistic = chisq.pearson_chi_square(
            counts, ref_counts, n_case, self._reference_rows
        )
        return {
            "snps": list(safe),
            "chi2": statistic,
            "pvalues": chisq.chi_square_pvalues(statistic),
            "case_freqs": counts.astype(np.float64) / n_case,
            "ref_freqs": ref_counts.astype(np.float64) / self._reference_rows,
            "n_case": n_case,
            "n_reference": self._reference_rows,
        }

    @ecall
    def export_audit_log(self) -> List[Dict[str, Any]]:
        """Outbound-payload audit trail (kind, peer, size, genotype rows)."""
        return [dict(entry) for entry in self._audit_log]

    # ------------------------------------------------------------------
    # Sealed checkpoints (leader crash recovery)
    # ------------------------------------------------------------------
    #
    # The paper's TEEs use data sealing "to store data persistently
    # outside the TEE".  The leader's aggregation state between phases
    # is exactly the data worth persisting: if the leader machine
    # restarts mid-study, a fresh enclave instance (same trusted code on
    # the same platform, hence the same sealing key) can unseal the
    # checkpoint and continue, after re-attesting channels with the
    # members.  Channel keys are deliberately NOT checkpointed — session
    # keys die with the enclave and are re-agreed on recovery.

    def _checkpoint_payload(self) -> Dict[str, Any]:
        # Sizes and counts are keyed independently: sharded studies
        # collect declared sizes without per-member count vectors (the
        # pooled counts arrive through the tree), so keying sizes off
        # the counts dict would silently drop them from the blob.
        members = sorted(self._member_sizes)
        count_ids = sorted(self._member_counts)
        return {
            "study": self._study,
            "member_ids": members,
            "count_ids": count_ids,
            "member_counts": [self._member_counts[m] for m in count_ids],
            "member_sizes": [self._member_sizes[m] for m in members],
            "reference_counts": self._reference_counts,
            "reference_rows": self._reference_rows,
            "retained": {
                k: np.asarray(v, dtype=np.int64) for k, v in self._retained.items()
            },
            "plain_retained": {
                k: np.asarray(v, dtype=np.int64)
                for k, v in self._plain_retained.items()
            },
            "combo_ids": sorted(self._combo_counts),
            "combo_counts": [
                self._combo_counts[c] for c in sorted(self._combo_counts)
            ],
            "combo_sizes": [
                self._combo_sizes[c] for c in sorted(self._combo_counts)
            ],
            "combo_safe": {
                k: np.asarray(v, dtype=np.int64)
                for k, v in sorted(self._combo_safe.items())
            },
            "release_power": float(self._release_power),
            # Pooled per-combination and reference joint counts, the
            # only per-pair state the walks read: three arrays, not
            # per-pair entries.
            "moments": self._moments.state(),
            "shard_counts_done": sorted(self._shard_counts_done),
            "shard_moments_done": sorted(self._shard_moments_done),
            "shard_epoch": int(self._shard_epoch),
            "shard_commitment_keys": [
                list(k) for k in sorted(self._shard_commitments)
            ],
            "shard_commitment_values": [
                self._shard_commitments[k]
                for k in sorted(self._shard_commitments)
            ],
            "request_counter": self._lr_request_counter,
        }

    @ecall
    def checkpoint_state(self) -> SealedBlob:
        """Seal the leader's verification state for untrusted storage.

        When a rollback counter is installed, each checkpoint advances
        the platform's monotonic counter and binds the resulting epoch
        into the sealed blob's associated data — so a host cannot later
        swap in an older (validly sealed) checkpoint unnoticed.
        """
        self._require_leader()
        raw = serialization.encode(self._checkpoint_payload())
        epoch = 0
        if self._rollback_counter is not None:
            epoch = self._rollback_counter.advance()
        return seal(
            self,
            raw,
            label="leader-checkpoint",
            context=epoch.to_bytes(8, "big"),
        )

    @ecall
    def restore_state(self, blob: SealedBlob) -> None:
        """Restore a sealed checkpoint into this (fresh) enclave.

        Only an enclave with the same measurement on the same platform
        can unseal the blob; a tampered or foreign checkpoint fails.
        With a rollback counter installed, a blob sealed at an earlier
        epoch than the platform counter's current value is rejected as
        stale *before* any state is applied.
        """
        if self._rollback_counter is not None and blob.context:
            epoch = int.from_bytes(blob.context, "big")
            if epoch < self._rollback_counter.value:
                raise StaleCheckpointError(
                    f"checkpoint epoch {epoch} is behind the platform "
                    f"rollback counter ({self._rollback_counter.value}); "
                    f"refusing rollback"
                )
        raw = unseal(self, blob)
        state = serialization.decode(raw)
        self._study = state["study"]
        self._combos = self._build_combinations(
            self._study["member_ids"], list(self._study["f_values"])
        )
        members = state["member_ids"]
        self._member_counts = {
            m: np.asarray(c, dtype=np.int64)
            for m, c in zip(state["count_ids"], state["member_counts"])
        }
        self._member_sizes = {
            m: int(s) for m, s in zip(members, state["member_sizes"])
        }
        self._reference_counts = (
            None
            if state["reference_counts"] is None
            else np.asarray(state["reference_counts"], dtype=np.int64)
        )
        self._reference_rows = int(state["reference_rows"])
        self._retained = {k: v.tolist() for k, v in state["retained"].items()}
        self._plain_retained = {
            k: v.tolist() for k, v in state["plain_retained"].items()
        }
        # np.array (not asarray): the decoder hands back read-only
        # buffer views, and sharded count folds write into slices.
        self._combo_counts = {
            c: np.array(v, dtype=np.int64)
            for c, v in zip(state["combo_ids"], state["combo_counts"])
        }
        self._combo_sizes = {
            c: int(s) for c, s in zip(state["combo_ids"], state["combo_sizes"])
        }
        self._combo_safe = {
            k: tuple(v.tolist()) for k, v in state["combo_safe"].items()
        }
        self._release_power = float(state["release_power"])
        self._ranking_cache = {}
        self._ld_walk_message = None
        self._ld_layout_cache = None
        self._moments = ld.MomentTable.from_state(state["moments"])
        self._shard_counts_done = {int(s) for s in state["shard_counts_done"]}
        self._shard_moments_done = {int(s) for s in state["shard_moments_done"]}
        # The repair epoch must land before the layout is re-derived so
        # a restored leader rebuilds the *repaired* plan and tree.
        self._shard_epoch = int(state["shard_epoch"])
        self._shard_commitments = {
            (str(k[0]), int(k[1]), str(k[2])): bytes(v)
            for k, v in zip(
                state["shard_commitment_keys"], state["shard_commitment_values"]
            )
        }
        self._build_shard_layout()
        self._lr_request_counter = int(state["request_counter"])
