"""Federation assembly: platforms, enclaves, attestation, channels, hosts.

This module performs everything the paper assumes has happened before a
study runs: every GDO's TEE-enabled server is provisioned and remotely
attested, the leader is elected, pairwise secure channels are
established between the leader enclave and every member enclave, and
each member's signed local dataset is verified and sealed by its own
enclave.

The untrusted side of each member is a :class:`GdoHost` — a blind
router that moves encrypted frames between the network and its
enclave's ECALL surface.  Hosts only ever see ciphertext; the audit
tests rely on this separation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import StudyConfig
from ..crypto.rng import DeterministicRng
from ..crypto.signing import MacSigner
from ..errors import ProtocolError
from ..genomics.partition import LocalDataset
from ..genomics.population import Cohort
from ..genomics.vcf import SignedMatrix
from ..net.message import Envelope
from ..net.network import SimulatedNetwork
from ..tee.attestation import AttestationService, Platform
from ..tee.channel import establish_channel
from ..tee.enclave import GuardedEnclaveProxy, guarded
from ..tee.storage import SealedColumnStore
from .enclave_logic import GenDPREnclave
from .integrity import IntegrityMonitor
from .leader import elect_leader

#: Platform monotonic-counter name backing checkpoint freshness epochs.
ROLLBACK_COUNTER = "leader-checkpoint"


@dataclass
class GdoHost:
    """Untrusted middleware of one federation member."""

    gdo_id: str
    enclave: GuardedEnclaveProxy
    network: SimulatedNetwork
    store: Optional[SealedColumnStore] = None
    reference_store: Optional[SealedColumnStore] = None

    _HANDLERS = {
        "summary": "answer_summary",
        "ld": "answer_ld",
        "lr": "answer_lr",
    }

    def handle_envelope(self, envelope: Envelope) -> Optional[Envelope]:
        """Route one inbound frame into the enclave; maybe produce a reply."""
        if envelope.receiver != self.gdo_id:
            raise ProtocolError(
                f"{self.gdo_id} received a frame addressed to {envelope.receiver}"
            )
        if envelope.tag == "retained":
            self.enclave.ecall("ingest_retained", envelope.body, label="retained")
            return None
        if envelope.tag == "shard-task":
            self.enclave.ecall("ingest_shard_task", envelope.body, label="shard")
            return None
        if envelope.tag == "shard":
            # A tree child's partial; replies never flow back down.
            self.enclave.ecall(
                "shard_ingest_partial",
                envelope.sender,
                envelope.body,
                label="shard",
            )
            return None
        if envelope.tag.startswith("transcript:"):
            # Transcript attestations touch only channel state, not
            # the sealed dataset.  The tag carries the stage
            # ("transcript:<stage>") so each verification round has
            # a unique kind — a Byzantine replay of an earlier
            # round's reply is rejected by tag mismatch instead of
            # reaching the channel and tripping replay protection.
            response = self.enclave.ecall(
                "answer_transcript", envelope.body, label="transcript"
            )
        else:
            handler = self._HANDLERS.get(envelope.tag)
            if handler is None:
                raise ProtocolError(f"unknown protocol tag {envelope.tag!r}")
            if self.store is None:
                raise ProtocolError(f"{self.gdo_id} has no local dataset")
            response = self.enclave.ecall(
                handler, self.store, envelope.body, label=envelope.tag
            )
        return Envelope(
            sender=self.gdo_id,
            receiver=envelope.sender,
            tag=envelope.tag,
            body=response,
        )


@dataclass
class Federation:
    """A fully provisioned GenDPR federation, ready to run a study."""

    config: StudyConfig
    network: SimulatedNetwork
    attestation: AttestationService
    leader_id: str
    hosts: Dict[str, GdoHost]
    enclaves: Dict[str, GenDPREnclave] = field(repr=False, default_factory=dict)
    platforms: Dict[str, Platform] = field(repr=False, default_factory=dict)
    handshake_bytes: int = 0
    #: Dataset-authentication secret, retained so a replacement leader
    #: enclave can be provisioned during failover (never logged).
    data_auth_key: bytes = field(repr=False, default=b"")
    #: Installed :class:`~repro.faults.injector.FaultInjector` for chaos runs.
    fault_injector: Optional[object] = field(repr=False, default=None)
    #: Byzantine-integrity detection ledger for this federation.
    integrity_monitor: IntegrityMonitor = field(
        repr=False, default_factory=IntegrityMonitor
    )
    #: Number of leader replacements performed so far.
    failovers: int = 0
    #: Channel topology inherited from the substrate ("star" or "mesh");
    #: a member replacement re-attests exactly the channels this names.
    topology: str = "star"
    #: Number of member-enclave replacements (shard tree repairs).
    member_restorations: int = 0

    @property
    def member_ids(self) -> List[str]:
        return sorted(self.hosts)

    @property
    def leader_host(self) -> GdoHost:
        return self.hosts[self.leader_id]

    def resource_reports(self) -> Dict[str, object]:
        return {
            gdo_id: enclave.meter.report()
            for gdo_id, enclave in self.enclaves.items()
        }

    def replace_leader_enclave(self) -> GenDPREnclave:
        """Provision a replacement leader enclave after a crash.

        Automates what ``tests/test_core_recovery.py`` choreographed by
        hand: re-run the (deterministic) election to confirm leadership
        stays with the same GDO — its platform alone can unseal the
        sealed checkpoint and datasets — then start a fresh enclave on
        that platform, mutually re-attest a channel with every member,
        and swap the new guarded proxy into the leader host.  The caller
        (the protocol supervisor) restores state from the latest sealed
        checkpoint afterwards.
        """
        re_elected = elect_leader(
            self.member_ids, self.config.seed, self.config.study_id
        )
        if re_elected != self.leader_id:
            raise ProtocolError(
                f"re-election chose {re_elected!r}, expected {self.leader_id!r}"
            )
        self.failovers += 1
        rng = DeterministicRng(
            f"federation/{self.config.study_id}/{self.config.seed}"
            f"/failover/{self.failovers}"
        )
        replacement = GenDPREnclave(
            platform_key=self.platforms[self.leader_id].root_key,
            enclave_id=self.leader_id,
            data_auth_key=self.data_auth_key,
            rng=rng.fork("enclave"),
        )
        replacement.ecall(
            "configure", _study_params(self.config, self.member_ids, self.leader_id),
            label="failover",
        )
        # The platform's rollback counter survives the crash — the
        # replacement sees its predecessor's checkpoint epochs, which is
        # what makes stale-checkpoint detection work across failovers.
        replacement.install_rollback_counter(
            self.platforms[self.leader_id].monotonic_counter(ROLLBACK_COUNTER)
        )
        if self.fault_injector is not None:
            adversary = self.fault_injector.equivocation_adversary()
            if adversary is not None:
                replacement.install_equivocation_adversary(adversary)
        verifier = self.attestation.verifier()
        for member_id in self.member_ids:
            if member_id == self.leader_id:
                continue
            leader_end, member_end, hs_bytes = establish_channel(
                replacement,
                self.platforms[self.leader_id],
                self.enclaves[member_id],
                self.platforms[member_id],
                verifier,
                rng=rng.fork(f"channel/{member_id}"),
            )
            replacement.install_channel(leader_end)
            self.enclaves[member_id].install_channel(member_end)
            self.handshake_bytes += hs_bytes
        self.enclaves[self.leader_id] = replacement
        interceptor = (
            self.fault_injector.on_ecall if self.fault_injector is not None else None
        )
        self.hosts[self.leader_id].enclave = guarded(replacement, interceptor)
        return replacement

    def replace_member_enclave(
        self, member_id: str, *, reinstall_adversary: bool = True
    ) -> GenDPREnclave:
        """Provision a replacement *member* enclave (shard tree repair).

        The member's genotype partition is not lost with its enclave:
        the host still holds the sealed dataset store, and a fresh
        enclave on the *same platform* derives the same sealing key, so
        the replacement answers from the original data without any data
        movement.  The replacement re-attests exactly the channels the
        federation's topology gave its predecessor (every peer on a
        mesh, the leader alone on a star).

        ``reinstall_adversary`` distinguishes the two repair causes: a
        *crash* replacement inherits a compromised platform's shard
        adversary (the attacker owns the site, not the enclave
        instance), while a *quarantine* replacement deliberately loads a
        fresh attested module — modelling the operator re-deploying
        audited code — which is what lets a detected equivocation
        resolve into a clean completion.
        """
        if member_id == self.leader_id:
            raise ProtocolError(
                "leader replacement goes through replace_leader_enclave"
            )
        if member_id not in self.hosts:
            raise ProtocolError(f"unknown member {member_id!r}")
        self.member_restorations += 1
        rng = DeterministicRng(
            f"federation/{self.config.study_id}/{self.config.seed}"
            f"/repair/{member_id}/{self.member_restorations}"
        )
        replacement = GenDPREnclave(
            platform_key=self.platforms[member_id].root_key,
            enclave_id=member_id,
            data_auth_key=self.data_auth_key,
            rng=rng.fork("enclave"),
        )
        replacement.ecall(
            "configure",
            _study_params(self.config, self.member_ids, self.leader_id),
            label="repair",
        )
        replacement.install_rollback_counter(
            self.platforms[member_id].monotonic_counter(ROLLBACK_COUNTER)
        )
        if reinstall_adversary and self.fault_injector is not None:
            adversary = self.fault_injector.shard_adversary()
            if adversary is not None and adversary.target == member_id:
                replacement.install_shard_adversary(adversary)
        peers = (
            [p for p in self.member_ids if p != member_id]
            if self.topology == "mesh"
            else [self.leader_id]
        )
        verifier = self.attestation.verifier()
        for peer_id in peers:
            member_end, peer_end, hs_bytes = establish_channel(
                replacement,
                self.platforms[member_id],
                self.enclaves[peer_id],
                self.platforms[peer_id],
                verifier,
                rng=rng.fork(f"channel/{peer_id}"),
            )
            replacement.install_channel(member_end)
            self.enclaves[peer_id].install_channel(peer_end)
            self.handshake_bytes += hs_bytes
        self.enclaves[member_id] = replacement
        interceptor = (
            self.fault_injector.on_ecall if self.fault_injector is not None else None
        )
        self.hosts[member_id].enclave = guarded(replacement, interceptor)
        return replacement


def _study_params(
    config: StudyConfig, member_ids: List[str], leader_id: str
) -> Dict[str, object]:
    """The agreed study parameters every enclave is configured with."""
    return {
        "study_id": config.study_id,
        "snp_count": config.snp_count,
        "maf_cutoff": config.thresholds.maf_cutoff,
        "ld_cutoff": config.thresholds.ld_cutoff,
        "alpha": config.thresholds.false_positive_rate,
        "beta": config.thresholds.power_threshold,
        "member_ids": list(member_ids),
        "leader_id": leader_id,
        "f_values": list(config.collusion.f_values),
        "num_shards": config.sharding.num_shards,
    }


@dataclass
class FederationSubstrate:
    """The study-independent half of a federation.

    Everything here is paid once — platforms, enclaves, remote
    attestation, secure channels — and can be reused across studies:
    none of it depends on a :class:`~repro.config.StudyConfig`.  The
    long-lived service (:mod:`repro.serve`) keeps substrates warm in a
    pool; :func:`bind_study` stamps a concrete study onto one.

    ``topology`` records which channels exist: ``"star"`` (a single
    designated center holds a channel to every member — the one-shot
    path, where the leader is known before provisioning) or ``"mesh"``
    (every pair — required for reuse, since a future study's elected
    leader is unknown at provisioning time).
    """

    network: SimulatedNetwork
    attestation: AttestationService
    enclaves: Dict[str, GenDPREnclave] = field(repr=False, default_factory=dict)
    platforms: Dict[str, Platform] = field(repr=False, default_factory=dict)
    member_ids: List[str] = field(default_factory=list)
    handshake_bytes: int = 0
    data_auth_key: bytes = field(repr=False, default=b"")
    topology: str = "mesh"
    star_center: Optional[str] = None


def provision_substrate(
    member_ids: List[str],
    *,
    rng: DeterministicRng,
    network: Optional[SimulatedNetwork] = None,
    topology: str = "mesh",
    star_center: Optional[str] = None,
) -> FederationSubstrate:
    """Provision platforms, enclaves and attested channels for a member set.

    The RNG draw order (attestation master secret, then the dataset
    authenticity key, then label-derived forks) is exactly the one
    :func:`build_federation` always used, so a star substrate bound to
    its study reproduces the historical one-shot federation bit for
    bit.
    """
    if not member_ids:
        raise ProtocolError("a federation needs at least one member")
    member_ids = sorted(member_ids)
    if len(set(member_ids)) != len(member_ids):
        raise ProtocolError("duplicate GDO ids")
    if topology not in ("star", "mesh"):
        raise ProtocolError(f"unknown channel topology {topology!r}")
    if topology == "star":
        if star_center not in member_ids:
            raise ProtocolError("star topology needs a member as its center")
    elif star_center is not None:
        raise ProtocolError("star_center only applies to star topology")

    network = network if network is not None else SimulatedNetwork()
    attestation = AttestationService(master_secret=rng.bytes(32))
    data_auth_key = rng.bytes(32)

    enclaves: Dict[str, GenDPREnclave] = {}
    platforms: Dict[str, Platform] = {}
    for gdo_id in member_ids:
        platform = attestation.register_platform(f"platform/{gdo_id}")
        enclave = GenDPREnclave(
            platform_key=platform.root_key,
            enclave_id=gdo_id,
            data_auth_key=data_auth_key,
            rng=rng.fork(f"enclave/{gdo_id}"),
        )
        network.register(gdo_id)
        enclaves[gdo_id] = enclave
        platforms[gdo_id] = platform
        # Checkpoint-freshness epochs come from each platform's
        # monotonic counter; only a leader ever advances its own, but a
        # substrate cannot know which member future elections pick.
        enclave.install_rollback_counter(
            platform.monotonic_counter(ROLLBACK_COUNTER)
        )

    verifier = attestation.verifier()
    handshake_bytes = 0
    if topology == "star":
        pairs = [
            (star_center, member_id)
            for member_id in member_ids
            if member_id != star_center
        ]
    else:
        pairs = [
            (a, b)
            for index, a in enumerate(member_ids)
            for b in member_ids[index + 1:]
        ]
    for end_a, end_b in pairs:
        # The historical fork label for star channels; mesh pairs get a
        # label naming both ends.
        label = (
            f"channel/{end_b}"
            if topology == "star"
            else f"channel/{end_a}/{end_b}"
        )
        a_end, b_end, hs_bytes = establish_channel(
            enclaves[end_a],
            platforms[end_a],
            enclaves[end_b],
            platforms[end_b],
            verifier,
            rng=rng.fork(label),
        )
        enclaves[end_a].install_channel(a_end)
        enclaves[end_b].install_channel(b_end)
        handshake_bytes += hs_bytes

    return FederationSubstrate(
        network=network,
        attestation=attestation,
        enclaves=enclaves,
        platforms=platforms,
        member_ids=member_ids,
        handshake_bytes=handshake_bytes,
        data_auth_key=data_auth_key,
        topology=topology,
        star_center=star_center,
    )


def bind_study(
    substrate: FederationSubstrate,
    config: StudyConfig,
    datasets: List[LocalDataset],
    cohort: Cohort,
) -> Federation:
    """Stamp one study onto a (possibly reused) substrate.

    Elects the leader, resets every enclave's per-study state via
    ``configure``, installs the study's fault injector (or clears a
    previous study's), signs and loads the member datasets and the
    reference population, and returns a ready :class:`Federation`.
    """
    if not datasets:
        raise ProtocolError("a federation needs at least one member")
    config.collusion.validate_for(len(datasets))
    member_ids = sorted(d.gdo_id for d in datasets)
    if member_ids != substrate.member_ids:
        raise ProtocolError(
            f"datasets name members {member_ids}, but the substrate was "
            f"provisioned for {substrate.member_ids}"
        )

    leader_id = elect_leader(member_ids, config.seed, config.study_id)
    if substrate.topology == "star" and leader_id != substrate.star_center:
        raise ProtocolError(
            f"study elects {leader_id!r} but the star substrate centers "
            f"on {substrate.star_center!r}; reuse needs a mesh substrate"
        )
    if (
        config.sharding.enabled
        and substrate.topology == "star"
        and len(member_ids) > 2
    ):
        # Tree aggregation sends member-to-member frames along non-root
        # edges; a star substrate has no channels for them.
        raise ProtocolError(
            "sharded studies need a mesh substrate for the combine tree"
        )

    network = substrate.network
    fault_injector = None
    ecall_interceptor = None
    if config.faults.enabled:
        # Local import keeps repro.faults optional on the default path.
        from ..faults.injector import FaultInjector
        from ..faults.plan import FaultPlan

        fault_injector = FaultInjector(FaultPlan(config.faults), leader_id=leader_id)
        network.install_fault_injector(fault_injector)
        ecall_interceptor = fault_injector.on_ecall
    else:
        network.uninstall_fault_injector()

    hosts: Dict[str, GdoHost] = {}
    for gdo_id in member_ids:
        hosts[gdo_id] = GdoHost(
            gdo_id=gdo_id,
            enclave=guarded(substrate.enclaves[gdo_id], ecall_interceptor),
            network=network,
        )

    # Configure every enclave with the agreed study parameters; this
    # also clears any per-study aggregates a previous study left behind.
    params = _study_params(config, member_ids, leader_id)
    for enclave in substrate.enclaves.values():
        enclave.ecall("configure", params, label="setup")

    # Chaos runs may compromise the leader's broadcast path; binding
    # with no adversary clears one a previous study installed.
    adversary = (
        fault_injector.equivocation_adversary()
        if fault_injector is not None
        else None
    )
    substrate.enclaves[leader_id].install_equivocation_adversary(adversary)

    # Same for a compromised shard emitter: install on the targeted
    # member, clear everywhere else (a previous study may have armed a
    # different node).
    shard_adversary = (
        fault_injector.shard_adversary() if fault_injector is not None else None
    )
    for gdo_id, enclave in substrate.enclaves.items():
        enclave.install_shard_adversary(
            shard_adversary
            if shard_adversary is not None and shard_adversary.target == gdo_id
            else None
        )

    # Members verify and seal their signed local datasets.
    data_signer = MacSigner(substrate.data_auth_key, purpose="vcf-dataset")
    for dataset in datasets:
        signed = SignedMatrix.create(dataset.case, data_signer)
        hosts[dataset.gdo_id].store = substrate.enclaves[dataset.gdo_id].ecall(
            "load_local_dataset", signed, label="setup"
        )

    # The leader seals the public reference population for streaming.
    hosts[leader_id].reference_store = substrate.enclaves[leader_id].ecall(
        "load_reference_matrix",
        cohort.reference.to_bytes(),
        cohort.reference.num_individuals,
        label="setup",
    )

    return Federation(
        config=config,
        network=network,
        attestation=substrate.attestation,
        leader_id=leader_id,
        hosts=hosts,
        enclaves=substrate.enclaves,
        platforms=substrate.platforms,
        handshake_bytes=substrate.handshake_bytes,
        data_auth_key=substrate.data_auth_key,
        fault_injector=fault_injector,
        topology=substrate.topology,
    )


def build_federation(
    config: StudyConfig,
    datasets: List[LocalDataset],
    cohort: Cohort,
    *,
    network: Optional[SimulatedNetwork] = None,
) -> Federation:
    """Provision a federation for one study.

    One-shot path: provisions a star substrate centered on the elected
    leader and immediately binds the study to it.  The service keeps
    mesh substrates warm instead and calls :func:`bind_study` directly.

    Args:
        config: study parameters (thresholds, collusion policy, seed).
        datasets: one local case shard per member (see
            :func:`repro.genomics.partition.partition_cohort`).
        cohort: the full cohort; only its panel and public reference
            population are used here — case genomes reach members solely
            through their ``datasets`` shard.
        network: optionally a pre-configured simulated network.
    """
    if not datasets:
        raise ProtocolError("a federation needs at least one member")
    member_ids = sorted(d.gdo_id for d in datasets)
    leader_id = elect_leader(member_ids, config.seed, config.study_id)
    # Sharded studies aggregate along member-to-member tree edges, so
    # they need the full mesh; the historical star layout (and its RNG
    # fork labels) is kept for everything else.
    sharded = config.sharding.enabled and len(member_ids) > 2
    substrate = provision_substrate(
        member_ids,
        rng=DeterministicRng(f"federation/{config.study_id}/{config.seed}"),
        network=network,
        topology="mesh" if sharded else "star",
        star_center=None if sharded else leader_id,
    )
    return bind_study(substrate, config, datasets, cohort)
