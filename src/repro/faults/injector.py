"""The fault injector: applies a :class:`FaultPlan` to a live run.

The injector sits behind two hooks, both disabled by default:

* :meth:`SimulatedNetwork.install_fault_injector` routes every
  ``send`` through :meth:`FaultInjector.on_send`, which may drop,
  duplicate, delay or corrupt the envelope, or fail the operation for
  a partition window.
* :func:`repro.tee.enclave.guarded` accepts the injector's
  :meth:`on_ecall` as an ECALL interceptor, which tears an enclave
  down at a planned crash point.

Every injected event is counted and, when observability is on, traced
through :data:`repro.obs.tracer.TRACER`.  All bookkeeping lives behind
one lock; the decisions themselves are pure plan lookups, so worker
threads cannot perturb the schedule.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..net.message import Envelope
from ..obs.tracer import TRACER
from ..tee.sealing import SealedBlob
from .plan import CORRUPT, DELAY, DROP, DUPLICATE, REPLAY, WITHHOLD, FaultPlan


class FaultInjector:
    """Applies one :class:`FaultPlan` to a network and a set of enclaves."""

    def __init__(self, plan: FaultPlan, *, leader_id: Optional[str] = None):
        self._plan = plan
        self._config = plan.config
        #: Corruption is only applied on the leader → member request leg
        #: (see FaultConfig.corrupt_rate); a corrupt draw on a reply leg
        #: degrades to a drop, modelling the transport integrity check
        #: discarding the record.
        self._leader_id = leader_id
        self._network = None
        self._lock = threading.Lock()
        self._link_index: Dict[Tuple[str, str], int] = {}
        self._ecall_index: Dict[str, int] = {}
        self._round_index = 0
        #: node_id -> send operations still to block (active partitions).
        self._partition_budget: Dict[str, int] = {}
        self._pending_delayed: List[Envelope] = []
        #: Last *valid* envelope delivered per link — the material a
        #: Byzantine host replays.  One per link bounds the memory.
        self._link_history: Dict[Tuple[str, str], Envelope] = {}
        #: Checkpoint-tamper state (see on_checkpoint/checkpoint_for_restore).
        self._first_checkpoint: Optional[SealedBlob] = None
        self._stale_served = False
        #: Cached compromised-broadcaster model — one instance per run,
        #: so attempt counters persist across leader failovers.
        self._equivocator: Optional["BroadcastEquivocator"] = None
        #: Cached compromised-shard-emitter model, same lifetime rules
        #: (attempt counters survive enclave replacement after a crash).
        self._shard_equivocator: Optional["ShardEquivocator"] = None
        self._counters: Dict[str, int] = {
            "drops": 0,
            "duplicates": 0,
            "delays": 0,
            "corruptions": 0,
            "partition_blocks": 0,
            "crashes": 0,
            "released_delayed": 0,
            "flushed_in_flight": 0,
            "replays": 0,
            "withholds": 0,
            "equivocations": 0,
            "shard_equivocations": 0,
            "checkpoint_tampers": 0,
        }

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def attach(self, network) -> None:
        """Bind to the network whose deliveries this injector mediates."""
        self._network = network

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, action: str, counter: str, **attributes: object) -> None:
        self._counters[counter] += 1
        if TRACER.enabled:
            TRACER.event(f"fault.{action}", round=self._round_index, **attributes)

    # -- round lifecycle -------------------------------------------------------

    def begin_round(self) -> int:
        """Advance the OCALL round counter; activate partition windows."""
        with self._lock:
            self._round_index += 1
            for node_id, start_round, blocked_ops in self._config.partition_windows:
                if start_round != self._round_index:
                    continue
                budget = self._partition_budget.get(node_id, 0)
                self._partition_budget[node_id] = budget + blocked_ops
                if TRACER.enabled:
                    TRACER.event(
                        "fault.partition_begin",
                        round=self._round_index,
                        node=node_id,
                        blocked_ops=blocked_ops,
                    )
            return self._round_index

    # -- network hook ----------------------------------------------------------

    def on_send(self, envelope: Envelope) -> None:
        """Mediate one delivery; called by ``SimulatedNetwork.send``.

        Either delivers (one or two copies, possibly corrupted), holds
        the envelope for a later :meth:`release_delayed`, silently
        drops it, or raises :class:`NetworkError` for an active
        partition window.
        """
        network = self._network
        if network is None:
            raise NetworkError("fault injector is not attached to a network")
        link = (envelope.sender, envelope.receiver)
        with self._lock:
            index = self._link_index.get(link, 0) + 1
            self._link_index[link] = index
            blocked = self._partition_blocked(envelope)
            if blocked:
                self._record(
                    "partition_block",
                    "partition_blocks",
                    node=blocked,
                    sender=envelope.sender,
                    receiver=envelope.receiver,
                    tag=envelope.tag,
                )
        if blocked:
            raise NetworkError(
                f"node {blocked!r} is partitioned (fault window)"
            )
        action = self._plan.action_for(envelope.sender, envelope.receiver, index)
        if action == CORRUPT and (
            self._leader_id is not None and envelope.sender != self._leader_id
        ):
            action = DROP
        target = self._config.withhold_target
        if action == WITHHOLD and target and target not in link:
            # Targeted withholding: links not touching the target are
            # left alone (the adversary spends its budget selectively).
            action = None
        if action is None:
            network._deliver(envelope)
            with self._lock:
                self._link_history[link] = envelope
            return
        context = {
            "sender": envelope.sender,
            "receiver": envelope.receiver,
            "tag": envelope.tag,
            "link_index": index,
        }
        if action == DROP:
            with self._lock:
                self._record("drop", "drops", **context)
        elif action == DUPLICATE:
            network._deliver(envelope)
            network._deliver(
                Envelope(
                    sender=envelope.sender,
                    receiver=envelope.receiver,
                    tag=envelope.tag,
                    body=envelope.body,
                )
            )
            with self._lock:
                self._record("duplicate", "duplicates", **context)
        elif action == DELAY:
            with self._lock:
                self._pending_delayed.append(envelope)
                self._record("delay", "delays", **context)
        elif action == CORRUPT:
            offset = self._plan.corrupt_offset(
                envelope.sender, envelope.receiver, index, len(envelope.body)
            )
            corrupted = bytearray(envelope.body)
            if corrupted:
                corrupted[offset] ^= 0x80
            network._deliver(
                Envelope(
                    sender=envelope.sender,
                    receiver=envelope.receiver,
                    tag=envelope.tag,
                    body=bytes(corrupted),
                )
            )
            with self._lock:
                self._record("corrupt", "corruptions", offset=offset, **context)
        elif action == REPLAY:
            # Deliver the genuine frame, then re-play the previous valid
            # frame on the same link: authenticated-but-stale traffic the
            # receiver must reject (channel sequencing) or absorb (dedup).
            network._deliver(envelope)
            with self._lock:
                earlier = self._link_history.get(link)
                self._link_history[link] = envelope
            if earlier is not None:
                network._deliver(
                    Envelope(
                        sender=earlier.sender,
                        receiver=earlier.receiver,
                        tag=earlier.tag,
                        body=earlier.body,
                    )
                )
                with self._lock:
                    self._record("replay", "replays", **context)
        elif action == WITHHOLD:
            with self._lock:
                self._record("withhold", "withholds", **context)

    def _partition_blocked(self, envelope: Envelope) -> Optional[str]:
        """The partitioned endpoint blocking this send, if any (locked)."""
        for node in (envelope.sender, envelope.receiver):
            budget = self._partition_budget.get(node, 0)
            if budget > 0:
                self._partition_budget[node] = budget - 1
                return node
        return None

    def release_delayed(
        self, node_id: str, *, from_node: Optional[str] = None
    ) -> int:
        """Deliver held envelopes addressed to ``node_id`` (backoff tick).

        Models the delayed frames finally arriving once the retrying
        receiver has waited out its timeout; ``from_node`` narrows the
        release to one link.  Returns the number released.
        """
        network = self._network
        with self._lock:
            due = [
                e
                for e in self._pending_delayed
                if e.receiver == node_id and from_node in (None, e.sender)
            ]
            if not due:
                return 0
            self._pending_delayed = [
                e for e in self._pending_delayed if e not in due
            ]
            self._counters["released_delayed"] += len(due)
        for envelope in due:
            network._deliver(envelope)
            if TRACER.enabled:
                TRACER.event(
                    "fault.release_delayed",
                    sender=envelope.sender,
                    receiver=envelope.receiver,
                    tag=envelope.tag,
                )
        return len(due)

    def reset_in_flight(self) -> int:
        """Discard held envelopes (failover flush); returns the count."""
        with self._lock:
            flushed = len(self._pending_delayed)
            self._pending_delayed = []
            self._counters["flushed_in_flight"] += flushed
        return flushed

    # -- Byzantine hooks -------------------------------------------------------

    def equivocation_adversary(self) -> Optional["BroadcastEquivocator"]:
        """The compromised-broadcaster model, or ``None`` when unarmed.

        Installed into the leader enclave at provisioning time (and
        re-installed into every replacement enclave, so per-broadcast
        attempt counters persist across failovers).
        """
        if self._config.equivocate_rate <= 0.0:
            return None
        if self._equivocator is None:
            self._equivocator = BroadcastEquivocator(self)
        return self._equivocator

    def record_equivocation(self, **attributes: object) -> None:
        with self._lock:
            self._record("equivocate", "equivocations", **attributes)

    def shard_adversary(self) -> Optional["ShardEquivocator"]:
        """The compromised-shard-emitter model, or ``None`` when unarmed.

        Installed into the targeted member enclave at provisioning time
        and re-installed into a crash-replacement enclave (the platform
        stays compromised); a *quarantine* replacement installs a fresh
        attested module instead, which is what lets a detected
        equivocation resolve into a clean completion.
        """
        if self._config.shard_flip_rate <= 0.0:
            return None
        if self._shard_equivocator is None:
            self._shard_equivocator = ShardEquivocator(self)
        return self._shard_equivocator

    def record_shard_equivocation(self, **attributes: object) -> None:
        with self._lock:
            self._record("shard_equivocate", "shard_equivocations", **attributes)

    def on_checkpoint(self, blob: Optional[SealedBlob]) -> None:
        """Observe a sealed checkpoint (the host stores them anyway).

        The tampering host keeps the *first* blob around as rollback
        material for :meth:`checkpoint_for_restore`.
        """
        if blob is None or not self._config.checkpoint_tamper:
            return
        with self._lock:
            if self._first_checkpoint is None:
                self._first_checkpoint = blob

    def checkpoint_for_restore(
        self, latest: Optional[SealedBlob]
    ) -> Optional[SealedBlob]:
        """The blob the (possibly tampering) host serves for a restore.

        ``"corrupt"`` always serves a bit-flipped copy (unsealing fails
        closed every time, so the failover budget runs out).  ``"stale"``
        serves the oldest sealed checkpoint exactly once — the rollback
        replay the platform counter rejects — after which the honest
        blob is served and the study recovers; ``"stale_persistent"``
        serves it on every restore, forcing a classified abort.
        """
        mode = self._config.checkpoint_tamper
        if not mode or latest is None:
            return latest
        if mode == "corrupt":
            data = bytearray(latest.data)
            data[len(data) // 2] ^= 0x01
            with self._lock:
                self._record(
                    "checkpoint_corrupt", "checkpoint_tampers", label=latest.label
                )
            return SealedBlob(
                data=bytes(data), label=latest.label, context=latest.context
            )
        with self._lock:
            first = self._first_checkpoint
            if first is None or first.data == latest.data:
                return latest
            if mode == "stale" and self._stale_served:
                return latest
            self._stale_served = True
            self._record(
                "checkpoint_stale", "checkpoint_tampers", label=first.label
            )
        return first

    # -- enclave hook ----------------------------------------------------------

    def on_ecall(self, enclave, name: str) -> None:
        """ECALL interceptor: crash the enclave at a planned crash point.

        The crash happens *before* the dispatch, so the intercepted
        ECALL itself raises :class:`EnclaveCrashedError` — the host
        observes a mid-operation enclave loss, exactly the paper's
        leader-crash scenario.
        """
        with self._lock:
            index = self._ecall_index.get(enclave.enclave_id, 0) + 1
            self._ecall_index[enclave.enclave_id] = index
            # Indices only grow per enclave id, so a point comes up once.
            crash = (enclave.enclave_id, index) in self._config.crash_points
            if crash:
                self._record(
                    "crash",
                    "crashes",
                    enclave=enclave.enclave_id,
                    ecall=name,
                    ecall_index=index,
                )
        if crash:
            enclave.crash()

    # -- reporting -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)


class BroadcastEquivocator:
    """Models a compromised leader-side trusted module that equivocates.

    A Byzantine *host* cannot forge AEAD frames, so sending different
    followers different (individually well-authenticated) broadcast
    bodies requires the broadcasting module itself to be adversarial.
    The federation installs this hook into the leader enclave when the
    plan arms ``equivocate_rate``; the enclave consults it per
    ``(stage, member)`` while building broadcast frames.

    Draws are pure plan lookups keyed by the per-pair attempt number,
    so a run replays exactly, while a post-failover re-broadcast (a new
    attempt) may draw clean and let the study complete bit-identically.
    """

    def __init__(self, injector: FaultInjector):
        self._injector = injector
        self._lock = threading.Lock()
        self._attempts: Dict[Tuple[str, str], int] = {}

    def mutate(self, stage: str, member: str, snps: List[int]) -> List[int]:
        """The SNP list actually sent to ``member`` for ``stage``."""
        with self._lock:
            attempt = self._attempts.get((stage, member), 0) + 1
            self._attempts[(stage, member)] = attempt
        if not self._injector.plan.equivocate_for(stage, member, attempt):
            return list(snps)
        self._injector.record_equivocation(
            stage=stage, member=member, attempt=attempt
        )
        # Any deterministic divergence works; drop the tail SNP (or
        # invent one when the list is empty) so digests cannot match.
        return list(snps[:-1]) if snps else [0]


class ShardEquivocator:
    """Models a compromised member module falsifying shard partials.

    A Byzantine interior node of the combine tree cannot forge its
    children's AEAD frames, but a compromised trusted module *can* lie
    about its own leaf statistics before folding them in — an in-bounds
    lie that passes every shape and bound check on the ingest path.  The
    federation installs this hook into the ``shard_flip_target`` member
    when the plan arms ``shard_flip_rate``; the enclave consults it per
    ``(kind, shard)`` leaf computation.

    Draws are keyed by a per-task attempt counter, so the integrity
    layer's verification re-run of the same shard task is a *fresh*
    attempt — the lie draws differently across the two runs, which is
    exactly what the dual-run leaf-commitment comparison detects.  A
    module that lies identically on every attempt is indistinguishable
    from honest data and stays out of the model (documented in
    ``docs/RESILIENCE.md``).
    """

    def __init__(self, injector: FaultInjector):
        self._injector = injector
        self._lock = threading.Lock()
        self._attempts: Dict[Tuple[str, int], int] = {}

    @property
    def target(self) -> str:
        return self._injector.plan.config.shard_flip_target

    def mutate(self, kind: str, shard: int, stats):
        """The leaf statistics the module actually folds and emits.

        ``stats`` is the honest int64 partial; the falsified copy stays
        in bounds (one positive entry decremented) so only the
        commitment cross-check — never a shape or bound guard — can
        expose it.
        """
        with self._lock:
            attempt = self._attempts.get((kind, shard), 0) + 1
            self._attempts[(kind, shard)] = attempt
        if not self._injector.plan.shard_flip_for(kind, shard, attempt):
            return stats
        flat = stats.reshape(-1)
        positive = [i for i in range(flat.shape[0]) if flat[i] > 0]
        forged = stats.copy()
        if positive:
            forged.reshape(-1)[positive[attempt % len(positive)]] -= 1
        else:
            # An all-zero leaf has nothing to decrement; leave it alone
            # (the draw is still counted as an attempt, not an event).
            return stats
        self._injector.record_shard_equivocation(
            kind=kind, shard=shard, attempt=attempt
        )
        return forged
