"""In-process simulated network.

Federation members run on one machine in this reproduction, so the
"network" is a synchronous message router with:

* per-node FIFO inboxes,
* per-link byte/message accounting (feeding the bandwidth analysis of
  Section 7.1),
* a simulated clock advanced by a configurable latency/bandwidth profile
  (:class:`~repro.config.NetworkProfile`), and
* optional fault injection — dropping a node models the paper's
  non-responsive members, for which GenDPR makes no liveness guarantee.

Delivery is reliable and ordered per link, matching the TLS-like
transport an SGX deployment would use between sites.

The router is thread-safe: the round engine's parallel executor
(:mod:`repro.core.resilience`) sends and receives from worker threads
concurrently.  Each inbox has its own lock (senders to different
receivers never contend) and link/clock accounting updates atomically
under a shared stats lock.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..config import NetworkProfile
from ..errors import NetworkError, UnknownPeerError
from ..obs.tracer import TRACER
from .message import Envelope, LinkStats

#: Separator between a scope namespace and a logical node id in the
#: physical registry.  Plain registrations may not contain it, so a
#: namespaced node can never be spoofed from outside its scope.
NAMESPACE_SEPARATOR = "//"


class SimulatedNetwork:
    """Synchronous router with traffic accounting and fault injection."""

    def __init__(self, profile: Optional[NetworkProfile] = None):
        self._profile = profile or NetworkProfile()
        self._inboxes: Dict[str, Deque[Envelope]] = {}
        self._inbox_locks: Dict[str, threading.Lock] = {}
        self._links: Dict[Tuple[str, str], LinkStats] = defaultdict(LinkStats)
        self._partitioned: set[str] = set()
        self._simulated_time = 0.0
        self._namespaces: set[str] = set()
        #: Guards topology (registration/partitions) and the link/clock
        #: accounting; per-inbox delivery uses the per-node locks.
        self._stats_lock = threading.Lock()
        #: Optional :class:`~repro.faults.injector.FaultInjector` mediating
        #: deliveries; ``None`` (the default) keeps sends on the direct
        #: inbox-append path with zero added work.
        self._fault_injector = None

    # -- Topology ---------------------------------------------------------------

    def register(self, node_id: str) -> None:
        """Attach a node; duplicate registration is an error (typo guard)."""
        if not node_id:
            raise NetworkError("node_id must be non-empty")
        if NAMESPACE_SEPARATOR in node_id:
            raise NetworkError(
                f"node id {node_id!r} contains the reserved namespace "
                f"separator {NAMESPACE_SEPARATOR!r}; register through a "
                f"scope instead"
            )
        self._register_physical(node_id)

    def _register_physical(self, node_id: str) -> None:
        with self._stats_lock:
            if node_id in self._inboxes:
                raise NetworkError(f"node {node_id!r} already registered")
            self._inboxes[node_id] = deque()
            self._inbox_locks[node_id] = threading.Lock()

    def nodes(self) -> List[str]:
        return sorted(self._inboxes)

    def partition(self, node_id: str) -> None:
        """Cut a node off: its sends and receives start failing."""
        self._require_known(node_id)
        with self._stats_lock:
            self._partitioned.add(node_id)

    def heal(self, node_id: str) -> None:
        """Reconnect a previously partitioned node."""
        self._require_known(node_id)
        with self._stats_lock:
            self._partitioned.discard(node_id)

    def _require_known(self, node_id: str) -> None:
        if node_id not in self._inboxes:
            raise UnknownPeerError(f"unknown node {node_id!r}")

    def _require_connected(self, node_id: str) -> None:
        self._require_known(node_id)
        if node_id in self._partitioned:
            raise NetworkError(f"node {node_id!r} is partitioned")

    # -- Fault injection ---------------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Route every send through a :class:`~repro.faults.injector.FaultInjector`.

        Chaos runs only; without this call the delivery path is exactly
        the pre-injection fast path.
        """
        self._fault_injector = injector
        injector.attach(self)

    def uninstall_fault_injector(self) -> None:
        """Restore the direct delivery path (between reused studies)."""
        self._fault_injector = None

    def _deliver(self, envelope: Envelope) -> None:
        """Append to the receiver's inbox (fault-injector delivery hook)."""
        self._deliver_to(envelope.receiver, envelope)

    def _deliver_to(self, inbox_id: str, envelope: Envelope) -> None:
        """Append to a named inbox (scopes deliver logical envelopes
        into physically-keyed inboxes, so the two ids can differ)."""
        with self._inbox_locks[inbox_id]:
            self._inboxes[inbox_id].append(envelope)

    def advance_clock(self, seconds: float) -> float:
        """Advance the simulated clock (retry backoff); returns new time."""
        if seconds < 0:
            raise NetworkError("cannot advance the clock backwards")
        with self._stats_lock:
            self._simulated_time += seconds
            return self._simulated_time

    def flush(self, node_id: str) -> int:
        """Discard every pending inbox message of a node.

        Used by the protocol supervisor when a failover re-runs a phase:
        stragglers from the aborted attempt must not pollute the retry.
        Returns the number of messages discarded.
        """
        self._require_known(node_id)
        with self._inbox_locks[node_id]:
            flushed = len(self._inboxes[node_id])
            self._inboxes[node_id].clear()
        return flushed

    # -- Messaging ---------------------------------------------------------------

    def send(self, envelope: Envelope) -> None:
        """Deliver one envelope, advancing the simulated clock."""
        advance, sim_time = self._account_send(
            envelope.sender, envelope.receiver, envelope
        )
        if self._fault_injector is not None:
            self._fault_injector.on_send(envelope)
        else:
            self._deliver_to(envelope.receiver, envelope)
        if TRACER.enabled:
            TRACER.event(
                "net.send",
                sender=envelope.sender,
                receiver=envelope.receiver,
                tag=envelope.tag,
                wire_bytes=envelope.size(),
                clock_advance_s=advance,
                sim_time_s=sim_time,
            )

    def _account_send(
        self, link_sender: str, link_receiver: str, envelope: Envelope
    ) -> Tuple[float, float]:
        """Validate one send and charge its traffic to a link.

        Shared by the direct path and :class:`ScopedNetwork` (which
        charges a logical envelope to a physically-keyed link).  Returns
        ``(clock_advance, new_simulated_time)``.
        """
        self._require_connected(link_sender)
        self._require_connected(link_receiver)
        if link_sender == link_receiver:
            raise NetworkError("a node cannot message itself over the network")
        advance = self._profile.transfer_time(envelope.size())
        with self._stats_lock:
            self._links[(link_sender, link_receiver)].record(envelope)
            self._simulated_time += advance
            sim_time = self._simulated_time
        return advance, sim_time

    def broadcast(
        self, sender: str, receivers: Iterable[str], tag: str, body: bytes
    ) -> int:
        """Send the same body to each receiver; returns envelopes sent.

        Validation is atomic: every receiver is checked before the first
        envelope goes out, so an unknown or partitioned receiver in the
        middle of the list cannot leave a half-delivered broadcast.
        """
        targets = [receiver for receiver in receivers if receiver != sender]
        self._require_connected(sender)
        for receiver in targets:
            self._require_connected(receiver)
        for receiver in targets:
            self.send(Envelope(sender=sender, receiver=receiver, tag=tag, body=body))
        return len(targets)

    def receive(self, node_id: str, tag: Optional[str] = None) -> Envelope:
        """Pop the next inbox message (optionally requiring a tag).

        The protocol is phase-synchronous, so an empty inbox or a tag
        mismatch indicates a logic error and raises immediately rather
        than blocking.  A mismatch leaves the inbox untouched — the
        message is peeked, not popped, so the caller (or a debugger)
        still sees the queue as it was.
        """
        self._require_connected(node_id)
        with self._inbox_locks[node_id]:
            inbox = self._inboxes[node_id]
            if not inbox:
                raise NetworkError(f"inbox of {node_id!r} is empty")
            envelope = inbox[0]
            if tag is not None and envelope.tag != tag:
                pending = [e.tag for e in inbox]
                raise NetworkError(
                    f"{node_id!r} expected tag {tag!r}, got {envelope.tag!r} "
                    f"(pending tags: {pending})"
                )
            inbox.popleft()
        if TRACER.enabled:
            TRACER.event(
                "net.recv",
                node=node_id,
                sender=envelope.sender,
                tag=envelope.tag,
                wire_bytes=envelope.size(),
            )
        return envelope

    def drain(self, node_id: str, tag: str, count: int) -> List[Envelope]:
        """Receive exactly ``count`` messages with ``tag``.

        All-or-nothing *and atomic*: the whole batch is validated and
        popped under the inbox lock, so a failed drain never loses
        envelopes and a concurrent sender or drainer can never observe
        (or interleave with) a half-popped batch.
        """
        self._require_connected(node_id)
        with self._inbox_locks[node_id]:
            inbox = self._inboxes[node_id]
            for index, envelope in enumerate(
                itertools.islice(inbox, count)
            ):
                if envelope.tag != tag:
                    pending = [e.tag for e in itertools.islice(
                        inbox, index, None
                    )]
                    raise NetworkError(
                        f"{node_id!r} expected tag {tag!r}, got "
                        f"{envelope.tag!r} (pending tags: {pending})"
                    )
            if len(inbox) < count:
                raise NetworkError(f"inbox of {node_id!r} is empty")
            received = [inbox.popleft() for _ in range(count)]
        if TRACER.enabled:
            for envelope in received:
                TRACER.event(
                    "net.recv",
                    node=node_id,
                    sender=envelope.sender,
                    tag=envelope.tag,
                    wire_bytes=envelope.size(),
                )
        return received

    def pending(self, node_id: str) -> int:
        self._require_known(node_id)
        with self._inbox_locks[node_id]:
            return len(self._inboxes[node_id])

    # -- Accounting ----------------------------------------------------------------

    @property
    def simulated_time(self) -> float:
        """Seconds of simulated transfer time accumulated so far."""
        with self._stats_lock:
            return self._simulated_time

    def link_stats(self, sender: str, receiver: str) -> LinkStats:
        with self._stats_lock:
            return self._links[(sender, receiver)]

    def links(self) -> Dict[Tuple[str, str], LinkStats]:
        """Per-link stats for every link that carried traffic."""
        with self._stats_lock:
            return {
                link: stats
                for link, stats in self._links.items()
                if stats.messages
            }

    def total_stats(self) -> LinkStats:
        """Aggregate traffic across every link."""
        total = LinkStats()
        with self._stats_lock:
            for stats in self._links.values():
                total.merge(stats)
        return total

    def traffic_matrix(self) -> Dict[Tuple[str, str], int]:
        """Wire bytes per ordered (sender, receiver) pair."""
        with self._stats_lock:
            return {
                link: stats.wire_bytes
                for link, stats in sorted(self._links.items())
                if stats.messages
            }

    # -- Scopes ----------------------------------------------------------------

    def scope(self, namespace: str) -> "ScopedNetwork":
        """Open a namespaced view of this router for one study session.

        Nodes registered through the returned :class:`ScopedNetwork`
        live under ``{namespace}//{logical_id}`` in the physical
        registry, so two concurrent sessions can both register
        ``gdo-0`` without colliding, while all traffic still flows (and
        is accounted) on the shared router.  Each scope carries its own
        simulated clock, so one session's retry backoff never skews
        another's timings.
        """
        if not namespace:
            raise NetworkError("scope namespace must be non-empty")
        if NAMESPACE_SEPARATOR in namespace:
            raise NetworkError(
                f"scope namespace {namespace!r} contains the reserved "
                f"separator {NAMESPACE_SEPARATOR!r}"
            )
        with self._stats_lock:
            if namespace in self._namespaces:
                raise NetworkError(
                    f"scope {namespace!r} is already open on this router"
                )
            self._namespaces.add(namespace)
        return ScopedNetwork(self, namespace)

    def release_scope(self, scope: "ScopedNetwork") -> None:
        """Tear a scope down: drop its inboxes and free its namespace."""
        prefix = scope.namespace + NAMESPACE_SEPARATOR
        with self._stats_lock:
            doomed = [node for node in self._inboxes if node.startswith(prefix)]
            for node in doomed:
                del self._inboxes[node]
                del self._inbox_locks[node]
                self._partitioned.discard(node)
            self._namespaces.discard(scope.namespace)


class ScopedNetwork:
    """A per-session namespaced view over a shared :class:`SimulatedNetwork`.

    Exposes the full router surface under *logical* node ids; every
    physical registration, inbox and link is keyed by
    ``{namespace}//{logical_id}`` on the parent.  Envelopes keep their
    logical sender/receiver end to end (only inbox *keys* are
    namespaced), so protocol code and byte accounting behave exactly as
    on a private router — concurrent sessions stay bit-identical to
    solo runs.

    The scope carries its own simulated clock: message transfer time
    accrues on both the scope and the parent, but :meth:`advance_clock`
    (retry backoff) advances only this scope, isolating sessions that
    share the router.  A fault injector installed on a scope sees
    logical envelopes, so deterministic fault schedules also match solo
    runs.
    """

    def __init__(self, parent: SimulatedNetwork, namespace: str):
        self._parent = parent
        self.namespace = namespace
        self._prefix = namespace + NAMESPACE_SEPARATOR
        self._local: set[str] = set()
        self._local_lock = threading.Lock()
        self._simulated_time = 0.0
        self._fault_injector = None

    def _physical(self, node_id: str) -> str:
        return self._prefix + node_id

    # -- Topology ---------------------------------------------------------------

    def register(self, node_id: str) -> None:
        if not node_id:
            raise NetworkError("node_id must be non-empty")
        if NAMESPACE_SEPARATOR in node_id:
            raise NetworkError(
                f"node id {node_id!r} contains the reserved namespace "
                f"separator {NAMESPACE_SEPARATOR!r}"
            )
        self._parent._register_physical(self._physical(node_id))
        with self._local_lock:
            self._local.add(node_id)

    def nodes(self) -> List[str]:
        with self._local_lock:
            return sorted(self._local)

    def partition(self, node_id: str) -> None:
        self._parent.partition(self._physical(node_id))

    def heal(self, node_id: str) -> None:
        self._parent.heal(self._physical(node_id))

    # -- Fault injection ---------------------------------------------------------

    def install_fault_injector(self, injector) -> None:
        """Install a *per-session* injector; it sees logical envelopes."""
        self._fault_injector = injector
        injector.attach(self)

    def uninstall_fault_injector(self) -> None:
        """Restore the direct delivery path (between reused studies)."""
        self._fault_injector = None

    def _deliver(self, envelope: Envelope) -> None:
        """Fault-injector delivery hook (logical envelope in)."""
        self._parent._deliver_to(self._physical(envelope.receiver), envelope)

    def advance_clock(self, seconds: float) -> float:
        """Advance only this scope's clock; returns the new scope time."""
        if seconds < 0:
            raise NetworkError("cannot advance the clock backwards")
        with self._parent._stats_lock:
            self._simulated_time += seconds
            return self._simulated_time

    def flush(self, node_id: str) -> int:
        return self._parent.flush(self._physical(node_id))

    # -- Messaging ---------------------------------------------------------------

    def send(self, envelope: Envelope) -> None:
        """Deliver one logical envelope over the shared router."""
        receiver_physical = self._physical(envelope.receiver)
        advance, _ = self._parent._account_send(
            self._physical(envelope.sender), receiver_physical, envelope
        )
        with self._parent._stats_lock:
            self._simulated_time += advance
            sim_time = self._simulated_time
        if self._fault_injector is not None:
            self._fault_injector.on_send(envelope)
        else:
            self._parent._deliver_to(receiver_physical, envelope)
        if TRACER.enabled:
            TRACER.event(
                "net.send",
                scope=self.namespace,
                sender=envelope.sender,
                receiver=envelope.receiver,
                tag=envelope.tag,
                wire_bytes=envelope.size(),
                clock_advance_s=advance,
                sim_time_s=sim_time,
            )

    def broadcast(
        self, sender: str, receivers: Iterable[str], tag: str, body: bytes
    ) -> int:
        targets = [receiver for receiver in receivers if receiver != sender]
        self._parent._require_connected(self._physical(sender))
        for receiver in targets:
            self._parent._require_connected(self._physical(receiver))
        for receiver in targets:
            self.send(
                Envelope(sender=sender, receiver=receiver, tag=tag, body=body)
            )
        return len(targets)

    def receive(self, node_id: str, tag: Optional[str] = None) -> Envelope:
        return self._parent.receive(self._physical(node_id), tag)

    def drain(self, node_id: str, tag: str, count: int) -> List[Envelope]:
        return self._parent.drain(self._physical(node_id), tag, count)

    def pending(self, node_id: str) -> int:
        return self._parent.pending(self._physical(node_id))

    # -- Accounting ----------------------------------------------------------------

    @property
    def simulated_time(self) -> float:
        """Seconds of simulated time accumulated by *this scope*."""
        with self._parent._stats_lock:
            return self._simulated_time

    def link_stats(self, sender: str, receiver: str) -> LinkStats:
        return self._parent.link_stats(
            self._physical(sender), self._physical(receiver)
        )

    def links(self) -> Dict[Tuple[str, str], LinkStats]:
        """Per-link stats of this scope's links, under logical ids."""
        scoped: Dict[Tuple[str, str], LinkStats] = {}
        with self._parent._stats_lock:
            for (sender, receiver), stats in self._parent._links.items():
                if not stats.messages:
                    continue
                if sender.startswith(self._prefix) and receiver.startswith(
                    self._prefix
                ):
                    scoped[
                        (sender[len(self._prefix):],
                         receiver[len(self._prefix):])
                    ] = stats
        return scoped

    def total_stats(self) -> LinkStats:
        total = LinkStats()
        for stats in self.links().values():
            total.merge(stats)
        return total

    def traffic_matrix(self) -> Dict[Tuple[str, str], int]:
        return {
            link: stats.wire_bytes
            for link, stats in sorted(self.links().items())
            if stats.messages
        }
