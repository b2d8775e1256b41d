"""The round engine: every synchronous round through one delivery path.

GenDPR's leader works in synchronous rounds (``docs/PROTOCOL.md``).
Leader-to-member OCALL rounds, tree-combine levels and broadcast
echoes are all one job, and :class:`RoundEngine` is its one copy.  A
round is a kind plus a list of ``(sender, receiver, frame)`` edges; for
each edge the engine

* ships the frame.  The sending enclave protects it *once*, and every
  retry re-ships the identical bytes;
* pops the receiver's inbox until a byte-identical copy appears.
  Corrupted copies, duplicates and late-released frames of earlier
  rounds are discarded before they reach the enclave, so channel
  sequence numbers never skip or repeat and replay protection is never
  tripped;
* hands the frame to the round's handler exactly once, and routes any
  reply to the leader through :class:`_ReplyRouter` (dedup by hash);
* retries a lost frame or reply with exponential backoff on the
  *simulated* clock, so wall time is unaffected and runs stay
  deterministic;
* records member time for the phase clock's parallel-round correction.

Its two parameters come from the study config: the executor
(``execution.mode``: inline, or a pool fanning per-edge enclave work out
across distinct enclaves) and the attempt budget
(``resilience.max_attempts``, 1 when resilience is off).  Fault-free
traffic is byte-identical under every combination.

Without resilience, errors propagate as raised: a member crash is
:class:`~repro.errors.EnclaveCrashedError`, a lost frame or a partition
:class:`~repro.errors.NetworkError`.  Under resilience a member crash or
an exhausted budget raises :class:`~repro.errors.MemberUnresponsiveError`
with a :class:`FailureReport`: the study never hangs and never silently
continues without a member.  A leader-enclave crash always passes
through to the :class:`~repro.core.supervisor.ProtocolSupervisor`.

Corruption can only be repaired on the request leg: the leader opens
replies *inside* its phase ECALL where no retry is possible, so the
fault plan degrades reply-leg corruption to a drop, which the re-shipped
reply recovers.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    ChannelError,
    EnclaveCrashedError,
    MemberUnresponsiveError,
    NetworkError,
    ProtocolError,
    UnknownPeerError,
)
from ..net.message import Envelope
from ..obs.tracer import TRACER

#: One edge of a round: ``(sender, receiver, frame)``.  The frame slot
#: is ``None`` when the round's ``emit`` step builds it.
Edge = Tuple[str, str, Optional[bytes]]

#: Simulated seconds of backoff after a first failed attempt; each
#: further attempt multiplies the wait by :data:`BACKOFF_FACTOR`.  The
#: backoff only advances the simulated clock.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0


def _frame_hash(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()


@dataclass(frozen=True)
class FailureReport:
    """Structured account of why a member was declared unresponsive."""

    study_id: str
    member_id: str
    round_kind: str
    attempts: int
    cause: str
    simulated_time_s: float
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class _ReplyRouter:
    """Routes the leader's inbox to per-member reply slots, with dedup.

    Worker threads of a parallel round all pump the shared leader inbox;
    one lock serialises the popping, and a per-member set of seen frame
    hashes rejects duplicated or late-released copies.  The sets are
    *generational*, not cumulative: a round boundary rotates the current
    generation into the previous one and starts fresh, so memory stays
    bounded by two rounds' traffic instead of growing for the whole
    study.  Two generations (not one) because a DELAYed duplicate is
    released while its successor round retries — it must still hit the
    dedup filter, and one-generation clearing would let it through.
    Frames older than that are rejected by tag/kind mismatch anyway.
    """

    def __init__(self, network, leader_id: str):
        self._network = network
        self._leader_id = leader_id
        self._lock = threading.Lock()
        self._seen: Dict[str, Set[bytes]] = defaultdict(set)
        self._seen_prev: Dict[str, Set[bytes]] = {}
        self._replies: Dict[str, bytes] = {}
        self._kind: Optional[str] = None
        self._expected: Set[str] = set()
        #: Hashes held by the current and the previous generation.
        self._tracked = self._tracked_prev = 0
        self.discarded = 0
        #: Peak number of tracked frame hashes (both generations) —
        #: evidence the dedup memory stays bounded across long studies.
        self.seen_high_water = 0

    def begin_round(self, kind: str, expected: Set[str]) -> None:
        with self._lock:
            self._seen_prev = dict(self._seen)
            self._seen = defaultdict(set)
            self._tracked_prev, self._tracked = self._tracked, 0
            self._kind = kind
            self._expected = set(expected)
            self._replies = {}

    def pump(self) -> None:
        """Drain whatever the leader inbox holds into reply slots."""
        with self._lock:
            while self._network.pending(self._leader_id):
                envelope = self._network.receive(self._leader_id)
                digest = _frame_hash(envelope.body)
                if digest in self._seen[envelope.sender] or digest in (
                    self._seen_prev.get(envelope.sender) or ()
                ):
                    self.discarded += 1
                    continue
                self._seen[envelope.sender].add(digest)
                self._tracked += 1
                self.seen_high_water = max(
                    self.seen_high_water, self._tracked + self._tracked_prev
                )
                if (
                    envelope.tag == self._kind
                    and envelope.sender in self._expected
                    and envelope.sender not in self._replies
                ):
                    self._replies[envelope.sender] = envelope.body
                else:
                    self.discarded += 1

    def has_reply(self, member_id: str) -> bool:
        with self._lock:
            return member_id in self._replies

    def replies(self) -> Dict[str, bytes]:
        with self._lock:
            return dict(self._replies)


class RoundEngine:
    """Runs every round of one study; see the module docstring.

    Calling the engine runs one OCALL round with the ``(kind, frames)
    -> responses`` signature the leader enclave's phase ECALLs expect;
    :meth:`run` is the general form that tree-combine levels and echo
    rings use.  The engine owns the fan-out thread pool (:meth:`close`
    releases it).
    """

    def __init__(self, federation, accounting):
        config = federation.config
        self._federation = federation
        self._accounting = accounting
        self._parallel = config.execution.is_parallel
        self._max_workers = config.execution.max_workers
        self._resilient = config.resilience.enabled
        self._max_attempts = (
            config.resilience.max_attempts if self._resilient else 1
        )
        self._router = _ReplyRouter(federation.network, federation.leader_id)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "rounds": 0,
            "retries": 0,
            "junk_discarded": 0,
            "replies_reshipped": 0,
        }
        self._backoff_seconds = 0.0
        self._retries_by_kind: Dict[str, int] = {}
        #: Optional ``gate(kind)`` -> context manager entered around
        #: every round (the serving layer's fair scheduling and
        #: cancellation point).
        self.gate = None

    # -- stats ---------------------------------------------------------------

    def _bump(self, key: str) -> None:
        with self._stats_lock:
            self._stats[key] += 1

    def stats(self) -> Dict[str, float]:
        with self._stats_lock:
            stats: Dict[str, float] = dict(self._stats)
            stats["backoff_seconds"] = self._backoff_seconds
        stats["replies_deduped"] = self._router.discarded
        stats["dedup_seen_high_water"] = self._router.seen_high_water
        return stats

    def retries_by_kind(self) -> Dict[str, int]:
        """Retries taken per round kind."""
        with self._stats_lock:
            return dict(self._retries_by_kind)

    # -- rounds --------------------------------------------------------------

    def __call__(self, kind: str, frames: Dict[str, bytes]) -> Dict[str, bytes]:
        """One OCALL round: leader frames out, member answers back."""
        leader_id = self._federation.leader_id
        if leader_id in frames:
            raise ProtocolError("leader cannot ocall itself")
        self._router.begin_round(kind, expected=set(frames))
        self.run(
            kind, [(leader_id, member, frame) for member, frame in frames.items()]
        )
        arrived = self._router.replies()
        # Deterministic response order: request order, not arrival order.
        return {
            member_id: arrived[member_id]
            for member_id in frames
            if member_id in arrived
        }

    def run(
        self,
        kind: str,
        edges: Sequence[Edge],
        handler: Optional[Callable[[Envelope], Optional[Envelope]]] = None,
        *,
        tag: Optional[str] = None,
        emit: Optional[Callable[[str, str], bytes]] = None,
    ) -> None:
        """Run one round over ``edges``.

        ``handler(envelope)`` consumes a delivered frame inside the
        receiving enclave and returns an optional reply to the sender;
        the default is the receiver host's protocol dispatch.  ``tag``
        labels the frames on the wire (default: ``kind``).  With
        ``emit``, ``emit(sender, receiver)`` first builds every edge's
        frame in the sender's enclave.

        A frame an enclave protected is shipped even when another edge
        of the round failed — dropping it would put that channel's
        sequence numbers out of step — and only a receiver that failed
        stops taking frames.  Then the first failure is raised, in edge
        order; a failed round is not accounted.
        """
        if self.gate is None:
            self._run(kind, edges, handler, tag or kind, emit)
            return
        with self.gate(kind):
            self._run(kind, edges, handler, tag or kind, emit)

    def _run(self, kind, edges, handler, tag, emit) -> None:
        injector = self._federation.fault_injector
        if injector is not None:
            injector.begin_round()
        self._bump("rounds")
        handler = handler or self._dispatch
        frames: List[Optional[bytes]] = [frame for _s, _r, frame in edges]
        emit_seconds = [0.0] * len(edges)
        handle_seconds = [0.0] * len(edges)
        errors: List[Optional[Exception]] = [None] * len(edges)

        def emit_edge(index: int, timer) -> None:
            sender, receiver, _frame = edges[index]
            begin = timer()
            try:
                frames[index] = emit(sender, receiver)
            except EnclaveCrashedError as exc:
                errors[index] = self._crash_error(sender, kind, 0, exc)
            except Exception as exc:  # noqa: BLE001 - raised in edge order
                errors[index] = exc
            emit_seconds[index] = timer() - begin

        def deliver_lane(indices: List[int], timer) -> None:
            for index in indices:
                sender, receiver, _frame = edges[index]
                try:
                    handle_seconds[index] = self._deliver(
                        kind, tag, sender, receiver, frames[index], handler, timer
                    )
                except Exception as exc:  # noqa: BLE001 - raised in edge order
                    errors[index] = exc
                    return  # the receiver is lost for this round

        fan_out = self._parallel and len(edges) > 1
        with TRACER.span(
            "round", kind=kind, members=len(edges), concurrent=fan_out
        ):
            begin = time.perf_counter()
            if emit is not None:
                self._fan([partial(emit_edge, i) for i in range(len(edges))])
            # One lane per receiver delivers its edges in edge order: two
            # workers pumping one inbox would discard each other's frames.
            lanes: Dict[str, List[int]] = {}
            for index, (_sender, receiver, _frame) in enumerate(edges):
                if errors[index] is None:
                    lanes.setdefault(receiver, []).append(index)
            self._fan([partial(deliver_lane, lane) for lane in lanes.values()])
            wall = time.perf_counter() - begin
        for error in errors:
            if error is not None:
                raise error
        # Summed in edge order, so member times never depend on which
        # lane finished first.
        member_times: Dict[str, float] = defaultdict(float)
        for index, (sender, receiver, _frame) in enumerate(edges):
            if emit is not None:
                member_times[sender] += emit_seconds[index]
            member_times[receiver] += handle_seconds[index]
        if fan_out:
            self._accounting.record_round(
                member_times, kind=kind, wall_seconds=wall, concurrent=True
            )
        else:
            self._accounting.record_round(member_times, kind=kind)

    def _fan(self, tasks: List[Callable]) -> None:
        """Run ``tasks(timer)`` inline, or on the pool in parallel mode.

        Pool workers time member work with thread CPU time, not
        ``perf_counter``: wall time on a worker includes slices where
        sibling threads were scheduled, which would inflate a member's
        modelled compute; CPU time of the worker thread is what the
        member's own server would spend.
        """
        if not self._parallel or len(tasks) < 2:
            for task in tasks:
                task(time.perf_counter)
            return
        parent = TRACER.current_span_id() if TRACER.enabled else None

        def work(task) -> None:
            with TRACER.propagated(parent):
                task(time.thread_time)

        if self._executor is None:
            width = max(1, len(self._federation.hosts) - 1)
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers or width,
                thread_name_prefix="round",
            )
        futures = [self._executor.submit(work, task) for task in tasks]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Release the fan-out thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- one edge ------------------------------------------------------------

    def _dispatch(self, envelope: Envelope) -> Optional[Envelope]:
        return self._federation.hosts[envelope.receiver].handle_envelope(
            envelope
        )

    def _deliver(
        self, kind, tag, sender, receiver, frame, handler, timer
    ) -> float:
        """Drive one edge through ship → handle → reply, with retry.

        Returns the receiver's handling seconds.  The state machine is
        monotonic — handled, then reply-arrived — and every transient
        :class:`NetworkError` rewinds only to the first incomplete
        stage, so completed work (the single handling, the single
        reply protect) is never repeated.
        """
        network = self._federation.network
        elapsed = 0.0
        handled = False
        reply: Optional[Envelope] = None
        attempt = 0
        while True:
            attempt += 1
            try:
                if not handled:
                    inbound = self._ship(sender, receiver, tag, frame)
                    begin = timer()
                    reply = handler(inbound)
                    elapsed = timer() - begin
                    handled = True
                    if reply is not None:
                        network.send(reply)
                if reply is None:
                    return elapsed
                # Pump unconditionally: draining an already-routed
                # inbox is a no-op, and gating the pump on has_reply()
                # made this branch depend on whether a sibling worker
                # pumped first — a schedule-dependent path that
                # coverage-keyed replay (repro.fuzz) must not see.
                self._router.pump()
                if not self._router.has_reply(receiver):
                    raise NetworkError(f"reply from {receiver!r} did not arrive")
                return elapsed
            except EnclaveCrashedError as exc:
                raise self._crash_error(receiver, kind, attempt, exc)
            except (UnknownPeerError, ChannelError):
                raise  # misconfiguration / protocol bugs are not transient
            except NetworkError as exc:
                if attempt >= self._max_attempts:
                    if not self._resilient:
                        raise
                    raise self.unresponsive(
                        receiver, kind, attempt, str(exc)
                    ) from exc
                replying = handled and reply is not None
                self._backoff(kind, sender, receiver, attempt, replying)
                if replying and not self._router.has_reply(receiver):
                    # The reply may have been lost; re-ship the cached
                    # frame bytes (protected once — dedup, not replay).
                    try:
                        network.send(reply)
                        self._bump("replies_reshipped")
                    except NetworkError:
                        pass  # still partitioned; next attempt retries

    def _ship(self, sender: str, receiver: str, tag: str, frame: bytes) -> Envelope:
        """Send ``frame``, then pop the receiver's inbox until it appears.

        Anything else — corrupted copies, late-released frames from
        earlier rounds, duplicates — is discarded *before* it can reach
        the enclave.  A blocked send still pumps (a copy from an earlier
        attempt may have landed since); an inbox that runs out without
        a copy raises :class:`NetworkError` (frame lost: retry).
        """
        network = self._federation.network
        lost: Optional[NetworkError] = None
        try:
            network.send(
                Envelope(sender=sender, receiver=receiver, tag=tag, body=frame)
            )
        except (UnknownPeerError, ChannelError):
            raise
        except NetworkError as exc:
            lost = exc  # partitioned; the bounded retry rides it out
        while network.pending(receiver):
            envelope = network.receive(receiver)
            if envelope.body == frame:
                return envelope
            self._bump("junk_discarded")
            if TRACER.enabled:
                TRACER.event(
                    "resilience.junk_discarded", member=receiver, tag=envelope.tag
                )
        raise lost or NetworkError(
            f"{tag!r} frame from {sender!r} to {receiver!r} was lost"
        )

    def _backoff(
        self, kind: str, sender: str, receiver: str, attempt: int, replying: bool
    ) -> None:
        """Exponential backoff on the simulated clock; release stragglers.

        Waiting out the timeout is when delayed frames finally land:
        those addressed to the receiver and, once it has answered, its
        reply.  Nothing else is released, so a parallel round's lanes
        never drop frames into each other's inboxes.
        """
        delay = BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
        self._federation.network.advance_clock(delay)
        with self._stats_lock:
            self._stats["retries"] += 1
            self._retries_by_kind[kind] = self._retries_by_kind.get(kind, 0) + 1
            self._backoff_seconds += delay
        injector = self._federation.fault_injector
        released = 0
        if injector is not None:
            released = injector.release_delayed(receiver)
            if replying:
                released += injector.release_delayed(sender, from_node=receiver)
        if TRACER.enabled:
            TRACER.event(
                "resilience.retry",
                member=receiver,
                kind=kind,
                attempt=attempt,
                backoff_s=delay,
                released_delayed=released,
            )

    # -- classified aborts ---------------------------------------------------

    def _crash_error(
        self, member_id: str, kind: str, attempts: int, exc: EnclaveCrashedError
    ) -> Exception:
        """The error a crash of ``member_id``'s enclave propagates as."""
        if not self._resilient or member_id == self._federation.leader_id:
            return exc
        error = self.unresponsive(member_id, kind, attempts, "enclave_crashed")
        error.__cause__ = exc
        return error

    def unresponsive(
        self, member_id: str, kind: str, attempts: int, cause: str
    ) -> MemberUnresponsiveError:
        """A lost member as a classified abort with its failure report."""
        federation = self._federation
        counters = dict(self.stats())
        injector = federation.fault_injector
        if injector is not None:
            counters.update(
                {f"fault_{k}": v for k, v in injector.counters().items()}
            )
        return MemberUnresponsiveError(
            f"member {member_id!r} lost during {kind!r} after {attempts} "
            f"attempt(s) ({cause})",
            report=FailureReport(
                study_id=federation.config.study_id,
                member_id=member_id,
                round_kind=kind,
                attempts=attempts,
                cause=cause,
                simulated_time_s=federation.network.simulated_time,
                counters=counters,
            ),
        )
