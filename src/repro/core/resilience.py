"""Resilient OCALL exchange: timeout, retry, dedup, classified aborts.

The plain exchange in :mod:`repro.core.protocol` assumes perfect
delivery: a dropped frame raises straight out of the leader's phase
ECALL.  :class:`ResilientExchange` is a drop-in replacement for the
OCALL callable that tolerates the faults :mod:`repro.faults` injects
(and that a real deployment's network exhibits) without changing study
outcomes:

* **Timeout detection** — a member whose request, handling or reply did
  not complete observably is retried, with exponential backoff advanced
  on the *simulated* clock (:meth:`SimulatedNetwork.advance_clock`), so
  wall time stays unaffected and runs stay deterministic.
* **Idempotent re-sends** — a request frame is AEAD-protected *once* by
  the leader enclave; retries re-ship the identical bytes.  The member
  side filters its inbox by the expected frame hash (exactly what a
  transport integrity layer does) and hands each unique frame to its
  enclave exactly once, so per-channel sequence numbers never skip or
  repeat and the channel's replay protection is never tripped.  Member
  replies are likewise protected once, cached, and re-shipped on
  demand; the leader-side :class:`_ReplyRouter` deduplicates arrivals
  by frame hash.
* **Classified aborts** — a member that stays unreachable past the
  retry budget (or whose enclave crashed) raises
  :class:`~repro.errors.MemberUnresponsiveError` carrying a structured
  :class:`FailureReport`; the study never hangs and never silently
  continues without a member.

Corruption can only be repaired on the request leg: the leader opens
reply frames *inside* its phase ECALL where no retry is possible, so
the fault plan degrades reply-leg corruption to a drop (the integrity
check discarding the record) and the cached-reply re-send recovers it.

A leader-enclave crash is *not* handled here — it surfaces as
:class:`~repro.errors.EnclaveCrashedError` from the phase ECALL and is
the :class:`~repro.core.supervisor.ProtocolSupervisor`'s job.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..errors import (
    ChannelError,
    EnclaveCrashedError,
    MemberUnresponsiveError,
    NetworkError,
    ProtocolError,
    UnknownPeerError,
)
from ..net import Envelope
from ..obs.tracer import TRACER


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
        return {
            "study_id": self.study_id,
            "member_id": self.member_id,
            "round_kind": self.round_kind,
            "attempts": self.attempts,
            "cause": self.cause,
            "simulated_time_s": self.simulated_time_s,
            "counters": dict(self.counters),
        }


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
        self.discarded = 0
        #: Peak number of tracked frame hashes (both generations) —
        #: evidence the dedup memory stays bounded across long studies.
        self.seen_high_water = 0

    def _track_high_water(self) -> None:
        # Caller holds self._lock.
        tracked = sum(len(s) for s in self._seen.values()) + sum(
            len(s) for s in self._seen_prev.values()
        )
        if tracked > self.seen_high_water:
            self.seen_high_water = tracked

    def begin_round(self, kind: str, expected: Set[str]) -> None:
        with self._lock:
            self._track_high_water()
            self._seen_prev = dict(self._seen)
            self._seen = defaultdict(set)
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
                self._track_high_water()
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


class ResilientExchange:
    """OCALL exchange with bounded retry; see the module docstring.

    Callable with the ``(kind, frames) -> responses`` signature the
    leader enclave's phase ECALLs expect, for both execution modes.
    """

    def __init__(self, protocol):
        # Weak: the protocol owns this exchange, and a strong back
        # reference would leave every finished study in a reference
        # cycle that only the cyclic garbage collector frees.
        self._protocol = weakref.proxy(protocol)
        self._federation = protocol.federation
        self._policy = self._federation.config.resilience
        self._router = _ReplyRouter(
            self._federation.network, self._federation.leader_id
        )
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "rounds": 0,
            "retries": 0,
            "junk_discarded": 0,
            "replies_reshipped": 0,
        }
        self._backoff_seconds = 0.0

    # -- stats ---------------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount

    def stats(self) -> Dict[str, float]:
        with self._stats_lock:
            stats: Dict[str, float] = dict(self._stats)
            stats["backoff_seconds"] = self._backoff_seconds
        stats["replies_deduped"] = self._router.discarded
        stats["dedup_seen_high_water"] = self._router.seen_high_water
        return stats

    # -- round driver --------------------------------------------------------

    def __call__(self, kind: str, frames: Dict[str, bytes]) -> Dict[str, bytes]:
        gate = self._protocol.round_gate
        if gate is not None:
            with gate(kind):
                return self._run_round(kind, frames)
        return self._run_round(kind, frames)

    def _run_round(self, kind: str, frames: Dict[str, bytes]) -> Dict[str, bytes]:
        federation = self._federation
        if federation.leader_id in frames:
            raise ProtocolError("leader cannot ocall itself")
        if not frames:
            return {}
        injector = federation.fault_injector
        if injector is not None:
            injector.begin_round(kind)
        self._bump("rounds")
        self._router.begin_round(kind, expected=set(frames))
        execution = federation.config.execution
        accounting = self._protocol._accounting
        member_times: Dict[str, float] = {}
        if execution.is_parallel and len(frames) > 1:
            with TRACER.span(
                "round", kind=kind, members=len(frames), concurrent=True,
                resilient=True,
            ):
                parent = TRACER.current_span_id() if TRACER.enabled else None

                def service(member_id: str, frame: bytes) -> float:
                    with TRACER.propagated(parent):
                        return self._service_member(
                            kind, member_id, frame, timer=time.thread_time
                        )

                executor = self._protocol._ensure_executor()
                wall_begin = time.perf_counter()
                futures = {
                    member_id: executor.submit(service, member_id, frame)
                    for member_id, frame in frames.items()
                }
                errors = []
                for member_id, future in futures.items():
                    try:
                        member_times[member_id] = future.result()
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)
                if errors:
                    raise errors[0]
                wall = time.perf_counter() - wall_begin
            accounting.record_round(
                member_times, kind=kind, wall_seconds=wall, concurrent=True
            )
        else:
            with TRACER.span(
                "round", kind=kind, members=len(frames), resilient=True
            ):
                for member_id, frame in frames.items():
                    member_times[member_id] = self._service_member(
                        kind, member_id, frame, timer=time.perf_counter
                    )
            accounting.record_round(member_times, kind=kind)
        arrived = self._router.replies()
        # Deterministic response order: request order, not arrival order.
        return {
            member_id: arrived[member_id]
            for member_id in frames
            if member_id in arrived
        }

    # -- per-member service state machine ------------------------------------

    def _service_member(
        self, kind: str, member_id: str, frame: bytes, *, timer
    ) -> float:
        """Drive one member through request → handle → reply, with retry.

        Returns the member's enclave compute seconds.  The state machine
        is monotonic — ``request_sent``, ``handled``, reply-arrival —
        and every transient :class:`NetworkError` rewinds only to the
        first incomplete stage, so completed work (in particular the
        single AEAD protect per frame) is never repeated.
        """
        federation = self._federation
        network = federation.network
        leader_id = federation.leader_id
        policy = self._policy
        expected = _frame_hash(frame)
        request_sent = False
        handled = False
        elapsed = 0.0
        reply: Optional[Envelope] = None
        attempts = 0
        while True:
            try:
                if not request_sent:
                    network.send(
                        Envelope(
                            sender=leader_id,
                            receiver=member_id,
                            tag=kind,
                            body=frame,
                        )
                    )
                    request_sent = True
                if not handled:
                    inbound = self._pump_member(member_id, expected)
                    begin = timer()
                    reply = federation.hosts[member_id].handle_envelope(inbound)
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
                if not self._router.has_reply(member_id):
                    raise NetworkError(
                        f"reply from {member_id!r} did not arrive"
                    )
                return elapsed
            except EnclaveCrashedError as exc:
                # The *member's* enclave died mid-handling (a leader
                # crash never surfaces here: leader ECALLs happen
                # outside the exchange).  Convert, so the supervisor
                # does not mistake it for a leader crash.
                raise MemberUnresponsiveError(
                    f"member {member_id!r} enclave crashed during {kind!r}",
                    report=self._failure_report(
                        member_id, kind, attempts, "enclave_crashed"
                    ),
                ) from exc
            except (UnknownPeerError, ChannelError):
                raise  # misconfiguration / protocol bugs are not transient
            except NetworkError as exc:
                attempts += 1
                self._bump("retries")
                if attempts >= policy.max_attempts:
                    raise MemberUnresponsiveError(
                        f"member {member_id!r} unresponsive after "
                        f"{attempts} attempts in round {kind!r}",
                        report=self._failure_report(
                            member_id, kind, attempts, str(exc)
                        ),
                    ) from exc
                self._backoff(member_id, kind, attempts)
                if not handled:
                    # The request may have been lost in flight; rewind
                    # to the send stage so the next attempt re-ships
                    # the identical frame bytes (the member-side hash
                    # filter makes a surviving earlier copy harmless).
                    request_sent = False
                if handled and reply is not None and not self._router.has_reply(
                    member_id
                ):
                    # The reply may have been lost; re-ship the cached
                    # frame bytes (protected once — dedup, not replay).
                    try:
                        network.send(
                            Envelope(
                                sender=member_id,
                                receiver=leader_id,
                                tag=kind,
                                body=reply.body,
                            )
                        )
                        self._bump("replies_reshipped")
                    except NetworkError:
                        pass  # still partitioned; next attempt retries

    def _pump_member(self, member_id: str, expected: bytes) -> Envelope:
        """Pop the member's inbox until the expected frame appears.

        Anything else — corrupted copies, late-released frames from
        earlier rounds, duplicates — fails the hash comparison and is
        discarded *before* it can reach the enclave and trip the
        channel's replay protection.  Raises :class:`NetworkError` when
        the inbox runs out without a match (request lost: retry).
        """
        network = self._federation.network
        while True:
            envelope = network.receive(member_id)
            if _frame_hash(envelope.body) == expected:
                return envelope
            self._bump("junk_discarded")
            if TRACER.enabled:
                TRACER.event(
                    "resilience.junk_discarded",
                    member=member_id,
                    tag=envelope.tag,
                )

    def _backoff(self, member_id: str, kind: str, attempt: int) -> None:
        """Exponential backoff on the simulated clock; release stragglers."""
        policy = self._policy
        delay = policy.backoff_base_s * policy.backoff_factor ** (attempt - 1)
        network = self._federation.network
        network.advance_clock(delay)
        with self._stats_lock:
            self._backoff_seconds += delay
        injector = self._federation.fault_injector
        released = 0
        if injector is not None:
            # Waiting out the timeout is when delayed frames finally
            # land; release everything in flight around this member.
            released = injector.release_delayed(member_id)
        if TRACER.enabled:
            TRACER.event(
                "resilience.retry",
                member=member_id,
                kind=kind,
                attempt=attempt,
                backoff_s=delay,
                released_delayed=released,
            )

    def _failure_report(
        self, member_id: str, kind: str, attempts: int, cause: str
    ) -> FailureReport:
        federation = self._federation
        counters = dict(self.stats())
        injector = federation.fault_injector
        if injector is not None:
            counters.update(
                {f"fault_{k}": v for k, v in injector.counters().items()}
            )
        return FailureReport(
            study_id=federation.config.study_id,
            member_id=member_id,
            round_kind=kind,
            attempts=attempts,
            cause=cause,
            simulated_time_s=federation.network.simulated_time,
            counters=counters,
        )
