"""Supervised study execution: checkpoint, crash detection, failover.

:class:`ProtocolSupervisor` wraps one :class:`~repro.core.protocol.
GenDPRProtocol` and automates the leader-recovery choreography that
``tests/test_core_recovery.py`` performs by hand:

1. after federation provisioning it seals an initial leader checkpoint,
   and after every completed phase a fresh one;
2. a leader-enclave crash (:class:`~repro.errors.EnclaveCrashedError`
   out of a phase ECALL or a checkpoint) is detected, the network is
   flushed of in-flight stragglers, a replacement leader enclave is
   provisioned on the same platform (deterministic re-election keeps
   leadership with the same GDO — see
   :meth:`~repro.core.federation.Federation.replace_leader_enclave`),
   channels are mutually re-attested, the latest sealed checkpoint is
   restored, and the interrupted phase is re-run;
3. failovers past ``resilience.max_failovers`` abort with a classified
   :class:`~repro.errors.LeaderFailoverError`.

Phase re-runs are safe because each phase is deterministic given the
checkpointed leader state: members recompute identical answers over
fresh (re-attested) channels, and retained-list ingestion is
idempotent.  A completed-then-crashed checkpoint simply re-runs its
phase — same outcome, new checkpoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import (
    EnclaveCrashedError,
    IntegrityError,
    LeaderFailoverError,
    SealingError,
)
from ..obs.tracer import TRACER
from .integrity import classify_violation
from .resilience import FailureReport
from .timing import PhaseClock, PhaseTimings


class ProtocolSupervisor:
    """Runs a protocol's phase steps under checkpoint/failover control."""

    def __init__(self, protocol):
        self._protocol = protocol
        self._federation = protocol.federation
        self._policy = self._federation.config.resilience
        self._monitor = self._federation.integrity_monitor
        self._checkpoint = None
        self._events: List[Dict[str, object]] = []
        #: The classified violation driving the current recovery; raised
        #: instead of a generic budget abort when failovers run out.
        self._pending_violation: Optional[Exception] = None

    # -- execution -----------------------------------------------------------

    def run(self):
        """Execute every phase step, checkpointing and failing over.

        Returns the :class:`~repro.core.phases.StudyResult`; mirrors
        ``GenDPRProtocol._execute`` for the happy path.
        """
        protocol = self._protocol
        timings = PhaseTimings()
        clock = PhaseClock(timings)
        # Sharded phases call back after every completed shard task, so
        # the checkpoint trail has per-task granularity and a failover
        # resumes from the last combine boundary, not the phase start.
        protocol._progress_checkpoint = self._seal_progress
        steps = [("init", None)] + list(protocol.phase_steps())
        try:
            for name, step in steps:
                self._run_step(name, step, clock)
        finally:
            # The hook would otherwise keep a protocol <-> supervisor
            # reference cycle alive past the study.
            protocol._progress_checkpoint = None
        protocol._supervision = self.stats()
        return protocol._build_result(timings)

    def _seal_progress(self) -> None:
        """Seal a mid-step checkpoint at a completed shard-task boundary."""
        self._checkpoint = self._leader_ecall(
            "checkpoint_state", label="checkpoint"
        )
        injector = self._federation.fault_injector
        if injector is not None:
            injector.on_checkpoint(self._checkpoint)

    def _run_step(self, name: str, step, clock: PhaseClock) -> None:
        """Run one phase step to a sealed checkpoint, retrying on crash."""
        leader_ecall = self._leader_ecall
        need_restore = False
        while True:
            try:
                if need_restore:
                    self._failover(name)
                    need_restore = False
                if step is not None:
                    step(clock)
                self._checkpoint = leader_ecall(
                    "checkpoint_state", label="checkpoint"
                )
                injector = self._federation.fault_injector
                if injector is not None:
                    injector.on_checkpoint(self._checkpoint)
                self._pending_violation = None
                return
            except (IntegrityError, SealingError) as exc:
                # A classified Byzantine violation (or a tampered
                # checkpoint failing sealed-restore authentication):
                # quarantine the implicated node and recover through
                # leader replacement — the same machinery as a crash,
                # but the abort error, if the budget runs out, stays
                # classified.  The budget is checked *here*, before
                # deciding to retry: the typed abort must escape this
                # loop, not be re-caught by it.
                self._handle_violation(name, exc)
                if self._federation.failovers >= self._policy.max_failovers:
                    raise
                need_restore = True
            except EnclaveCrashedError:
                if not self._federation.leader_host.enclave.crashed:
                    # A member crash inside a round arrives converted by
                    # the round engine; one outside a round (a member's
                    # echo export) aborts the study as raised.
                    raise
                need_restore = True
                self._events.append({"event": "leader_crash", "step": name})
                if TRACER.enabled:
                    TRACER.event("supervisor.leader_crash", step=name)

    def _leader_ecall(self, name: str, *args, **kwargs):
        # Resolved through the federation each call: after a failover
        # the leader host carries a new guarded proxy.
        return self._federation.leader_host.enclave.ecall(name, *args, **kwargs)

    # -- failover ------------------------------------------------------------

    def _handle_violation(self, step: str, exc: Exception) -> None:
        """Quarantine the implicated node of a detected violation.

        The detection counter was already bumped at the detection site
        (the integrity rounds, or the checkpoint-restore path); this
        records the recovery decision.
        """
        federation = self._federation
        counter = classify_violation(exc)
        implicated = getattr(exc, "peer", "") or federation.leader_id
        self._monitor.quarantine(
            FailureReport(
                study_id=federation.config.study_id,
                member_id=implicated,
                round_kind=step,
                attempts=federation.failovers,
                cause=type(exc).__name__,
                simulated_time_s=federation.network.simulated_time,
                counters=self._monitor.counters(),
            )
        )
        self._pending_violation = exc
        self._events.append(
            {
                "event": "integrity_violation",
                "step": step,
                "error": type(exc).__name__,
                "counter": counter,
                "implicated": implicated,
            }
        )
        if TRACER.enabled:
            TRACER.event(
                "supervisor.integrity_violation",
                step=step,
                error=type(exc).__name__,
                counter=counter,
            )

    def _failover(self, step: str) -> None:
        federation = self._federation
        if federation.failovers >= self._policy.max_failovers:
            if self._pending_violation is not None:
                # The budget is gone while recovering from a classified
                # violation: abort with the violation itself, not a
                # generic failover error, so chaos verdicts stay typed.
                raise self._pending_violation
            raise LeaderFailoverError(
                f"leader of study {federation.config.study_id!r} crashed "
                f"beyond the failover budget "
                f"({self._policy.max_failovers}) during step {step!r}"
            )
        with TRACER.span("supervisor.failover", step=step):
            # Drop everything still in flight from the aborted attempt:
            # inbox stragglers would be junk-filtered anyway, but a
            # clean slate keeps the re-run's traffic legible.
            flushed = 0
            for node_id in federation.network.nodes():
                flushed += federation.network.flush(node_id)
            if federation.fault_injector is not None:
                flushed += federation.fault_injector.reset_in_flight()
            federation.replace_leader_enclave()
            if self._checkpoint is not None:
                blob = self._checkpoint
                if federation.fault_injector is not None:
                    # A Byzantine host controls which sealed blob it
                    # offers for restore; the tamper hook models that.
                    blob = federation.fault_injector.checkpoint_for_restore(
                        blob
                    )
                try:
                    self._leader_ecall(
                        "restore_state", blob, label="failover"
                    )
                except (IntegrityError, SealingError) as exc:
                    # Stale or tampered checkpoint rejected: a detection
                    # in its own right, counted at this site.
                    self._monitor.record_detection(exc)
                    raise
            # Sharded runs: the restored checkpoint may predate the
            # latest tree repair and members may hold tasks the crashed
            # attempt opened — re-align every enclave on one layout.
            self._protocol.resync_after_failover()
            self._events.append(
                {
                    "event": "failover",
                    "step": step,
                    "failover": federation.failovers,
                    "flushed_messages": flushed,
                    "restored": self._checkpoint is not None,
                }
            )
            if TRACER.enabled:
                TRACER.event(
                    "supervisor.failover_complete",
                    step=step,
                    failover=federation.failovers,
                    flushed_messages=flushed,
                )

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "failovers": self._federation.failovers,
            "crashes_handled": sum(
                1 for e in self._events if e["event"] == "leader_crash"
            ),
            "events": [dict(e) for e in self._events],
        }
