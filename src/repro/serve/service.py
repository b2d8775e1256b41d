"""The long-lived federation service.

:class:`FederationService` is the daemon shape of the library: the
federation substrate is provisioned once (per pool slot) and kept warm
— attested channels, enclaves, platforms — while studies arrive over
time.  Each submission becomes a :class:`~repro.serve.session.StudySession`
with isolated protocol state over the shared substrate; a dispatcher
thread admits sessions from a bounded queue under the configured
concurrency and trusted-memory budget, and every session's rounds pass
through the :class:`~repro.serve.scheduler.FairRoundGate`.

Failure isolation: a mid-service enclave crash, leader failover or
Byzantine quarantine terminates only the affected session (classified
by the :mod:`repro.errors` taxonomy, with the slot retired so no queued
study inherits poisoned state) while the service keeps draining the
queue.  Decisions are bit-identical to solo ``run_study`` runs — the
property-equivalence suite enforces it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional

from ..config import ObservabilityConfig, StudyConfig
from ..core.phases import StudyResult
from ..core.provision import ProvisionedFederation
from ..errors import (
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    StudyCancelledError,
    UnknownStudyError,
)
from ..genomics.population import Cohort
from ..net.network import SimulatedNetwork
from ..obs.bridge import record_service
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport, config_fingerprint
from .config import ServiceConfig
from .pool import EnclavePool
from .scheduler import FairRoundGate
from .session import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    TERMINAL_STATES,
    StudySession,
)

#: Dispatcher poll interval (seconds) — a liveness backstop; all state
#: changes also notify the admission condition directly.
_DISPATCH_POLL_SECONDS = 0.05


class FederationService:
    """Accepts, schedules and runs GWAS verification studies.

    Usable as a context manager::

        with FederationService(ServiceConfig(num_members=3)) as service:
            study_id = service.submit(cohort, config)
            result = service.result(study_id, timeout=60)

    The client API is ``submit`` / ``status`` / ``result`` / ``cancel``;
    ``metrics`` exposes the scheduler/queue/pool books and every
    completed session's :class:`~repro.core.phases.StudyResult` carries
    a service-built per-request :class:`~repro.obs.report.RunReport`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        router: Optional[SimulatedNetwork] = None,
    ):
        self._config = config if config is not None else ServiceConfig()
        self._pool = EnclavePool(self._config, router=router)
        self._gate = FairRoundGate(self._config.max_concurrent_rounds)
        #: Guards sessions, the pending queue, counters and shutdown.
        self._admission = threading.Condition()
        self._sessions: Dict[str, StudySession] = {}
        self._pending: Deque[StudySession] = deque()
        self._active = 0
        self._shutdown = False
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "slot_acquisitions": 0,
        }
        self._queue_high_water = 0
        self._workers: List[threading.Thread] = []
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"{self._config.service_id}-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "FederationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def pool(self) -> EnclavePool:
        return self._pool

    # -- client API ------------------------------------------------------------

    def submit(self, cohort: Cohort, config: StudyConfig) -> str:
        """Queue one study; returns its id (``config.study_id``).

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        queue is at capacity — explicit backpressure instead of
        unbounded admission.
        """
        if config.snp_count != cohort.num_snps:
            raise ServiceError(
                f"config covers {config.snp_count} SNPs, cohort has "
                f"{cohort.num_snps}"
            )
        config.collusion.validate_for(self._config.num_members)
        with self._admission:
            if self._shutdown:
                raise ServiceError("the service is shut down")
            if config.study_id in self._sessions:
                raise ServiceError(
                    f"study {config.study_id!r} was already submitted"
                )
            if len(self._pending) >= self._config.queue_limit:
                self._counters["rejected"] += 1
                raise ServiceOverloadedError(
                    f"study {config.study_id!r} rejected: queue at "
                    f"capacity ({self._config.queue_limit} waiting)"
                )
            session = StudySession(config.study_id, cohort, config)
            self._sessions[config.study_id] = session
            self._pending.append(session)
            self._counters["submitted"] += 1
            if len(self._pending) > self._queue_high_water:
                self._queue_high_water = len(self._pending)
            self._admission.notify_all()
        return config.study_id

    def status(self, study_id: str) -> Dict[str, object]:
        """Current lifecycle snapshot of one study."""
        return self._session(study_id).to_dict()

    def result(
        self, study_id: str, timeout: Optional[float] = None
    ) -> StudyResult:
        """Block for a study's outcome.

        Returns the :class:`~repro.core.phases.StudyResult` (its
        ``observability`` field carries the per-request RunReport) for
        a completed study; re-raises the session's classified error for
        a failed or cancelled one.
        """
        session = self._session(study_id)
        if not session.finished.wait(timeout=timeout):
            raise ServiceError(
                f"study {study_id!r} is still {session.status}"
            )
        if session.status == DONE:
            return session.result
        raise session.error

    def cancel(self, study_id: str) -> bool:
        """Cancel a study; returns False if it already finished.

        A queued study is withdrawn immediately; a running one is
        stopped at its next round boundary (the gate raises
        :class:`~repro.errors.StudyCancelledError` there, never
        mid-round).
        """
        session = self._session(study_id)
        with self._admission:
            if session.status in TERMINAL_STATES:
                return False
            if session.status == QUEUED:
                self._pending.remove(session)
                session.error = StudyCancelledError(
                    f"study {study_id!r} cancelled while queued"
                )
                session.mark_finished(CANCELLED)
                self._counters["cancelled"] += 1
                self._admission.notify_all()
                return True
            session.cancel_requested.set()
        self._gate.wake()
        return True

    def metrics(self) -> Dict[str, object]:
        """Scheduler / queue / pool books (the soak-job artifact)."""
        with self._admission:
            stats: Dict[str, object] = dict(self._counters)
            stats["queue_depth"] = len(self._pending)
            stats["queue_depth_high_water"] = self._queue_high_water
            stats["active_sessions"] = self._active
            finished = [
                session
                for session in self._sessions.values()
                if session.status in TERMINAL_STATES
            ]
        stats["wait_seconds"] = sum(s.wait_seconds for s in finished)
        stats["run_seconds"] = sum(s.run_seconds for s in finished)
        stats.update(self._gate.stats())
        pool_stats = self._pool.stats()
        stats.update(pool_stats)
        acquisitions = stats["slot_acquisitions"]
        stats["warm_hit_rate"] = (
            pool_stats["warm_hits"] / acquisitions if acquisitions else 0.0
        )
        return stats

    def metrics_registry(self) -> MetricsRegistry:
        """The aggregate books as ``serve.*`` metrics."""
        registry = MetricsRegistry()
        record_service(registry, self.metrics())
        return registry

    def close(self, wait: bool = True) -> None:
        """Stop admitting, cancel queued studies, drain running ones."""
        with self._admission:
            if self._shutdown:
                self._admission.notify_all()
            self._shutdown = True
            while self._pending:
                session = self._pending.popleft()
                session.error = StudyCancelledError(
                    f"study {session.study_id!r} cancelled: service "
                    f"shutting down"
                )
                session.mark_finished(CANCELLED)
                self._counters["cancelled"] += 1
            self._admission.notify_all()
        self._gate.wake()
        if wait:
            self._dispatcher.join()
            for worker in list(self._workers):
                worker.join()
        self._pool.close()

    # -- internals --------------------------------------------------------------

    def _session(self, study_id: str) -> StudySession:
        with self._admission:
            session = self._sessions.get(study_id)
        if session is None:
            raise UnknownStudyError(
                f"study {study_id!r} was never accepted by this service"
            )
        return session

    def _study_memory_estimate(self, session: StudySession) -> int:
        """Bytes of trusted memory a study will seal (case + reference)."""
        cohort = session.cohort
        individuals = (
            cohort.case.num_individuals + cohort.reference.num_individuals
        )
        return individuals * cohort.num_snps

    def _within_memory_budget(self, session: StudySession) -> bool:
        """Admission check against the pool-wide trusted-memory meter.

        Uses live :class:`~repro.tee.resources.ResourceMeter` readings
        (which include buffers still sealed from earlier studies on
        warm slots) plus the candidate's dataset estimate.  With no
        session active the check always passes, so an undersized budget
        throttles concurrency to one instead of wedging the queue.
        """
        budget = self._config.enclave_memory_budget_bytes
        if not budget:
            return True
        if self._active == 0:
            return True
        projected = (
            self._pool.current_memory_bytes()
            + self._study_memory_estimate(session)
        )
        return projected <= budget

    def _dispatch_loop(self) -> None:
        while True:
            with self._admission:
                while not self._shutdown:
                    if (
                        self._pending
                        and self._active < self._config.max_active
                        and self._within_memory_budget(self._pending[0])
                    ):
                        break
                    self._admission.wait(timeout=_DISPATCH_POLL_SECONDS)
                if self._shutdown:
                    return
                session = self._pending.popleft()
                self._active += 1
                self._counters["slot_acquisitions"] += 1
            worker = threading.Thread(
                target=self._run_session,
                args=(session,),
                name=f"{self._config.service_id}-{session.study_id}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()

    def _run_session(self, session: StudySession) -> None:
        try:
            slot = self._pool.acquire()
        except ServiceError as exc:
            session.error = exc
            with self._admission:
                session.mark_finished(FAILED)
                self._counters["failed"] += 1
                self._active -= 1
                self._admission.notify_all()
            return
        session.slot_namespace = slot.namespace
        session.warm = slot.studies_served > 0
        session.mark_running()
        healthy = True
        outcome = FAILED
        try:
            # The global tracer cannot serve concurrent sessions, so the
            # service runs each study untraced and builds the
            # per-request RunReport itself.
            run_config = replace(
                session.config, observability=ObservabilityConfig.off()
            )
            with ProvisionedFederation(
                session.cohort,
                run_config,
                self._config.num_members,
                substrate=slot.substrate,
            ) as provisioned:
                provisioned.protocol.install_round_gate(
                    self._gate.session_gate(session)
                )
                result = provisioned.run()
                federation = provisioned.federation
                if (
                    federation.failovers
                    or federation.member_restorations
                    or federation.integrity_monitor.quarantined()
                ):
                    # The study recovered (through leader failover or a
                    # shard tree repair replacing a member enclave) or
                    # flagged a member — the substrate is no longer the
                    # pristine mesh the pool provisioned, so retire it.
                    healthy = False
            result.observability = self._session_report(session, result)
            session.result = result
            session.report = result.observability
            outcome = DONE
        except StudyCancelledError as exc:
            session.error = exc
            # Rounds complete atomically, but frames for the *next*
            # round are sealed (advancing channel sequence numbers)
            # before the exchange hits the gate — a cancelled session
            # can strand asymmetric channel state, so its slot is
            # retired rather than kept warm.
            healthy = False
            outcome = CANCELLED
        except ReproError as exc:
            session.error = exc
            healthy = False
            outcome = FAILED
        except Exception as exc:  # noqa: BLE001 - isolate the session
            session.error = exc
            healthy = False
            outcome = FAILED
        finally:
            self._pool.release(slot, healthy=healthy)
            with self._admission:
                session.mark_finished(outcome)
                key = {
                    DONE: "completed",
                    FAILED: "failed",
                    CANCELLED: "cancelled",
                }[outcome]
                self._counters[key] += 1
                self._active -= 1
                self._admission.notify_all()

    def _session_report(
        self, session: StudySession, result: StudyResult
    ) -> RunReport:
        """Per-request RunReport from the service's own books."""
        registry = MetricsRegistry()
        record_service(
            registry,
            {
                "wait_seconds": session.wait_seconds,
                "run_seconds": session.run_seconds,
                "round_wait_seconds": session.round_wait_seconds,
                "rounds_gated": session.rounds,
                "warm_hit": 1 if session.warm else 0,
            },
        )
        meta = {
            "service_id": self._config.service_id,
            "slot": session.slot_namespace,
            "warm": session.warm,
            "leader_id": result.leader_id,
            "num_members": result.num_members,
            "l_safe": len(result.l_safe),
        }
        if session.config.sharding.enabled:
            # Sharded submissions surface their execution plan in the
            # per-request report, mirroring the protocol's own meta.
            registry.gauge("shard.ranges").set(
                session.config.sharding.num_shards
            )
            meta["sharding"] = {
                "num_shards": session.config.sharding.num_shards
            }
        return RunReport(
            study_id=session.study_id,
            config_fingerprint=config_fingerprint(session.config),
            spans=[],
            metrics=registry.as_dict(),
            meta=meta,
        )
