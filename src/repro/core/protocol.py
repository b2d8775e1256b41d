"""GenDPR protocol orchestration.

:class:`GenDPRProtocol` drives one study across a provisioned
federation: it invokes the leader enclave's phase ECALLs, supplies the
OCALL through which the leader exchanges encrypted frames with member
enclaves, and assembles the :class:`~repro.core.phases.StudyResult`.

Everything that *decides* happens inside the trusted module
(:mod:`repro.core.enclave_logic`); this orchestrator is part of the
untrusted middleware and only ever touches ciphertext frames, timing
and accounting.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..config import StudyConfig
from ..errors import (
    AuthenticationError,
    EnclaveCrashedError,
    EquivocationError,
    IntegrityError,
    MemberUnresponsiveError,
    NetworkError,
    PhaseOrderError,
    ProtocolError,
    SerializationError,
)
from ..genomics.population import Cohort
from ..net import Envelope, SimulatedNetwork
from ..obs import MetricsRegistry, RunReport, SpanCollector, config_fingerprint
from ..obs.bridge import (
    record_cache_stats,
    record_faults,
    record_integrity,
    record_network,
    record_resilience,
    record_resources,
    record_rounds,
    record_shard,
    record_spans,
    record_timings,
)
from ..obs.tracer import TRACER
from .federation import Federation
from .phases import CollusionReport, CombinationOutcome, StudyResult
from .shard import aggregation_tree, plan_shards
from .timing import (
    DATA_AGGREGATION,
    INDEXING,
    LD_ANALYSIS,
    LR_ANALYSIS,
    PhaseClock,
    PhaseTimings,
    RoundAccounting,
)


class GenDPRProtocol:
    """Runs one GenDPR study over a federation."""

    def __init__(self, federation: Federation):
        self._federation = federation
        self._accounting = RoundAccounting()
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Phase outputs (l_prime / l_double_prime / l_safe); repopulated
        #: deterministically if the supervisor re-runs a phase.
        self._outputs: Dict[str, list] = {}
        #: Stats registered by a supervising ProtocolSupervisor, if any.
        self._supervision: Optional[Dict[str, object]] = None
        #: Lazily derived (ShardPlan, AggregationTree) for sharded runs.
        self._shard_layout = None
        #: Tree-repair generation the orchestrator is driving; bumped by
        #: ``_repair_tree`` and re-broadcast after a leader failover.
        self._shard_epoch = 0
        #: Member replacements spent against ``resilience.max_repairs``.
        self._shard_repairs = 0
        #: Repair/retry accounting for the observability bridge.
        self._shard_runtime: Dict[str, int] = {
            "repairs": 0,
            "tasks_rerun": 0,
            "level_retries": 0,
            "partials_redelivered": 0,
            "verify_runs": 0,
        }
        #: Mid-phase checkpoint hook installed by the supervisor; called
        #: after every completed shard task so a failover resumes from
        #: the last combine boundary instead of the phase start.
        self._progress_checkpoint = None
        self._resilient = None
        #: Optional per-round hook installed by the serving layer:
        #: ``gate(kind)`` returns a context manager entered around every
        #: OCALL round (fair scheduling + cancellation points).
        self._round_gate = None
        if federation.config.resilience.enabled:
            from .resilience import ResilientExchange

            self._resilient = ResilientExchange(self)
        self._integrity = federation.config.integrity.enabled

    @property
    def _exchange(self):
        """The round exchange the leader's ECALLs call back into.

        Resolved per access, not stored: a bound method kept on ``self``
        makes the protocol a reference cycle, and a finished study's
        whole federation then waits for the cyclic garbage collector
        instead of being freed when the study returns.
        """
        if self._resilient is not None:
            return self._resilient
        return self._ocall_exchange

    def shard_repair_accounting(self) -> Dict[str, int]:
        """Tree-repair/retry counters of this run (empty when unsharded).

        The same numbers ``record_shard`` bridges into ``shard.repair.*``
        metrics for RunReports; exposed so the fuzz oracle can key
        behaviours on repair activity without enabling span tracing.
        """
        if not self._federation.config.sharding.enabled:
            return {}
        return dict(self._shard_runtime, epoch=self._shard_epoch)

    def install_round_gate(self, gate) -> None:
        """Install a round gate: ``gate(kind)`` -> context manager.

        The gate is entered around every OCALL round on both the plain
        and the resilient exchange path.  The service scheduler uses it
        for fair round-interleaving across concurrent studies and as
        the cancellation point (it raises
        :class:`~repro.errors.StudyCancelledError` at a round boundary,
        never mid-round).
        """
        self._round_gate = gate

    @property
    def round_gate(self):
        return self._round_gate

    @property
    def federation(self) -> Federation:
        return self._federation

    # -- OCALL ---------------------------------------------------------------

    def _ocall_exchange(self, kind: str, frames: Dict[str, bytes]) -> Dict[str, bytes]:
        """Route leader frames to members and collect their answers.

        Per-member enclave compute time is recorded so the phase clock
        can apply the parallel-round correction (members run on separate
        servers in a real deployment).  With
        ``config.execution.mode == "parallel"`` the members of a round
        are serviced concurrently on a thread pool; both modes produce
        bit-identical responses (and therefore study outcomes) — only
        the wall clock differs.
        """
        if self._round_gate is not None:
            with self._round_gate(kind):
                return self._run_ocall_round(kind, frames)
        return self._run_ocall_round(kind, frames)

    def _run_ocall_round(
        self, kind: str, frames: Dict[str, bytes]
    ) -> Dict[str, bytes]:
        if self._federation.leader_id in frames:
            raise ProtocolError("leader cannot ocall itself")
        injector = self._federation.fault_injector
        if injector is not None:
            # Advance the fault plan's round counter even on the plain
            # path, so partition windows fire identically whether or not
            # the resilient exchange is in front of them.
            injector.begin_round(kind)
        execution = self._federation.config.execution
        if execution.is_parallel and len(frames) > 1:
            return self._exchange_parallel(kind, frames)
        return self._exchange_sequential(kind, frames)

    def _exchange_sequential(
        self, kind: str, frames: Dict[str, bytes]
    ) -> Dict[str, bytes]:
        federation = self._federation
        network = federation.network
        leader_id = federation.leader_id
        responses: Dict[str, bytes] = {}
        member_times: Dict[str, float] = {}
        with TRACER.span("round", kind=kind, members=len(frames)):
            for member_id, frame in frames.items():
                network.send(
                    Envelope(
                        sender=leader_id, receiver=member_id, tag=kind, body=frame
                    )
                )
                inbound = network.receive(member_id, kind)
                begin = time.perf_counter()
                reply = federation.hosts[member_id].handle_envelope(inbound)
                member_times[member_id] = time.perf_counter() - begin
                if reply is not None:
                    network.send(reply)
                    responses[member_id] = network.receive(leader_id, kind).body
        self._accounting.record_round(member_times, kind=kind)
        return responses

    def _exchange_parallel(
        self, kind: str, frames: Dict[str, bytes]
    ) -> Dict[str, bytes]:
        """Concurrent fan-out: one worker services one member per round.

        Requests were already built (and AEAD-protected) sequentially by
        the leader enclave, so per-channel sequence numbers are
        deterministic; each worker touches only its own member's host,
        channel and inbox.  Replies land in the leader inbox in arrival
        order, so they are drained keyed by sender and re-ordered to the
        request order before returning — the response dict is
        byte-identical to the sequential path's.
        """
        federation = self._federation
        network = federation.network
        leader_id = federation.leader_id
        member_times: Dict[str, float] = {}
        with TRACER.span("round", kind=kind, members=len(frames), concurrent=True):
            parent = TRACER.current_span_id() if TRACER.enabled else None

            def service(member_id: str, frame: bytes) -> Tuple[float, bool]:
                with TRACER.propagated(parent):
                    network.send(
                        Envelope(
                            sender=leader_id,
                            receiver=member_id,
                            tag=kind,
                            body=frame,
                        )
                    )
                    inbound = network.receive(member_id, kind)
                    # thread_time, not perf_counter: wall time on a
                    # worker includes slices where sibling threads were
                    # scheduled, which would inflate this member's
                    # modelled compute; CPU time of the worker thread is
                    # what the member's own server would spend.
                    begin = time.thread_time()
                    reply = federation.hosts[member_id].handle_envelope(inbound)
                    elapsed = time.thread_time() - begin
                    if reply is not None:
                        network.send(reply)
                    return elapsed, reply is not None

            executor = self._ensure_executor()
            wall_begin = time.perf_counter()
            futures = {
                member_id: executor.submit(service, member_id, frame)
                for member_id, frame in frames.items()
            }
            replies_expected = 0
            for member_id, future in futures.items():
                elapsed, replied = future.result()
                member_times[member_id] = elapsed
                replies_expected += 1 if replied else 0
            wall = time.perf_counter() - wall_begin
            arrived: Dict[str, bytes] = {}
            for _ in range(replies_expected):
                envelope = network.receive(leader_id, kind)
                arrived[envelope.sender] = envelope.body
        self._accounting.record_round(
            member_times, kind=kind, wall_seconds=wall, concurrent=True
        )
        # Deterministic response order: request order, not arrival order.
        return {
            member_id: arrived[member_id]
            for member_id in frames
            if member_id in arrived
        }

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            execution = self._federation.config.execution
            width = max(1, len(self._federation.hosts) - 1)
            self._executor = ThreadPoolExecutor(
                max_workers=execution.max_workers or width,
                thread_name_prefix="ocall",
            )
        return self._executor

    def close(self) -> None:
        """Release the fan-out thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- Study execution ---------------------------------------------------------

    def run(self) -> StudyResult:
        """Execute the study; trace it when observability is enabled.

        With ``config.observability.enabled`` the whole run executes
        under an activated span collector and the result carries a
        :class:`~repro.obs.RunReport` (spans + metrics + config
        fingerprint).  Disabled (the default), the instrumented code
        paths only touch the null sink.
        """
        federation = self._federation
        obs_config = federation.config.observability
        try:
            if not obs_config.enabled:
                return self._execute_study()
            if TRACER.enabled:
                # A caller (run_study, or a user-held scope) already
                # activated a collector — e.g. so that federation
                # provisioning and leader election are part of the trace.
                # Join it instead of nesting a second one.
                collector = TRACER.collector
                result = self._traced_execute()
            else:
                collector = SpanCollector(max_spans=obs_config.max_spans)
                with TRACER.activated(
                    collector, capture_messages=obs_config.capture_messages
                ):
                    result = self._traced_execute()
            result.observability = self._build_report(result, collector)
            return result
        finally:
            self.close()

    def _traced_execute(self) -> StudyResult:
        federation = self._federation
        with TRACER.span(
            "study",
            study_id=federation.config.study_id,
            leader=federation.leader_id,
            members=len(federation.hosts),
        ):
            return self._execute_study()

    def _build_report(
        self, result: StudyResult, collector: SpanCollector
    ) -> RunReport:
        """Bundle spans + bridged metrics into one RunReport."""
        federation = self._federation
        registry = MetricsRegistry()
        spans = collector.spans()
        record_timings(registry, result.timings)
        record_network(registry, federation.network)
        record_resources(registry, federation.resource_reports())
        record_rounds(registry, self._accounting)
        record_cache_stats(
            registry,
            federation.leader_host.enclave.ecall(
                "lead_exchange_stats", label="report"
            ),
        )
        if federation.config.sharding.enabled:
            plan, tree = self._shard_structures()
            record_shard(
                registry,
                plan,
                tree,
                {
                    gdo: host.enclave.ecall("shard_stats", label="report")
                    for gdo, host in federation.hosts.items()
                },
                repair=dict(self._shard_runtime, epoch=self._shard_epoch),
            )
        if federation.fault_injector is not None:
            record_faults(registry, federation.fault_injector.counters())
        if self._resilient is not None:
            record_resilience(
                registry, self._resilient.stats(), self._supervision
            )
        monitor = federation.integrity_monitor
        if self._integrity or monitor.detections or monitor.quarantined():
            record_integrity(registry, monitor.counters())
        record_spans(registry, spans)
        meta = {
            "leader_id": result.leader_id,
            "num_members": result.num_members,
            "l_des": result.l_des,
            "l_safe": len(result.l_safe),
            "spans_dropped": getattr(collector, "dropped", 0),
        }
        if federation.config.sharding.enabled:
            plan, _tree = self._shard_structures()
            config = federation.config
            meta["sharding"] = {
                "num_shards": plan.num_shards,
                # The fingerprint-committed epoch-0 layout, always.
                "plan_digest": plan_shards(
                    config.snp_count,
                    config.sharding.num_shards,
                    federation.member_ids,
                ).digest(),
            }
            if self._shard_epoch:
                # Tree repair happened: record the repaired layout's
                # digest alongside the original.
                meta["sharding"]["repair"] = {
                    "epoch": self._shard_epoch,
                    "repairs": self._shard_runtime["repairs"],
                    "plan_digest": plan.digest(),
                }
        quarantined = monitor.quarantined()
        if quarantined:
            meta["quarantined"] = [report.to_dict() for report in quarantined]
        return RunReport(
            study_id=result.study_id,
            config_fingerprint=config_fingerprint(federation.config),
            spans=spans,
            metrics=registry.as_dict(),
            meta=meta,
        )

    def _execute_study(self) -> StudyResult:
        """Dispatch to plain or supervised execution per the config."""
        if self._federation.config.resilience.enabled:
            from .supervisor import ProtocolSupervisor

            return ProtocolSupervisor(self).run()
        return self._execute()

    def _execute(self) -> StudyResult:
        """Execute the three verification phases and build the result."""
        timings = PhaseTimings()
        clock = PhaseClock(timings)
        for _name, step in self.phase_steps():
            step(clock)
        return self._build_result(timings)

    # -- phase steps -------------------------------------------------------------
    #
    # One study = these steps in order.  They are separate (and look up
    # the leader host through the federation on every call) so the
    # protocol supervisor can checkpoint between steps and re-run the
    # interrupted one against a replacement leader enclave after a
    # failover.  Outputs land in ``self._outputs``; re-running a step is
    # deterministic, so a re-run overwrites them with identical values.

    def phase_steps(self):
        """Ordered (name, callable(clock)) steps of one study.

        Sharded runs swap the flat summary collection for per-shard tree
        aggregation and insert a moment-aggregation step before the LD
        walk; every other step (and every decision) is identical, which
        is what the shard-equivalence tests pin down.
        """
        if self._federation.config.sharding.enabled:
            return (
                ("summaries", self._phase_summaries_sharded),
                ("maf", self._phase_maf),
                ("ld-moments", self._phase_shard_moments),
                ("ld", self._phase_ld),
                ("lr", self._phase_lr),
            )
        return (
            ("summaries", self._phase_summaries),
            ("maf", self._phase_maf),
            ("ld", self._phase_ld),
            ("lr", self._phase_lr),
        )

    def _leader_stores(self):
        leader_host = self._federation.leader_host
        if leader_host.store is None or leader_host.reference_store is None:
            raise ProtocolError("leader is missing its sealed datasets")
        return leader_host.store, leader_host.reference_store

    def _phase_summaries(self, clock: PhaseClock) -> None:
        store, ref_store = self._leader_stores()
        with clock.task(DATA_AGGREGATION, self._accounting):
            self._federation.leader_host.enclave.ecall(
                "lead_collect_summaries",
                store,
                ref_store,
                self._exchange,
                label="summaries",
            )
            self._verify_integrity("summaries", echo=False)

    # -- sharded tree aggregation --------------------------------------------
    #
    # The orchestrator only *schedules* shard work: it derives the same
    # plan and combine tree every enclave derived from the attested
    # study parameters and drives the rounds — which child emits toward
    # which parent, when.  Every frame it routes is AEAD-protected
    # between the two enclaves, and each enclave independently validates
    # the schedule against its own locally derived tree, so a Byzantine
    # orchestrator can stall progress but not redirect aggregation.

    def _shard_structures(self):
        if self._shard_layout is None:
            federation = self._federation
            config = federation.config
            self._shard_layout = (
                plan_shards(
                    config.snp_count,
                    config.sharding.num_shards,
                    federation.member_ids,
                    epoch=self._shard_epoch,
                ),
                aggregation_tree(
                    federation.member_ids,
                    federation.leader_id,
                    epoch=self._shard_epoch,
                ),
            )
        return self._shard_layout

    def invalidate_shard_layout(self) -> None:
        """Drop the cached (plan, tree) pair; next use re-derives it.

        Called whenever anything feeding the layout changes — a tree
        repair bumping the epoch, a failover resynchronising state — so
        the orchestrator can never schedule against a stale cache.
        """
        self._shard_layout = None

    def resync_after_failover(self) -> None:
        """Re-align every enclave's shard state after a leader failover.

        The restored checkpoint may predate the latest tree repair, and
        surviving members may still hold shard tasks the crashed leader
        attempt opened; re-broadcasting the orchestrator-tracked epoch
        drops every open task and puts all enclaves back on one layout.
        No-op for unsharded studies.
        """
        if not self._federation.config.sharding.enabled:
            return
        self._broadcast_shard_repair()
        self.invalidate_shard_layout()

    def _phase_summaries_sharded(self, clock: PhaseClock) -> None:
        """Member sizes flat, count vectors per shard through the tree."""
        store, ref_store = self._leader_stores()
        leader = self._federation.leader_host.enclave
        with clock.task(DATA_AGGREGATION, self._accounting):
            leader.ecall(
                "lead_collect_sizes",
                store,
                ref_store,
                self._exchange,
                label="summaries",
            )
            done = self._completed_shards("counts")
            plan, _tree = self._shard_structures()
            for shard in plan.ranges:
                if shard.index in done:
                    continue
                self._run_shard_task("counts", shard.index)
                self._note_task_boundary()
            self._verify_integrity("summaries", echo=False)

    def _phase_shard_moments(self, clock: PhaseClock) -> None:
        """Aggregate the LD pair-moment union per shard through the tree.

        After this step every pooled pair moment the LD walks need is
        already installed per combination, so ``lead_run_ld``'s own
        prefetch finds everything cached and the walks issue no flat
        member rounds (outside rare lookahead misses).
        """
        with clock.task(LD_ANALYSIS, self._accounting):
            done = self._completed_shards("moments")
            plan, _tree = self._shard_structures()
            for shard in plan.ranges:
                if shard.index in done:
                    continue
                self._run_shard_task("moments", shard.index)
                self._note_task_boundary()

    def _completed_shards(self, kind: str) -> set:
        """Shard indices whose ``kind`` task already folded (resume).

        Only consulted on the supervised path: a failover restored the
        leader from a mid-phase checkpoint, and the re-run phase must
        skip every task completed before the crash.  The plain path
        always starts phases from scratch, so no progress ECALL is
        issued and its ECALL sequence stays byte-identical.
        """
        if self._resilient is None:
            return set()
        progress = self._federation.leader_host.enclave.ecall(
            "shard_progress", label="shard"
        )
        key = "counts_done" if kind == "counts" else "moments_done"
        return {int(s) for s in progress[key]}

    def _note_task_boundary(self) -> None:
        """Mid-phase checkpoint hook: one completed shard task."""
        if self._progress_checkpoint is not None:
            self._progress_checkpoint()

    def _run_shard_task(self, kind: str, shard_index: int) -> None:
        """Run one shard task end-to-end, repairing the tree on failure.

        The plain path is a single open → combine → finish pass.  Under
        resilience, a member-enclave crash or an exhausted delivery
        budget mid-round triggers *tree repair*: the member's enclave is
        replaced on its platform, the repair epoch is bumped (rotating
        the deterministic plan/tree), every enclave adopts the new
        layout, and the task re-runs from leaf partials.  With the
        integrity layer active, every finished task is re-run in verify
        mode; a node whose leaf commitment differs between the two runs
        equivocated and is quarantined, replaced with a fresh attested
        module, and repaired around.  Budget exhaustion re-raises the
        triggering error — a classified abort, never a silent
        continuation.
        """
        if self._resilient is None:
            self._shard_task_once(kind, shard_index)
            return
        federation = self._federation
        leader_id = federation.leader_id
        first = True
        while True:
            if not first:
                self._shard_runtime["tasks_rerun"] += 1
            first = False
            try:
                opened = self._shard_task_once(kind, shard_index)
                if opened and self._integrity:
                    self._shard_runtime["verify_runs"] += 1
                    self._shard_task_once(kind, shard_index, verify=True)
                return
            except MemberUnresponsiveError as exc:
                member = exc.report.member_id if exc.report else ""
                if not member or member == leader_id:
                    raise
                self._repair_tree(member, reinstall_adversary=True, cause=exc)
            except EquivocationError as exc:
                federation.integrity_monitor.record_detection(exc)
                if not exc.peer or exc.peer == leader_id:
                    # Unattributed (or leader-implicating) divergence:
                    # surface it to the supervisor, whose rollback to
                    # the last task boundary discards the suspect fold.
                    raise
                self._quarantine_shard_node(exc)
                self._repair_tree(
                    exc.peer, reinstall_adversary=False, cause=exc
                )

    def _shard_task_once(
        self, kind: str, shard_index: int, *, verify: bool = False
    ) -> bool:
        """One open → tree combine → finish pass of a shard task.

        Returns whether a task was opened (moments shards owning no LD
        pairs are skipped).  ``verify`` marks the integrity layer's
        re-run: the leader compares instead of folding.
        """
        store, ref_store = self._leader_stores()
        leader = self._federation.leader_host.enclave
        task_id = leader.ecall(
            "lead_open_shard_task",
            kind,
            shard_index,
            self._exchange,
            label="shard",
        )
        if task_id is None:
            return False
        self._tree_combine(task_id, f"shard:{kind}", verify=verify)
        leader.ecall(
            "lead_finish_shard_task",
            store,
            ref_store,
            task_id,
            verify,
            label="shard",
        )
        return True

    # -- tree repair ---------------------------------------------------------

    def _spend_repair(self, cause: Exception) -> None:
        """Charge one member replacement against the repair budget."""
        policy = self._federation.config.resilience
        if self._shard_repairs >= policy.max_repairs:
            raise cause
        self._shard_repairs += 1
        self._shard_runtime["repairs"] += 1

    def _repair_tree(
        self, member_id: str, *, reinstall_adversary: bool, cause: Exception
    ) -> None:
        """Replace ``member_id``'s enclave and re-shape the combine tree.

        The replacement runs on the same platform (same sealing key, so
        the host-held sealed dataset store stays readable) and the
        epoch bump deterministically rotates shard ownership and the
        tree interior, so the repaired layout's digest is recordable
        alongside the original.  ``reinstall_adversary`` distinguishes a
        crash (the platform stays compromised) from a quarantine (a
        fresh attested module is honest).
        """
        federation = self._federation
        self._spend_repair(cause)
        with TRACER.span(
            "shard.repair", member=member_id, epoch=self._shard_epoch + 1
        ):
            flushed = 0
            for node_id in federation.network.nodes():
                flushed += federation.network.flush(node_id)
            if federation.fault_injector is not None:
                flushed += federation.fault_injector.reset_in_flight()
            federation.replace_member_enclave(
                member_id, reinstall_adversary=reinstall_adversary
            )
            self._shard_epoch += 1
            self.invalidate_shard_layout()
            self._broadcast_shard_repair()
            if TRACER.enabled:
                TRACER.event(
                    "shard.repair_complete",
                    member=member_id,
                    epoch=self._shard_epoch,
                    flushed_messages=flushed,
                    cause=type(cause).__name__,
                )

    def _broadcast_shard_repair(self) -> None:
        """Put every enclave on the orchestrator-tracked repair epoch.

        A member whose crash point fires during this very broadcast is
        replaced (charged against the repair budget) and told again —
        otherwise a single unlucky crash would strand the federation on
        mixed epochs.
        """
        federation = self._federation
        leader_id = federation.leader_id
        for node_id in list(federation.hosts):
            while True:
                try:
                    federation.hosts[node_id].enclave.ecall(
                        "shard_repair", self._shard_epoch, label="repair"
                    )
                    break
                except EnclaveCrashedError as exc:
                    if node_id == leader_id or self._resilient is None:
                        raise
                    self._spend_repair(
                        self._shard_unresponsive(
                            node_id, "shard:repair", 0, "enclave_crashed"
                        )
                    )
                    federation.replace_member_enclave(
                        node_id, reinstall_adversary=True
                    )

    def _quarantine_shard_node(self, exc: EquivocationError) -> None:
        """Record the quarantine decision for an equivocating tree node."""
        from .resilience import FailureReport

        federation = self._federation
        federation.integrity_monitor.quarantine(
            FailureReport(
                study_id=federation.config.study_id,
                member_id=exc.peer,
                round_kind=exc.stage or "shard",
                attempts=self._shard_repairs,
                cause=type(exc).__name__,
                simulated_time_s=federation.network.simulated_time,
                counters=federation.integrity_monitor.counters(),
            )
        )
        if TRACER.enabled:
            TRACER.event(
                "shard.equivocation_quarantine",
                member=exc.peer,
                stage=exc.stage,
            )

    def _shard_unresponsive(
        self, member_id: str, kind: str, attempts: int, cause: str
    ) -> MemberUnresponsiveError:
        """A combine-round failure as a classified, attributed error."""
        from .resilience import FailureReport

        federation = self._federation
        counters: Dict[str, int] = dict(self._shard_runtime)
        injector = federation.fault_injector
        if injector is not None:
            counters.update(
                {f"fault_{k}": v for k, v in injector.counters().items()}
            )
        return MemberUnresponsiveError(
            f"member {member_id!r} lost during {kind!r} ({cause})",
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

    # -- tree combine --------------------------------------------------------

    def _tree_combine(
        self, task_id: str, kind: str, verify: bool = False
    ) -> None:
        """Drive one task's pairwise combine rounds, deepest level first."""
        _plan, tree = self._shard_structures()
        for edges in tree.levels():
            if self._round_gate is not None:
                with self._round_gate(kind):
                    self._combine_level(task_id, kind, edges, verify)
            else:
                self._combine_level(task_id, kind, edges, verify)

    def _combine_level(
        self, task_id: str, kind: str, edges, verify: bool = False
    ) -> None:
        """One tree level: every child emits its partial to its parent.

        Edges of a level touch distinct children, so parallel execution
        fans the emits out like an OCALL round; deliveries stay
        sequential in edge order (partial ingestion is int64 addition —
        commutative — so arrival grouping cannot change the sums).
        Under resilience the level runs through the retrying variant;
        this zero-overhead fast path stays byte-identical otherwise.
        """
        if self._resilient is not None:
            self._combine_level_resilient(task_id, kind, edges, verify)
            return
        federation = self._federation
        network = federation.network
        injector = federation.fault_injector
        if injector is not None:
            injector.begin_round(kind)
        execution = federation.config.execution
        parallel = execution.is_parallel and len(edges) > 1
        member_times: Dict[str, float] = {}
        with TRACER.span(
            "shard-level", kind=kind, edges=len(edges), task=task_id
        ):

            def emit(child: str, parent: str) -> float:
                host = federation.hosts[child]
                timer = time.thread_time if parallel else time.perf_counter
                begin = timer()
                frame = host.enclave.ecall(
                    "shard_emit_partial",
                    host.store,
                    task_id,
                    parent,
                    label="shard",
                )["frame"]
                elapsed = timer() - begin
                network.send(
                    Envelope(
                        sender=child, receiver=parent, tag="shard", body=frame
                    )
                )
                return elapsed

            wall_begin = time.perf_counter()
            if parallel:
                executor = self._ensure_executor()
                futures = {
                    child: executor.submit(emit, child, parent)
                    for child, parent in edges
                }
                for child, future in futures.items():
                    member_times[child] = future.result()
            else:
                for child, parent in edges:
                    member_times[child] = emit(child, parent)
            wall = time.perf_counter() - wall_begin
            for child, parent in edges:
                inbound = network.receive(parent, "shard")
                begin = time.perf_counter()
                federation.hosts[parent].handle_envelope(inbound)
                member_times[parent] = member_times.get(parent, 0.0) + (
                    time.perf_counter() - begin
                )
        if parallel:
            self._accounting.record_round(
                member_times, kind=kind, wall_seconds=wall, concurrent=True
            )
        else:
            self._accounting.record_round(member_times, kind=kind)

    def _combine_level_resilient(
        self, task_id: str, kind: str, edges, verify: bool
    ) -> None:
        """One tree level under :class:`ResilientExchange` semantics.

        Emissions run sequentially in edge order (each delivery's retry
        pump owns its parent's inbox while the edge is in flight).  The
        partial frame is AEAD-protected once by the child enclave;
        retries re-ship the identical bytes and the parent side filters
        its inbox by the expected frame hash, handing each unique frame
        to the enclave exactly once — so drop, duplicate, delay and
        corrupt faults on combine edges are masked without ever tripping
        channel replay protection.  With the integrity layer active,
        every emission's signed leaf commitment is forwarded to the
        leader's ledger (compared on the verify re-run).
        """
        federation = self._federation
        injector = federation.fault_injector
        if injector is not None:
            injector.begin_round(kind)
        member_times: Dict[str, float] = {}
        with TRACER.span(
            "shard-level",
            kind=kind,
            edges=len(edges),
            task=task_id,
            resilient=True,
        ):
            for child, parent in edges:
                host = federation.hosts[child]
                begin = time.perf_counter()
                try:
                    emitted = host.enclave.ecall(
                        "shard_emit_partial",
                        host.store,
                        task_id,
                        parent,
                        label="shard",
                    )
                except EnclaveCrashedError as exc:
                    raise self._shard_unresponsive(
                        child, kind, 0, "enclave_crashed"
                    ) from exc
                member_times[child] = member_times.get(child, 0.0) + (
                    time.perf_counter() - begin
                )
                if self._integrity:
                    federation.leader_host.enclave.ecall(
                        "lead_ingest_shard_commitment",
                        emitted["commitment"],
                        emitted["sig"],
                        verify,
                        label="integrity",
                    )
                self._deliver_partial(
                    kind, child, parent, emitted["frame"], member_times
                )
        self._accounting.record_round(member_times, kind=kind)

    def _deliver_partial(
        self,
        kind: str,
        child: str,
        parent: str,
        frame: bytes,
        member_times: Dict[str, float],
    ) -> None:
        """Ship one combine frame with bounded retry and hash dedup."""
        federation = self._federation
        network = federation.network
        policy = federation.config.resilience
        expected = hashlib.sha256(frame).digest()
        attempts = 0
        while True:
            attempts += 1
            try:
                network.send(
                    Envelope(
                        sender=child, receiver=parent, tag="shard", body=frame
                    )
                )
            except NetworkError:
                pass  # partitioned; the bounded retry below rides it out
            while network.pending(parent):
                envelope = network.receive(parent)
                if (
                    envelope.tag != "shard"
                    or hashlib.sha256(envelope.body).digest() != expected
                ):
                    continue  # corrupted / stale / duplicate copy: junk
                begin = time.perf_counter()
                try:
                    federation.hosts[parent].handle_envelope(envelope)
                except EnclaveCrashedError as exc:
                    if parent == federation.leader_id:
                        raise  # the supervisor's failover machinery
                    raise self._shard_unresponsive(
                        parent, kind, attempts, "enclave_crashed"
                    ) from exc
                member_times[parent] = member_times.get(parent, 0.0) + (
                    time.perf_counter() - begin
                )
                return
            if attempts >= policy.max_attempts:
                raise self._shard_unresponsive(
                    parent, kind, attempts, "partial_lost"
                )
            self._shard_runtime["level_retries"] += 1
            self._shard_backoff(parent, kind, attempts)
            self._shard_runtime["partials_redelivered"] += 1

    def _shard_backoff(self, member_id: str, kind: str, attempt: int) -> None:
        """Exponential backoff on the simulated clock; release stragglers."""
        policy = self._federation.config.resilience
        delay = policy.backoff_base_s * policy.backoff_factor ** (attempt - 1)
        self._federation.network.advance_clock(delay)
        injector = self._federation.fault_injector
        released = 0
        if injector is not None:
            released = injector.release_delayed(member_id)
        if TRACER.enabled:
            TRACER.event(
                "shard.retry",
                member=member_id,
                kind=kind,
                attempt=attempt,
                backoff_s=delay,
                released_delayed=released,
            )

    def _phase_maf(self, clock: PhaseClock) -> None:
        leader = self._federation.leader_host.enclave
        with clock.task(INDEXING, self._accounting):
            self._outputs["l_prime"] = leader.ecall(
                "lead_run_maf", label="maf"
            )  # lint: declassify(retained-SNP set after MAF filtering is a published protocol output)
            leader.ecall(
                "lead_broadcast_retained", "prime", self._exchange,
                label="broadcast",
            )
            self._verify_integrity("prime")

    def _phase_ld(self, clock: PhaseClock) -> None:
        store, ref_store = self._leader_stores()
        leader = self._federation.leader_host.enclave
        with clock.task(LD_ANALYSIS, self._accounting):
            self._outputs["l_double_prime"] = leader.ecall(
                "lead_run_ld", store, ref_store, self._exchange, label="ld"
            )  # lint: declassify(retained-SNP set after LD pruning is a published protocol output)
            leader.ecall(
                "lead_broadcast_retained", "double_prime", self._exchange,
                label="broadcast",
            )
            self._verify_integrity("double_prime")

    def _phase_lr(self, clock: PhaseClock) -> None:
        store, ref_store = self._leader_stores()
        leader = self._federation.leader_host.enclave
        with clock.task(LR_ANALYSIS, self._accounting):
            self._outputs["l_safe"] = leader.ecall(
                "lead_run_lr", store, ref_store, self._exchange, label="lr"
            )  # lint: declassify(LR-safe SNP set is the protocol's release decision)
            leader.ecall(
                "lead_broadcast_retained", "safe", self._exchange,
                label="broadcast",
            )
            self._verify_integrity("safe")

    # -- Byzantine-integrity rounds ----------------------------------------------
    #
    # Enabled via ``config.integrity``; both checks run at phase
    # boundaries so a violation aborts (or triggers recovery) before the
    # next phase consumes poisoned state.  With faults disabled these
    # rounds are pure overhead checks: the per-frame cost on the hot
    # path is only the channels' running digest updates.

    def _verify_integrity(self, stage: str, *, echo: bool = True) -> None:
        """Run the post-stage integrity checks (no-op unless enabled).

        Detections are counted here, at the site, so the ``integrity.*``
        metrics increment even when no supervisor is present to recover
        and the violation aborts the run directly.
        """
        if not self._integrity:
            return
        try:
            if echo:
                self._echo_round(stage)
            self._federation.leader_host.enclave.ecall(
                "lead_verify_transcripts", stage, self._exchange,
                label="integrity",
            )
        except IntegrityError as exc:
            self._federation.integrity_monitor.record_detection(exc)
            raise

    def _echo_round(self, stage: str) -> None:
        """Broadcast-consistency echo over the participant ring.

        After a leader broadcast every participant (leader included)
        exports a signed digest of the payload it holds and sends it to
        its ring successor — O(G) messages — whose enclave compares it
        against its own digest.  Any equivocation splits the ring into
        runs of differing digests, so at least one edge crosses the
        difference and raises
        :class:`~repro.errors.EquivocationError`.
        """
        federation = self._federation
        participants = federation.member_ids
        if len(participants) < 2:
            return
        injector = federation.fault_injector
        if injector is not None:
            injector.begin_round("echo")
        resilience = federation.config.resilience
        max_attempts = resilience.max_attempts if resilience.enabled else 1
        with TRACER.span("echo", stage=stage, members=len(participants)):
            frames: Dict[str, bytes] = {}
            for node in participants:
                try:
                    frames[node] = federation.hosts[node].enclave.ecall(
                        "export_broadcast_echo", stage, label="echo"
                    )
                except PhaseOrderError:
                    # The node never ingested this stage's broadcast:
                    # the broadcaster sent it nothing while others got
                    # the payload — equivocation by omission.
                    raise EquivocationError(
                        f"{node} holds no {stage!r} broadcast — withheld "
                        f"by the broadcaster?",
                        stage=stage,
                        reporter=node,
                        peer=federation.leader_id,
                    ) from None
            for index, node in enumerate(participants):
                successor = participants[(index + 1) % len(participants)]
                self._deliver_echo(
                    stage, node, successor, frames[node], max_attempts
                )

    def _deliver_echo(
        self,
        stage: str,
        sender: str,
        receiver: str,
        frame: bytes,
        max_attempts: int,
    ) -> None:
        """Ship one ring echo and have the receiver's enclave verify it.

        Echo frames ride the faulty network like any other message, so
        delivery retries (bounded by the resilience budget) re-send the
        identical signed record; corrupted or stray frames are junked
        by the MAC before they can raise anything but an integrity
        verdict.
        """
        federation = self._federation
        network = federation.network
        enclave = federation.hosts[receiver].enclave
        injector = federation.fault_injector
        attempt = 0
        while True:
            attempt += 1
            try:
                network.send(
                    Envelope(
                        sender=sender, receiver=receiver, tag="echo", body=frame
                    )
                )
            except NetworkError:
                pass  # partitioned; the bounded retry below rides it out
            while network.pending(receiver):
                envelope = network.receive(receiver)
                if envelope.tag != "echo":
                    continue  # stray frame from an earlier round
                try:
                    enclave.ecall(
                        "verify_broadcast_echo",
                        stage,
                        sender,
                        envelope.body,
                        label="echo",
                    )
                    return
                except IntegrityError:
                    raise
                except (
                    AuthenticationError,
                    SerializationError,
                    ProtocolError,
                ):
                    continue  # corrupted/spliced copy: junk, keep pumping
            if attempt >= max_attempts:
                raise NetworkError(
                    f"echo from {sender} to {receiver} lost after "
                    f"{attempt} attempts"
                )
            if injector is not None:
                injector.release_delayed(receiver)

    def _build_result(self, timings) -> StudyResult:
        federation = self._federation
        config = federation.config
        leader = federation.leader_host.enclave
        l_prime = self._outputs["l_prime"]
        l_double_prime = self._outputs["l_double_prime"]
        l_safe = self._outputs["l_safe"]

        collusion: Optional[CollusionReport] = None
        if config.collusion.enabled:
            outcomes = leader.ecall(
                "lead_combo_outcomes", label="report"
            )  # lint: declassify(collusion-pool outcomes are part of the study report)
            report = CollusionReport(
                baseline_safe=tuple(
                    int(s)
                    for s in leader.ecall(
                        "lead_plain_safe", label="report"
                    )  # lint: declassify(non-DP baseline safe set for the collusion report)
                )
            )
            for outcome in outcomes:
                if outcome["f"] == 0:
                    continue
                report.outcomes.append(
                    CombinationOutcome(
                        member_ids=tuple(outcome["members"]),
                        f=int(outcome["f"]),
                        safe_snps=tuple(int(s) for s in outcome["safe"]),
                    )
                )
            collusion = report

        totals = federation.network.total_stats()
        reports = federation.resource_reports()
        return StudyResult(
            study_id=config.study_id,
            leader_id=federation.leader_id,
            num_members=len(federation.hosts),
            l_des=config.snp_count,
            l_prime=list(l_prime),
            l_double_prime=list(l_double_prime),
            l_safe=list(l_safe),
            timings=timings,
            network_bytes=totals.wire_bytes,
            network_messages=totals.messages,
            enclave_peak_memory={
                gdo: report.peak_memory_bytes for gdo, report in reports.items()
            },
            enclave_cpu_utilization={
                gdo: report.cpu_utilization for gdo, report in reports.items()
            },
            release_power=float(
                leader.ecall("lead_release_power", label="report")
            ),  # lint: declassify(attack power over the released set is the headline metric)
            collusion=collusion,
            execution_mode=config.execution.mode,
            ocall_rounds=dict(self._accounting.rounds_by_kind),
        )

    def release_statistics(self) -> Dict[str, object]:
        """The leader's chi-squared statistics over the safe set."""
        return self._federation.leader_host.enclave.ecall(
            "lead_release_statistics", label="release"
        )  # lint: declassify(DP-protected chi-squared statistics are the study deliverable)


def run_study(
    cohort: Cohort,
    config: StudyConfig,
    num_members: int,
    *,
    network: Optional[SimulatedNetwork] = None,
    shuffle_seed: Optional[int] = None,
) -> StudyResult:
    """Convenience one-call API: partition, provision, run.

    This is the library's front door for the common case; examples and
    benchmarks use it, while tests that need to poke at internals build
    the federation explicitly.  Provisioning goes through
    :class:`~repro.core.provision.ProvisionedFederation` — the same
    path the CLI and the long-lived service use.
    """
    # Local import: provision builds on this module.
    from .provision import ProvisionedFederation

    with ProvisionedFederation(
        cohort,
        config,
        num_members,
        network=network,
        shuffle_seed=shuffle_seed,
    ) as provisioned:
        return provisioned.run()
