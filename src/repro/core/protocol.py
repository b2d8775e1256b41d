"""GenDPR protocol orchestration.

:class:`GenDPRProtocol` drives one study across a provisioned
federation: it invokes the leader enclave's phase ECALLs, schedules the
tree-combine and echo rounds, and assembles the
:class:`~repro.core.phases.StudyResult`.  Every round, including the
OCALL through which the leader exchanges encrypted frames with member
enclaves, runs on the round engine (:mod:`repro.core.resilience`).

Everything that *decides* happens inside the trusted module
(:mod:`repro.core.enclave_logic`); this orchestrator is part of the
untrusted middleware and only ever touches ciphertext frames, timing
and accounting.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import StudyConfig
from ..errors import (
    EnclaveCrashedError,
    EquivocationError,
    IntegrityError,
    MemberUnresponsiveError,
    PhaseOrderError,
    ProtocolError,
)
from ..genomics.population import Cohort
from ..net.network import SimulatedNetwork
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
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport, config_fingerprint
from ..obs.span import SpanCollector
from ..obs.tracer import TRACER
from .federation import Federation
from .phases import CollusionReport, CombinationOutcome, StudyResult
from .resilience import FailureReport, RoundEngine
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
        #: The round engine: the OCALL callable the leader's phase
        #: ECALLs call back into, and the one delivery path of every
        #: tree-combine level and echo ring.  It holds the federation
        #: and the accounting, never the protocol, so a finished study
        #: is freed without waiting for the cyclic garbage collector.
        self._exchange = RoundEngine(federation, self._accounting)
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
        #: Repair accounting for the observability bridge; combine-round
        #: retries come from the engine (``shard_repair_accounting``).
        self._shard_runtime: Dict[str, int] = {
            "repairs": 0,
            "tasks_rerun": 0,
            "verify_runs": 0,
        }
        #: Mid-phase checkpoint hook installed by the supervisor; called
        #: after every completed shard task so a failover resumes from
        #: the last combine boundary instead of the phase start.
        self._progress_checkpoint = None
        self._supervised = federation.config.resilience.enabled
        self._integrity = federation.config.integrity.enabled

    def shard_repair_accounting(self) -> Dict[str, int]:
        """Tree-repair/retry counters of this run (empty when unsharded).

        The same numbers ``record_shard`` bridges into ``shard.repair.*``
        metrics for RunReports; exposed so the fuzz oracle can key
        behaviours on repair activity without enabling span tracing.
        ``level_retries`` is the combine-round subset of the engine's
        retries; each retry re-ships one partial.
        """
        if not self._federation.config.sharding.enabled:
            return {}
        retries = sum(
            count
            for kind, count in self._exchange.retries_by_kind().items()
            if kind.startswith("shard:")
        )
        return dict(
            self._shard_runtime,
            level_retries=retries,
            partials_redelivered=retries,
            epoch=self._shard_epoch,
        )

    def install_round_gate(self, gate) -> None:
        """Install a round gate: ``gate(kind)`` -> context manager.

        The gate is entered around every round the engine runs: OCALL
        rounds, tree-combine levels and echo rings.  The service
        scheduler uses it for fair round-interleaving across concurrent
        studies and as the cancellation point (it raises
        :class:`~repro.errors.StudyCancelledError` at a round boundary,
        never mid-round).
        """
        self._exchange.gate = gate

    @property
    def federation(self) -> Federation:
        return self._federation

    def close(self) -> None:
        """Release the fan-out thread pool (idempotent)."""
        self._exchange.close()

    # -- Study execution ---------------------------------------------------------

    def run(self) -> StudyResult:
        """Execute the study; trace it when observability is enabled.

        With ``config.observability.enabled`` the whole run executes
        under an activated span collector and the result carries a
        :class:`~repro.obs.report.RunReport` (spans + metrics + config
        fingerprint).  Disabled (the default), the instrumented code
        paths only touch the null sink.
        """
        federation = self._federation
        try:
            if not federation.config.observability.enabled:
                return self._execute_study()
            if TRACER.enabled:
                # A caller (run_study, or a user-held scope) already
                # activated a collector — e.g. so that federation
                # provisioning and leader election are part of the trace.
                # Join it instead of nesting a second one.
                collector = TRACER.collector
                result = self._traced_execute()
            else:
                with TRACER.activated() as collector:
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
                repair=self.shard_repair_accounting(),
            )
        if federation.fault_injector is not None:
            record_faults(registry, federation.fault_injector.counters())
        if self._supervised:
            record_resilience(
                registry, self._exchange.stats(), self._supervision
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

        Each moments task carries the padded bucket of pairs whose right
        SNP the shard owns.  After this step every pair any walk can
        reach is installed per combination, so ``lead_run_ld`` sends no
        flat member round unless a bucket overflowed its public bound.
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
        if not self._supervised:
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
        if not self._supervised:
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
                    if node_id == leader_id:
                        raise
                    self._spend_repair(
                        self._exchange.unresponsive(
                            node_id, "shard:repair", 0, "enclave_crashed"
                        )
                    )
                    federation.replace_member_enclave(
                        node_id, reinstall_adversary=True
                    )

    def _quarantine_shard_node(self, exc: EquivocationError) -> None:
        """Record the quarantine decision for an equivocating tree node."""
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

    # -- tree combine --------------------------------------------------------

    def _tree_combine(
        self, task_id: str, kind: str, verify: bool = False
    ) -> None:
        """Drive one task's pairwise combine rounds, deepest level first.

        Each level is one engine round whose ``emit`` step has every
        child combine its own leaf with its children's partials and
        protect the result for its parent; the engine then ships each
        frame and has the parent ingest it.  On a supervised run with
        the integrity layer active, every emission's signed leaf
        commitment then goes to the leader's ledger (compared on the
        verify re-run), in edge order, so the leader's ECALL sequence
        does not depend on which emit finished first.
        """
        federation = self._federation
        _plan, tree = self._shard_structures()
        emitted: Dict[str, Dict[str, bytes]] = {}

        def emit(child: str, parent: str) -> bytes:
            host = federation.hosts[child]
            emitted[child] = host.enclave.ecall(
                "shard_emit_partial", host.store, task_id, parent, label="shard"
            )
            return emitted[child]["frame"]

        for edges in tree.levels():
            self._exchange.run(
                kind,
                [(child, parent, None) for child, parent in edges],
                tag="shard",
                emit=emit,
            )
            if self._supervised and self._integrity:
                leader = federation.leader_host.enclave
                for child, _parent in edges:
                    leader.ecall(
                        "lead_ingest_shard_commitment",
                        emitted[child]["commitment"],
                        emitted[child]["sig"],
                        verify,
                        label="integrity",
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
        exports a signed digest of the payload it holds, and the engine
        ships it to the participant's ring successor — O(G) messages —
        whose enclave compares it against its own digest.  Any
        equivocation splits the ring into runs of differing digests, so
        at least one edge crosses the difference and raises
        :class:`~repro.errors.EquivocationError`.  A lost echo is
        retried like any other frame; past the budget it is a
        :class:`~repro.errors.MemberUnresponsiveError` abort.
        """
        federation = self._federation
        participants = federation.member_ids
        if len(participants) < 2:
            return
        frames: Dict[str, bytes] = {}
        for node in participants:
            try:
                frames[node] = federation.hosts[node].enclave.ecall(
                    "export_broadcast_echo", stage, label="echo"
                )
            except PhaseOrderError:
                # The node never ingested this stage's broadcast: the
                # broadcaster sent it nothing while others got the
                # payload — equivocation by omission.
                raise EquivocationError(
                    f"{node} holds no {stage!r} broadcast — withheld "
                    f"by the broadcaster?",
                    stage=stage,
                    reporter=node,
                    peer=federation.leader_id,
                ) from None

        def verify(envelope) -> None:
            federation.hosts[envelope.receiver].enclave.ecall(
                "verify_broadcast_echo",
                stage,
                envelope.sender,
                envelope.body,
                label="echo",
            )

        ring = [
            (node, participants[(index + 1) % len(participants)], frames[node])
            for index, node in enumerate(participants)
        ]
        self._exchange.run("echo", ring, verify)

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
