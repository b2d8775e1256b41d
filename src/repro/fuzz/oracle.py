"""The decision oracle: one invariant, one implementation.

The paper's robustness claim — a federated assessment under crashes,
collusion and active adversaries either completes with release
decisions **bit-identical** to the fault-free reference or aborts with
a *classified* :class:`~repro.errors.ReproError` — used to be asserted
by three near-copies of the same harness (the crash chaos tier, the
Byzantine tier and the shard-resilience tier).  This module is the
single implementation: the fuzzer and the chaos tiers all execute the
same invariant code path, so a fuzz-discovered violation is exactly a
chaos-tier failure and vice versa.

:func:`study_decisions` is the one decision record: every test that
asks whether two deployments decided alike compares it.
:class:`DecisionOracle` owns the cohort, one fault-free sequential
reference per collusion setting and the comparison/classification
logic; :meth:`DecisionOracle.execute` runs one configured study and
returns an :class:`OracleRun` with the verdict, the telemetry the
tiers assert over, and the behaviour-counter units the fuzzer keys its
corpus on (bridged through :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..config import (
    CollusionPolicy,
    ExecutionConfig,
    StudyConfig,
)
from ..core.federation import Federation, build_federation
from ..core.leader import elect_leader
from ..core.phases import StudyResult
from ..core.protocol import GenDPRProtocol
from ..errors import ReproError
from ..genomics import SyntheticSpec, generate_cohort, partition_cohort
from ..obs.bridge import metric_slug, record_faults, record_integrity
from ..obs.metrics import MetricsRegistry
from .coverage import Behaviour, CoverageCollector
from .genome import PlanGenome, genome_config

#: Default fuzz-study shape: small enough for ~30 ms runs, big enough
#: that every phase (MAF, LD windows, LR, collusion) does real work.
DEFAULT_SNP_COUNT = 40
DEFAULT_NUM_CASE = 60
DEFAULT_NUM_CONTROL = 50
DEFAULT_MEMBERS = 3
DEFAULT_STUDY_SEED = 5
DEFAULT_COHORT_SEED = 5


def study_decisions(result: StudyResult) -> Dict[str, Any]:
    """Everything a study decides, and nothing it merely measures.

    Two runs decided alike exactly when these records compare equal:
    the retained sets, the release power and, under collusion, the
    baseline and every combination's safe set.  Timings, wire bytes
    and ``ocall_rounds`` stay out, because execution mode, sharding
    and supervision may change them without changing a decision.
    """
    collusion = None
    if result.collusion is not None:
        collusion = {
            "baseline_safe": list(result.collusion.baseline_safe),
            "outcomes": sorted(
                (list(o.member_ids), o.f, list(o.safe_snps))
                for o in result.collusion.outcomes
            ),
        }
    return {
        "l_prime": list(result.l_prime),
        "l_double_prime": list(result.l_double_prime),
        "l_safe": list(result.l_safe),
        "release_power": result.release_power,
        "collusion": collusion,
    }


@dataclass
class OracleRun:
    """Outcome of one plan execution, as judged by the oracle.

    ``violation`` is ``None`` for a healthy run (bit-identical
    completion or classified abort) and a short reason string when the
    invariant broke — the thing the fuzzer shrinks and the chaos tiers
    fail on.
    """

    verdict: str  # "completed" | "classified_abort"
    error: Optional[str]
    error_message: Optional[str]
    violation: Optional[str]
    injected: Dict[str, int]
    integrity_counters: Dict[str, int]
    shard_repair: Dict[str, int]
    failovers: int
    member_restorations: int
    federation: Federation = field(repr=False)
    result: Optional[object] = field(repr=False, default=None)

    def behaviour_counters(self) -> FrozenSet[str]:
        """The fired-counter half of the behaviour key.

        Counter names come from the same :mod:`repro.obs.bridge`
        functions that feed RunReports, so the fuzzer's coverage map
        speaks the ``faults.*`` / ``integrity.*`` / ``shard.repair.*``
        vocabulary of every other artifact; the run outcome and any
        supervisor failovers are folded in as pseudo-counters.
        """
        registry = MetricsRegistry()
        record_faults(registry, self.injected)
        if any(self.integrity_counters.values()):
            record_integrity(registry, self.integrity_counters)
        for name, value in sorted(self.shard_repair.items()):
            if name == "epoch" or not value:
                continue
            registry.counter(f"shard.repair.{metric_slug(name)}").inc(
                int(value)
            )
        fired = {
            name
            for name, value in registry.as_dict()["counters"].items()
            if value
        }
        if self.verdict == "completed":
            fired.add("outcome.completed")
        else:
            fired.add(f"outcome.abort.{self.error}")
        if self.failovers:
            fired.add("supervisor.failovers")
        if self.member_restorations:
            fired.add("supervisor.member_restorations")
        return frozenset(fired)

    def record(self, **extra: object) -> Dict[str, object]:
        """A chaos-report record for this run (plan + digest + outcome).

        The plan digest makes every record traceable to its corpus
        entry; the chaos tiers merge ``extra`` fields like seed, mode
        and shard count on top.
        """
        plan = self.federation.fault_injector.plan
        record: Dict[str, object] = {
            "plan": plan.describe(),
            "plan_digest": plan.digest(),
            "outcome": self.verdict,
            "injected": dict(self.injected),
        }
        if self.error is not None:
            record["error"] = self.error
        if self.violation is not None:
            record["violation"] = self.violation
        record.update(extra)
        return record


class DecisionOracle:
    """Runs configured studies and judges them against fault-free twins."""

    def __init__(
        self,
        *,
        cohort=None,
        members: int = DEFAULT_MEMBERS,
        snp_count: int = DEFAULT_SNP_COUNT,
        study_id: str = "fuzz-oracle",
        study_seed: int = DEFAULT_STUDY_SEED,
    ):
        if cohort is None:
            cohort, _ = generate_cohort(
                SyntheticSpec(
                    num_snps=snp_count,
                    num_case=DEFAULT_NUM_CASE,
                    num_control=DEFAULT_NUM_CONTROL,
                    seed=DEFAULT_COHORT_SEED,
                )
            )
        self.cohort = cohort
        self.members = members
        self.snp_count = cohort.num_snps
        self.study_id = study_id
        self.study_seed = study_seed
        self._references: Dict[int, Dict[str, Any]] = {}

    # -- federation shape -----------------------------------------------------

    @property
    def member_ids(self) -> Tuple[str, ...]:
        return tuple(f"gdo-{i}" for i in range(self.members))

    @property
    def leader_id(self) -> str:
        return elect_leader(
            list(self.member_ids), self.study_seed, self.study_id
        )

    # -- references -----------------------------------------------------------

    def reference(self, f: int) -> Dict[str, Any]:
        """The decision record of the fault-free run at collusion ``f``.

        One sequential, unsharded run with faults, resilience *and*
        integrity disabled, so every faulted run simultaneously
        validates that the defensive machinery, the execution mode and
        the shard count change no release decision.
        """
        if f not in self._references:
            config = StudyConfig(
                snp_count=self.snp_count,
                study_id=self.study_id,
                seed=self.study_seed,
                execution=ExecutionConfig.sequential(),
                collusion=(
                    CollusionPolicy.static(f) if f else CollusionPolicy.none()
                ),
            )
            federation = self._build(config)
            self._references[f] = study_decisions(
                GenDPRProtocol(federation).run()
            )
        return self._references[f]

    def _build(self, config: StudyConfig) -> Federation:
        return build_federation(
            config,
            partition_cohort(self.cohort, self.members),
            self.cohort,
        )

    # -- the invariant --------------------------------------------------------

    def execute(
        self,
        config: StudyConfig,
        *,
        collector: Optional[CoverageCollector] = None,
    ) -> OracleRun:
        """Run one configured study and judge it.

        The verdict contract is the chaos tiers' invariant: either the
        run completes with decisions bit-identical to the fault-free
        reference at its collusion setting, or it aborts with a
        classified :class:`~repro.errors.ReproError`.  Anything else —
        divergent decisions, an unclassified exception — is a
        *violation*.  When ``collector`` is given, arcs of the
        detection modules are recorded around the protocol run.
        """
        reference = self.reference(max(config.collusion.f_values, default=0))
        federation = self._build(config)
        protocol = GenDPRProtocol(federation)
        result = None
        error = None
        error_message = None
        violation = None
        try:
            if collector is not None and collector.enabled:
                collector.reset()
                with collector:
                    result = protocol.run()
            else:
                result = protocol.run()
        except ReproError as exc:
            error = type(exc).__name__
            error_message = str(exc)
        except Exception as exc:  # noqa: BLE001 - the point of the oracle
            error = type(exc).__name__
            error_message = str(exc)
            violation = f"unclassified_error:{error}"
        if result is not None:
            violation = self._compare(result, reference)
        verdict = "completed" if result is not None else "classified_abort"
        injector = federation.fault_injector
        return OracleRun(
            verdict=verdict,
            error=error,
            error_message=error_message,
            violation=violation,
            injected=injector.counters() if injector is not None else {},
            integrity_counters=federation.integrity_monitor.counters(),
            shard_repair=protocol.shard_repair_accounting(),
            failovers=federation.failovers,
            member_restorations=federation.member_restorations,
            federation=federation,
            result=result,
        )

    def _compare(
        self, result: StudyResult, reference: Dict[str, Any]
    ) -> Optional[str]:
        """Bit-identical decision check, naming the first field that differs."""
        decided = study_decisions(result)
        for name, expected in reference.items():
            if decided[name] != expected:
                return f"divergent_decisions:{name}"
        return None

    # -- genome front door ----------------------------------------------------

    def execute_genome(
        self,
        genome: PlanGenome,
        *,
        collector: Optional[CoverageCollector] = None,
    ) -> Tuple[OracleRun, Behaviour]:
        """Run a genome and key its behaviour (counters × arcs)."""
        config = genome_config(
            genome,
            snp_count=self.snp_count,
            study_id=self.study_id,
            study_seed=self.study_seed,
        )
        run = self.execute(config, collector=collector)
        arcs = (
            collector.arcs()
            if collector is not None and collector.enabled
            else frozenset()
        )
        return run, Behaviour(counters=run.behaviour_counters(), arcs=arcs)
