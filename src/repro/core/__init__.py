"""GenDPR — the paper's primary contribution.

* :mod:`~repro.core.enclave_logic` — the trusted module (member and
  leader roles of Figure 2).
* :mod:`~repro.core.federation` — provisioning: attestation, channels,
  signed datasets, untrusted host routers.
* :mod:`~repro.core.protocol` — study orchestration and results.
* :mod:`~repro.core.pipeline` — the three-phase decision logic as pure
  functions shared by every deployment.
* :mod:`~repro.core.baseline` — the centralized SecureGenome-in-a-TEE
  comparator.
* :mod:`~repro.core.naive` — the naive per-member comparator.
* :mod:`~repro.core.release` / :mod:`~repro.core.dp` — exact and hybrid
  DP releases.
* :mod:`~repro.core.audit` — genome-egress auditing.
"""

from .audit import AuditReport, audit_federation, genome_egress_savings
from .baseline import CentralizedVerifier, run_centralized_study
from .dp import LaplaceMechanism, epsilon_for_frequency_error
from .dynamic import DynamicStudy, EpochReport
from .enclave_logic import GenDPREnclave
from .federation import Federation, GdoHost, build_federation
from .integrity import IntegrityMonitor
from .interdependent import (
    InterdependentAssessment,
    assess_interdependent_release,
    cumulative_release_power,
)
from .leader import elect_leader
from .naive import NaiveResult, naive_traffic_bytes, run_naive_study
from .phases import CollusionReport, CombinationOutcome, StudyResult
from .pipeline import PipelineOutcome, ld_prune, run_local_pipeline
from .protocol import GenDPRProtocol, run_study
from .release import GwasRelease, SnpStatistic, build_release, hybrid_release
from .resilience import FailureReport
from .shard import (
    AggregationTree,
    ShardPlan,
    ShardRange,
    aggregation_tree,
    plan_shards,
)
from .supervisor import ProtocolSupervisor
from .timing import (
    DATA_AGGREGATION,
    INDEXING,
    LD_ANALYSIS,
    LR_ANALYSIS,
    PhaseTimings,
)

__all__ = [
    "AuditReport",
    "audit_federation",
    "genome_egress_savings",
    "CentralizedVerifier",
    "run_centralized_study",
    "LaplaceMechanism",
    "DynamicStudy",
    "EpochReport",
    "InterdependentAssessment",
    "assess_interdependent_release",
    "cumulative_release_power",
    "epsilon_for_frequency_error",
    "GenDPREnclave",
    "Federation",
    "GdoHost",
    "IntegrityMonitor",
    "build_federation",
    "elect_leader",
    "NaiveResult",
    "naive_traffic_bytes",
    "run_naive_study",
    "CollusionReport",
    "CombinationOutcome",
    "StudyResult",
    "PipelineOutcome",
    "ld_prune",
    "run_local_pipeline",
    "GenDPRProtocol",
    "run_study",
    "FailureReport",
    "AggregationTree",
    "ShardPlan",
    "ShardRange",
    "aggregation_tree",
    "plan_shards",
    "ProtocolSupervisor",
    "GwasRelease",
    "SnpStatistic",
    "build_release",
    "hybrid_release",
    "DATA_AGGREGATION",
    "INDEXING",
    "LD_ANALYSIS",
    "LR_ANALYSIS",
    "PhaseTimings",
]
