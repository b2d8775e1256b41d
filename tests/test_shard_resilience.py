"""Fault-tolerant sharded aggregation: crash, retry, tree repair.

Acceptance tier for the shard × resilience composition.  The invariant
is the sharding one, under fire: a sharded study running supervised
must either complete with release decisions **bit-identical** to the
fault-free *unsharded* reference, or abort with a *classified*
:class:`ReproError` subclass — across shard counts, across seeded
fault plans, and under a Byzantine interior node falsifying combine
partials.

The crash-point ECALL indices used here are deterministic: member
index 3 is the first ``shard_emit_partial`` (mid-tree-round for every
shard count, since ``answer_summary`` / ``ingest_shard_task`` precede
it), and leader index 10 is a ``shard_ingest_partial`` inside the
second counts task (past the first task-boundary checkpoint, so the
failover resumes mid-phase).

Set ``SHARD_CHAOS_REPORT_PATH`` to write a machine-readable JSON
report of every run (fault plans, repair/retry counters, outcomes);
the CI ``sharded-chaos`` job uploads it as an artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import (
    FaultConfig,
    IntegrityConfig,
    ObservabilityConfig,
    ResilienceConfig,
    ShardingConfig,
    StudyConfig,
)
from repro.core.federation import build_federation
from repro.core.leader import elect_leader
from repro.core.protocol import GenDPRProtocol
from repro.errors import MemberUnresponsiveError, ReproError
from repro.fuzz.oracle import study_decisions
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

MEMBERS = 3
STUDY_ID = "shard-chaos"
STUDY_SEED = 5
SNPS = 80
SHARD_COUNTS = (2, 4)
#: Seeded network-noise plans masked by combine-edge retries.
NOISE_SEEDS = (31, 32, 33, 34)
#: Ceiling on a masked noisy run's modeled time (``timings``) over its
#: clean sharded twin's: re-shipped partials and re-run tasks cost
#: compute, but masking the noise must never blow a run up by more than
#: this factor.  The backoff itself advances only the simulated clock,
#: which modeled time leaves out.
FAULTED_OVERHEAD_BUDGET = 10.0

#: Report records keyed by run label: re-execution within one session
#: replaces the record, so the report never accumulates duplicates.
_collected_runs = {}


def _leader_id() -> str:
    return elect_leader(
        [f"gdo-{i}" for i in range(MEMBERS)], STUDY_SEED, STUDY_ID
    )


def _members_without_leader():
    return [m for m in (f"gdo-{i}" for i in range(MEMBERS)) if m != _leader_id()]


def _config(shards: int, faults: FaultConfig, **overrides) -> StudyConfig:
    kwargs = {
        "snp_count": SNPS,
        "study_id": STUDY_ID,
        "seed": STUDY_SEED,
        "sharding": ShardingConfig.over(shards),
        "resilience": ResilienceConfig.supervised(),
        "faults": faults,
        "observability": ObservabilityConfig(enabled=True),
    }
    kwargs.update(overrides)
    return StudyConfig(**kwargs)


@pytest.fixture(scope="module")
def shard_cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=SNPS, num_case=120, num_control=100, seed=5)
    )
    return cohort


@pytest.fixture(scope="module")
def reference(shard_cohort):
    """Fault-free **unsharded** decisions: the ground truth every
    faulted sharded run must reproduce bit-for-bit."""
    config = StudyConfig(snp_count=SNPS, study_id=STUDY_ID, seed=STUDY_SEED)
    federation = build_federation(
        config, partition_cohort(shard_cohort, MEMBERS), shard_cohort
    )
    return study_decisions(GenDPRProtocol(federation).run())


@pytest.fixture(scope="module")
def clean_sharded(shard_cohort):
    """Fault-free, unsupervised sharded run per shard count: the twin
    each supervised run is held against on the wire and in model time."""
    runs = {}
    for shards in SHARD_COUNTS:
        config = _config(
            shards, FaultConfig.off(), resilience=ResilienceConfig.off()
        )
        federation = build_federation(
            config, partition_cohort(shard_cohort, MEMBERS), shard_cohort
        )
        runs[shards] = GenDPRProtocol(federation).run()
    return runs


@pytest.fixture(scope="module", autouse=True)
def shard_chaos_report():
    """Write the tier's repair/retry report if a path is configured."""
    yield
    path = os.environ.get("SHARD_CHAOS_REPORT_PATH")
    if not path or not _collected_runs:
        return
    runs = [_collected_runs[key] for key in sorted(_collected_runs)]
    completed = sum(1 for r in runs if r["outcome"] == "completed")
    payload = {
        "study_id": STUDY_ID,
        "members": MEMBERS,
        "runs": runs,
        "summary": {
            "total": len(runs),
            "completed_identical": completed,
            "classified_aborts": len(runs) - completed,
            "repairs": sum(
                r.get("repair", {}).get("repairs", 0) for r in runs
            ),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_and_record(shard_cohort, config, label: str):
    """Run one study, append its record, return (outcome, result, fed)."""
    federation = build_federation(
        config, partition_cohort(shard_cohort, MEMBERS), shard_cohort
    )
    record = {
        "label": label,
        "shards": config.sharding.num_shards,
        "plan": federation.fault_injector.plan.config.to_json_dict()
        if federation.fault_injector is not None
        else {},
    }
    if federation.fault_injector is not None:
        record["plan_digest"] = federation.fault_injector.plan.digest()
    result, outcome = None, "completed"
    try:
        result = GenDPRProtocol(federation).run()
    except ReproError as exc:
        outcome = "classified_abort"
        record["error"] = type(exc).__name__
    record["outcome"] = outcome
    if federation.fault_injector is not None:
        record["injected"] = federation.fault_injector.counters()
    record["member_restorations"] = federation.member_restorations
    record["failovers"] = federation.failovers
    if result is not None and result.observability is not None:
        meta = result.observability.meta.get("sharding", {})
        if "repair" in meta:
            record["repair"] = dict(meta["repair"])
    _collected_runs[label] = record
    return outcome, result, federation


class TestMemberCrashRepair:
    """An enclave crash mid-tree-round is survived via tree repair."""

    # Two seeded plans: one kills a member at its first combine
    # emission (counts phase), one kills the other member deeper into
    # the schedule (moments phase for 2 shards, counts for 4).
    PLANS = (("first-emit", 3), ("late-task", 8))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("plan_name,ecall_index", PLANS)
    def test_crash_is_repaired_bit_identically(
        self, shards, plan_name, ecall_index, shard_cohort, reference
    ):
        victim = _members_without_leader()[0 if ecall_index == 3 else 1]
        faults = FaultConfig(
            enabled=True,
            seed=11,
            crash_points=((victim, ecall_index),),
        )
        outcome, result, federation = _run_and_record(
            shard_cohort,
            _config(shards, faults),
            f"member-crash:{plan_name}:s{shards}",
        )
        assert outcome == "completed"
        assert study_decisions(result) == reference
        # The crash fired, the member enclave was replaced, and the
        # repair left its trace in the report.
        assert federation.fault_injector.counters()["crashes"] == 1
        assert federation.member_restorations >= 1
        meta = result.observability.meta["sharding"]
        assert meta["repair"]["repairs"] >= 1
        assert meta["repair"]["epoch"] >= 1
        # The repaired layout is recorded alongside the original, and
        # really is a different (rotated) plan.
        assert meta["repair"]["plan_digest"] != meta["plan_digest"]
        counters = result.observability.metrics["counters"]
        assert counters["shard.repair.repairs"] >= 1
        assert counters["shard.repair.tasks_rerun"] >= 1

    def test_repair_budget_exhaustion_is_classified(
        self, shard_cohort, reference
    ):
        """No budget → the triggering error surfaces, typed."""
        victim = _members_without_leader()[0]
        faults = FaultConfig(
            enabled=True, seed=11, crash_points=((victim, 3),)
        )
        config = _config(
            2,
            faults,
            resilience=ResilienceConfig.supervised(max_repairs=0),
        )
        federation = build_federation(
            config, partition_cohort(shard_cohort, MEMBERS), shard_cohort
        )
        with pytest.raises(MemberUnresponsiveError) as excinfo:
            GenDPRProtocol(federation).run()
        assert excinfo.value.report.member_id == victim
        _collected_runs["member-crash:budget-exhausted"] = {
            "label": "member-crash:budget-exhausted",
            "shards": 2,
            "outcome": "classified_abort",
            "error": "MemberUnresponsiveError",
            "member_restorations": federation.member_restorations,
            "failovers": federation.failovers,
        }


class TestLeaderCrashMidShardPhase:
    """Leader loss inside a tree round resumes from the last
    completed combine boundary, not the phase start."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_failover_resumes_mid_phase(self, shards, shard_cohort, reference):
        faults = FaultConfig(
            enabled=True, seed=12, crash_points=((_leader_id(), 10),)
        )
        outcome, result, federation = _run_and_record(
            shard_cohort, _config(shards, faults), f"leader-crash:s{shards}"
        )
        assert outcome == "completed"
        assert study_decisions(result) == reference
        assert federation.failovers >= 1
        # The supervisor's recovery work is visible in the report; the
        # per-task checkpoint trail let the re-run phase skip the first
        # completed counts task instead of starting over.
        counters = result.observability.metrics["counters"]
        assert counters["resilience.failovers"] >= 1
        assert counters["resilience.leader_crashes"] >= 1


class TestNoisyCombineEdges:
    """Drop/duplicate/delay/corrupt on combine edges are masked by
    the bounded retry loop — or abort classified, never diverge."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", NOISE_SEEDS)
    def test_identical_or_classified(
        self, shards, seed, shard_cohort, reference, clean_sharded
    ):
        faults = FaultConfig.chaos(seed, intensity=0.15)
        outcome, result, _federation = _run_and_record(
            shard_cohort,
            _config(shards, faults),
            f"noise:{seed}:s{shards}",
        )
        if outcome == "completed":
            assert study_decisions(result) == reference
            clean = clean_sharded[shards].timings.total_seconds
            assert (
                result.timings.total_seconds <= FAULTED_OVERHEAD_BUDGET * clean
            )

    def test_noise_sweep_masked_at_least_once(self):
        """The sweep exercised the retry machinery, not just luck."""
        noise = [
            r
            for r in _collected_runs.values()
            if r["label"].startswith("noise:")
        ]
        assert len(noise) == len(NOISE_SEEDS) * len(SHARD_COUNTS)
        assert any(r["outcome"] == "completed" for r in noise)
        injected = sum(
            sum(r.get("injected", {}).values()) for r in noise
        )
        assert injected > 0


class TestCombineEquivocation:
    """A Byzantine interior node emitting falsified leaf partials is
    caught by the dual-run commitment comparison, quarantined, and
    repaired around — or the abort is classified."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_equivocator_quarantined_or_classified(
        self, shards, shard_cohort, reference
    ):
        target = _members_without_leader()[0]
        faults = FaultConfig.byzantine(
            13,
            intensity=0.0,
            shard_flip_rate=1.0,
            shard_flip_target=target,
        )
        config = _config(shards, faults, integrity=IntegrityConfig.on())
        outcome, result, federation = _run_and_record(
            shard_cohort, config, f"equivocate:s{shards}"
        )
        monitor = federation.integrity_monitor
        # Rate 1.0 guarantees the very first counts task was falsified,
        # so a detection must have been recorded either way.
        assert monitor.detections >= 1
        if outcome == "completed":
            assert study_decisions(result) == reference
            quarantined = monitor.quarantined()
            assert any(r.member_id == target for r in quarantined)
            assert federation.member_restorations >= 1
            assert (
                result.observability.meta["sharding"]["repair"]["repairs"]
                >= 1
            )
        else:
            abort = _collected_runs[f"equivocate:s{shards}"]
            assert abort["error"].endswith("Error")

    def test_flips_were_injected_and_detected(self):
        runs = [
            r
            for r in _collected_runs.values()
            if r["label"].startswith("equivocate:")
        ]
        assert len(runs) == len(SHARD_COUNTS)
        for run in runs:
            assert run["injected"]["shard_equivocations"] >= 1


class TestFaultFreeComposition:
    """Supervised sharding with no armed faults changes nothing."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_reference_with_zero_repairs(
        self, shards, shard_cohort, reference, clean_sharded
    ):
        outcome, result, federation = _run_and_record(
            shard_cohort,
            _config(shards, FaultConfig.off()),
            f"fault-free:s{shards}",
        )
        assert outcome == "completed"
        assert study_decisions(result) == reference
        assert federation.member_restorations == 0
        assert federation.failovers == 0
        meta = result.observability.meta["sharding"]
        assert "repair" not in meta
        counters = result.observability.metrics["counters"]
        assert counters.get("shard.repair.repairs", 0) == 0
        assert counters.get("shard.repair.tasks_rerun", 0) == 0
        assert counters.get("shard.repair.level_retries", 0) == 0
        # Supervision costs nothing on the wire until a fault fires.
        twin = clean_sharded[shards]
        assert result.network_bytes == twin.network_bytes
        assert result.network_messages == twin.network_messages
