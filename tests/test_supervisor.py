"""Supervised runtime: retry, eviction, automated leader failover."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro import StudyConfig, generate_cohort, partition_cohort
from repro.config import FaultConfig, IntegrityConfig, ResilienceConfig
from repro.core.federation import build_federation
from repro.core.leader import elect_leader
from repro.core.protocol import GenDPRProtocol
from repro.errors import (
    LeaderFailoverError,
    MemberUnresponsiveError,
    ResilienceError,
    SealingError,
)
from repro.fuzz.oracle import study_decisions
from repro.genomics import SyntheticSpec

MEMBERS = 3


@pytest.fixture(scope="module")
def cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=80, num_case=120, num_control=100, seed=5)
    )
    return cohort


@pytest.fixture(scope="module")
def base_config(cohort):
    return StudyConfig(snp_count=cohort.num_snps, study_id="supervised", seed=5)


@pytest.fixture(scope="module")
def leader_id(base_config):
    member_ids = [f"gdo-{i}" for i in range(MEMBERS)]
    return elect_leader(member_ids, base_config.seed, base_config.study_id)


@pytest.fixture(scope="module")
def reference(cohort, base_config):
    federation = build_federation(
        base_config, partition_cohort(cohort, MEMBERS), cohort
    )
    return study_decisions(GenDPRProtocol(federation).run())


def _run(cohort, config):
    federation = build_federation(
        config, partition_cohort(cohort, MEMBERS), cohort
    )
    result = GenDPRProtocol(federation).run()
    return federation, result


class TestSupervisedHappyPath:
    def test_resilient_run_without_faults_is_identical(
        self, cohort, base_config, reference
    ):
        config = dataclasses.replace(
            base_config, resilience=ResilienceConfig.supervised()
        )
        federation, result = _run(cohort, config)
        assert study_decisions(result) == reference
        assert federation.failovers == 0


class TestLeaderFailover:
    # Proxied leader ECALLs in a supervised run: 1 = initial
    # checkpoint, 2 = lead_collect_summaries, 3 = checkpoint,
    # 4 = lead_run_maf, 5 = lead_broadcast_retained, 6 = checkpoint, ...

    def test_crash_after_phase_one_completes_identically(
        self, cohort, base_config, reference, leader_id
    ):
        """The ISSUE's flagship scenario: kill the leader right after
        Phase 1, watch the supervisor re-elect (same GDO), re-attest,
        restore the sealed checkpoint and finish bit-identically —
        with no manual re-wiring."""
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True, seed=0, crash_points=((leader_id, 4),)
            ),
            resilience=ResilienceConfig.supervised(),
        )
        federation, result = _run(cohort, config)
        assert federation.failovers == 1
        assert federation.fault_injector.counters()["crashes"] == 1
        assert study_decisions(result) == reference

    @pytest.mark.parametrize("ecall_index", [1, 2, 3, 6, 7, 9, 10])
    def test_crash_at_any_step_is_recovered(
        self, cohort, base_config, reference, leader_id, ecall_index
    ):
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True, seed=0, crash_points=((leader_id, ecall_index),)
            ),
            resilience=ResilienceConfig.supervised(),
        )
        federation, result = _run(cohort, config)
        assert federation.failovers == 1
        assert study_decisions(result) == reference

    def test_repeated_crashes_within_budget_are_absorbed(
        self, cohort, base_config, reference, leader_id
    ):
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True,
                seed=0,
                crash_points=((leader_id, 4), (leader_id, 8)),
            ),
            resilience=ResilienceConfig.supervised(max_failovers=2),
        )
        federation, result = _run(cohort, config)
        assert federation.failovers == 2
        assert study_decisions(result) == reference

    def test_failover_budget_aborts_classified(
        self, cohort, base_config, leader_id
    ):
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True,
                seed=0,
                crash_points=((leader_id, 4), (leader_id, 8)),
            ),
            resilience=ResilienceConfig.supervised(max_failovers=1),
        )
        with pytest.raises(LeaderFailoverError):
            _run(cohort, config)

    def test_failover_is_traced(self, cohort, base_config, leader_id):
        from repro.config import ObservabilityConfig

        config = dataclasses.replace(
            base_config,
            observability=ObservabilityConfig(enabled=True),
            faults=FaultConfig(
                enabled=True, seed=0, crash_points=((leader_id, 4),)
            ),
            resilience=ResilienceConfig.supervised(),
        )
        _federation, result = _run(cohort, config)
        counters = result.observability.metrics["counters"]
        assert counters["resilience.failovers"] == 1
        assert counters["resilience.leader_crashes"] == 1
        assert counters["faults.crashes"] == 1
        events = [
            s for s in result.observability.spans
            if s.name == "supervisor.failover"
        ]
        assert len(events) == 1


class TestMemberEviction:
    def test_member_crash_aborts_with_failure_report(
        self, cohort, base_config, leader_id
    ):
        member = next(
            m
            for m in (f"gdo-{i}" for i in range(MEMBERS))
            if m != leader_id
        )
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True, seed=0, crash_points=((member, 1),)
            ),
            resilience=ResilienceConfig.supervised(),
        )
        with pytest.raises(MemberUnresponsiveError) as excinfo:
            _run(cohort, config)
        report = excinfo.value.report
        assert report is not None
        assert report.member_id == member
        assert report.cause == "enclave_crashed"
        assert isinstance(excinfo.value, ResilienceError)
        assert report.to_dict()["study_id"] == base_config.study_id

    def test_member_past_retry_budget_aborts_classified(
        self, cohort, base_config, leader_id
    ):
        member = next(
            m
            for m in (f"gdo-{i}" for i in range(MEMBERS))
            if m != leader_id
        )
        # A partition window so wide no retry budget can ride it out.
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True,
                seed=0,
                partition_windows=((member, 1, 10_000),),
            ),
            resilience=ResilienceConfig.supervised(max_attempts=3),
        )
        with pytest.raises(MemberUnresponsiveError) as excinfo:
            _run(cohort, config)
        assert excinfo.value.report.attempts == 3

    def test_bounded_partition_is_ridden_out(
        self, cohort, base_config, reference, leader_id
    ):
        member = next(
            m
            for m in (f"gdo-{i}" for i in range(MEMBERS))
            if m != leader_id
        )
        config = dataclasses.replace(
            base_config,
            faults=FaultConfig(
                enabled=True, seed=0, partition_windows=((member, 2, 2),)
            ),
            resilience=ResilienceConfig.supervised(max_attempts=6),
        )
        federation, result = _run(cohort, config)
        assert federation.fault_injector.counters()["partition_blocks"] >= 1
        assert study_decisions(result) == reference


class TestByzantineCheckpointRestore:
    """Tampered sealed checkpoints at failover (docs/RESILIENCE.md).

    With integrity verification on, leader ECALL 5 (``lead_run_maf``)
    sits just past the *second* checkpoint — crashing there forces a
    restore while a superseded sealed blob exists for the adversary to
    serve.
    """

    def _byzantine_config(self, base_config, leader_id, tamper, failovers):
        return dataclasses.replace(
            base_config,
            integrity=IntegrityConfig.on(),
            resilience=ResilienceConfig.supervised(max_failovers=failovers),
            faults=FaultConfig.byzantine(
                9,
                intensity=0.0,
                checkpoint_tamper=tamper,
                crash_points=((leader_id, 5),),
            ),
        )

    def test_corrupted_checkpoint_fails_closed_against_budget(
        self, cohort, base_config, leader_id
    ):
        config = self._byzantine_config(
            base_config, leader_id, "corrupt", failovers=2
        )
        federation = build_federation(
            config, partition_cohort(cohort, MEMBERS), cohort
        )
        with pytest.raises(SealingError):
            GenDPRProtocol(federation).run()
        # Every restore attempt consumed a failover and was counted:
        # the study never proceeds on unauthenticated state.
        assert federation.failovers == 2
        counters = federation.integrity_monitor.counters()
        assert counters["sealed_restore_failures"] >= 1
        assert counters["quarantines"] >= 1

    def test_stale_checkpoint_rejected_then_recovered(
        self, cohort, base_config, reference, leader_id
    ):
        config = self._byzantine_config(
            base_config, leader_id, "stale", failovers=3
        )
        federation = build_federation(
            config, partition_cohort(cohort, MEMBERS), cohort
        )
        result = GenDPRProtocol(federation).run()
        assert study_decisions(result) == reference
        counters = federation.integrity_monitor.counters()
        assert counters["stale_checkpoints_rejected"] == 1
        # The rejected rollback cost one failover; the clean restore
        # that followed cost another.
        assert federation.failovers == 2


class TestTeardown:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_finished_study_is_freed_without_the_cyclic_collector(
        self, cohort, base_config, supervised
    ):
        """No reference cycle keeps a finished study's federation alive.

        A study allocates few Python objects, so the cyclic collector
        can go many studies without running; anything held only by a
        cycle (every enclave, sealed store and channel) stays resident
        until it does.
        """
        config = base_config
        if supervised:
            config = dataclasses.replace(
                config, resilience=ResilienceConfig.supervised()
            )
        federation = build_federation(
            config, partition_cohort(cohort, MEMBERS), cohort
        )
        leader = weakref.ref(federation.enclaves[federation.leader_id])
        gc.collect()
        gc.disable()
        try:
            GenDPRProtocol(federation).run()
            del federation
            assert leader() is None
        finally:
            gc.enable()
