"""The long-lived federation service: repro.serve."""

from __future__ import annotations

import time

import pytest

from repro.config import FaultConfig, StudyConfig
from repro.core.protocol import run_study
from repro.errors import (
    ConfigError,
    EnclaveCrashedError,
    ServiceError,
    ServiceOverloadedError,
    StudyCancelledError,
    UnknownStudyError,
)
from repro.fuzz.oracle import study_decisions
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.serve.config import ServiceConfig
from repro.serve.service import FederationService
from repro.serve.session import CANCELLED, DONE, FAILED, StudySession


@pytest.fixture(scope="module")
def cohort():
    built, _ = generate_cohort(
        SyntheticSpec(num_snps=30, num_case=48, num_control=40, seed=11)
    )
    return built


def study(study_id, *, seed=0, **overrides):
    return StudyConfig(snp_count=30, seed=seed, study_id=study_id, **overrides)


def _wait_until_running(service, study_id, attempts=500):
    """Poll until the dispatcher hands the study to a worker."""
    while service.status(study_id)["status"] == "queued" and attempts:
        attempts -= 1
        time.sleep(0.01)
    assert service.status(study_id)["status"] == "running"


class _GateHold:
    """Occupies round-gate slots so a submitted study blocks mid-run."""

    def __init__(self, service, cohort, count=None):
        session = StudySession("gate-hold", cohort, study("gate-hold"))
        gate = service._gate.session_gate(session)
        slots = count if count is not None else service.config.max_concurrent_rounds
        self._tickets = [gate("hold") for _ in range(slots)]

    def __enter__(self):
        for ticket in self._tickets:
            ticket.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        for ticket in self._tickets:
            ticket.__exit__(exc_type, exc, tb)
        return False


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(pool_size=0)
        with pytest.raises(ConfigError):
            ServiceConfig(pool_size=1, max_active=2)
        with pytest.raises(ConfigError):
            ServiceConfig(max_concurrent_rounds=0)
        with pytest.raises(ConfigError):
            ServiceConfig(service_id="bad//id")


class TestLifecycle:
    def test_submit_status_result(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            study_id = service.submit(cohort, study("svc-basic"))
            result = service.result(study_id, timeout=120)
            status = service.status(study_id)
        assert status["status"] == DONE
        assert status["rounds"] > 0
        solo = run_study(cohort, study("svc-basic"), 3)
        assert study_decisions(result) == study_decisions(solo)
        assert result.leader_id == solo.leader_id

    def test_per_request_run_report(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            study_id = service.submit(cohort, study("svc-report"))
            result = service.result(study_id, timeout=120)
        report = result.observability
        assert report is not None
        assert report.study_id == "svc-report"
        assert report.meta["slot"].startswith("service-0/slot-")
        assert "serve.rounds_gated" in report.metrics["counters"]

    def test_warm_slot_reuse(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            first = service.submit(cohort, study("svc-warm-0"))
            service.result(first, timeout=120)
            second = service.submit(cohort, study("svc-warm-1", seed=1))
            result = service.result(second, timeout=120)
            metrics = service.metrics()
            assert service.status(second)["warm"] is True
            assert service.status(first)["warm"] is False
        assert metrics["warm_hits"] == 1
        assert metrics["cold_provisions"] == 1
        assert metrics["retired_slots"] == 0
        # Warm reuse must not change the verdict.
        solo = run_study(cohort, study("svc-warm-1", seed=1), 3)
        assert study_decisions(result) == study_decisions(solo)
        assert result.leader_id == solo.leader_id

    def test_submit_validation(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            bad = StudyConfig(snp_count=29, study_id="svc-bad")
            with pytest.raises(ServiceError):
                service.submit(cohort, bad)
            service.submit(cohort, study("svc-dup"))
            with pytest.raises(ServiceError):
                service.submit(cohort, study("svc-dup"))
            service.result("svc-dup", timeout=120)

    def test_unknown_study(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            with pytest.raises(UnknownStudyError):
                service.status("nope")
            with pytest.raises(UnknownStudyError):
                service.result("nope")
            with pytest.raises(UnknownStudyError):
                service.cancel("nope")

    def test_close_cancels_queued(self, cohort):
        service = FederationService(ServiceConfig(pool_size=1, max_active=1))
        with _GateHold(service, cohort):
            running = service.submit(cohort, study("svc-close-0"))
            _wait_until_running(service, running)
            queued = service.submit(cohort, study("svc-close-1"))
            # Shutdown first (cancels the queued study, stops the
            # dispatcher), then release the running one.
            service.close(wait=False)
            service.cancel(running)
        service.close()
        assert service.status(queued)["status"] == CANCELLED
        with pytest.raises(ServiceError):
            service.submit(cohort, study("svc-late"))


class TestAmortization:
    """The warm pool pays provisioning once and decides as one-shot runs."""

    STUDIES = 8

    def test_warm_studies_match_one_shot_and_beat_cold_runs(self, cohort):
        configs = [study(f"svc-amortize-{i}") for i in range(self.STUDIES)]
        one_shot, cold_seconds = {}, []
        for config in configs:
            begin = time.perf_counter()
            one_shot[config.study_id] = run_study(cohort, config, 3)
            cold_seconds.append(time.perf_counter() - begin)
        service_config = ServiceConfig(
            pool_size=1, max_active=1, queue_limit=self.STUDIES
        )
        warm_seconds = []
        with FederationService(service_config) as service:
            for config in configs:
                service.submit(cohort, config)
            for config in configs:
                result = service.result(config.study_id, timeout=120)
                solo = one_shot[config.study_id]
                assert study_decisions(result) == study_decisions(solo)
                assert result.leader_id == solo.leader_id
                assert result.ocall_rounds == solo.ocall_rounds
                status = service.status(config.study_id)
                if status["warm"]:
                    warm_seconds.append(status["run_seconds"])
        # One slot: every study after the first binds to a warm substrate.
        assert len(warm_seconds) == self.STUDIES - 1
        warm_mean = sum(warm_seconds) / len(warm_seconds)
        assert warm_mean < sum(cold_seconds) / len(cold_seconds)


class TestAdmissionControl:
    def test_queue_full_rejection_is_classified(self, cohort):
        config = ServiceConfig(pool_size=1, max_active=1, queue_limit=1)
        service = FederationService(config)
        try:
            with _GateHold(service, cohort):
                running = service.submit(cohort, study("svc-adm-0"))
                _wait_until_running(service, running)
                service.submit(cohort, study("svc-adm-1"))
                with pytest.raises(ServiceOverloadedError):
                    service.submit(cohort, study("svc-adm-2"))
                metrics = service.metrics()
                assert metrics["rejected"] == 1
                assert metrics["queue_depth"] == 1
                service.cancel(running)
                service.cancel("svc-adm-1")
            with pytest.raises(StudyCancelledError):
                service.result(running, timeout=60)
        finally:
            service.close()

    def test_cancel_queued_is_immediate(self, cohort):
        service = FederationService(ServiceConfig(pool_size=1, max_active=1))
        try:
            with _GateHold(service, cohort):
                service.submit(cohort, study("svc-cq-0"))
                queued = service.submit(cohort, study("svc-cq-1"))
                assert service.cancel(queued) is True
                assert service.status(queued)["status"] == CANCELLED
                with pytest.raises(StudyCancelledError):
                    service.result(queued)
                service.cancel("svc-cq-0")
        finally:
            service.close()

    def test_cancel_mid_phase_retires_slot_and_drains_on(self, cohort):
        service = FederationService(ServiceConfig(pool_size=1, max_active=1))
        try:
            with _GateHold(service, cohort):
                study_id = service.submit(cohort, study("svc-mid"))
                # The study blocks at the round gate: running, no rounds.
                _wait_until_running(service, study_id)
                assert service.cancel(study_id) is True
            with pytest.raises(StudyCancelledError):
                service.result(study_id, timeout=60)
            assert service.status(study_id)["status"] == CANCELLED
            # The aborted study may have stranded channel sequence
            # state, so the slot is retired; the replacement serves the
            # next study bit-identically.
            follow_up = service.submit(cohort, study("svc-mid-next", seed=3))
            result = service.result(follow_up, timeout=120)
            metrics = service.metrics()
            assert metrics["retired_slots"] == 1
            assert metrics["cold_provisions"] == 2
        finally:
            service.close()
        solo = run_study(cohort, study("svc-mid-next", seed=3), 3)
        assert study_decisions(result) == study_decisions(solo)
        assert result.leader_id == solo.leader_id

    def test_cancel_after_done_returns_false(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            study_id = service.submit(cohort, study("svc-late-cancel"))
            service.result(study_id, timeout=120)
            assert service.cancel(study_id) is False

    def test_memory_budget_throttles_but_never_wedges(self, cohort):
        config = ServiceConfig(
            pool_size=2, max_active=2, enclave_memory_budget_bytes=1
        )
        with FederationService(config) as service:
            ids = [
                service.submit(cohort, study(f"svc-mem-{i}", seed=i))
                for i in range(3)
            ]
            for study_id in ids:
                service.result(study_id, timeout=120)
            assert service.metrics()["completed"] == 3


class TestFailureIsolation:
    def test_crash_aborts_only_its_session(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            crashing = study(
                "svc-crash",
                faults=FaultConfig(
                    enabled=True, seed=0, crash_points=(("gdo-1", 3),)
                ),
            )
            service.submit(cohort, crashing)
            with pytest.raises(EnclaveCrashedError):
                service.result("svc-crash", timeout=120)
            assert service.status("svc-crash")["status"] == FAILED
            # The poisoned slot was retired and replaced; the service
            # keeps draining the queue with correct results.
            healthy = service.submit(cohort, study("svc-after-crash"))
            result = service.result(healthy, timeout=120)
            metrics = service.metrics()
        assert metrics["retired_slots"] == 1
        assert metrics["cold_provisions"] == 2
        assert metrics["completed"] == 1 and metrics["failed"] == 1
        solo = run_study(cohort, study("svc-after-crash"), 3)
        assert study_decisions(result) == study_decisions(solo)
        assert result.leader_id == solo.leader_id

    def test_concurrent_sessions_match_solo(self, cohort):
        configs = [study(f"svc-conc-{i}", seed=i) for i in range(4)]
        solo = {c.study_id: run_study(cohort, c, 3) for c in configs}
        service_config = ServiceConfig(
            pool_size=2, max_active=2, max_concurrent_rounds=2
        )
        with FederationService(service_config) as service:
            for config in configs:
                service.submit(cohort, config)
            served = {
                c.study_id: service.result(c.study_id, timeout=120)
                for c in configs
            }
            metrics = service.metrics()
        for study_id, result in served.items():
            assert study_decisions(result) == study_decisions(solo[study_id])
            assert result.leader_id == solo[study_id].leader_id
        assert metrics["completed"] == 4
        assert metrics["rounds_admitted"] > 0


class TestScheduler:
    def test_gate_cancellation_is_classified(self, cohort):
        from repro.serve.scheduler import FairRoundGate

        gate = FairRoundGate(1)
        session = StudySession("gated", cohort, study("gated"))
        session.cancel_requested.set()
        with pytest.raises(StudyCancelledError):
            with gate.session_gate(session)("summaries"):
                pass
        # The gate stays usable for other sessions afterwards.
        other = StudySession("other", cohort, study("other"))
        with gate.session_gate(other)("summaries"):
            pass
        assert gate.stats()["rounds_admitted"] == 1

    def test_metrics_registry_bridge(self, cohort):
        with FederationService(ServiceConfig(pool_size=1, max_active=1)) as service:
            study_id = service.submit(cohort, study("svc-metrics"))
            service.result(study_id, timeout=120)
            registry = service.metrics_registry()
        snapshot = registry.as_dict()
        assert snapshot["counters"]["serve.completed"] == 1
        assert "serve.queue_depth" in snapshot["gauges"]
        assert "serve.warm_hit_rate" in snapshot["gauges"]
