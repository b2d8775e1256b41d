"""Deterministic fault injection (:mod:`repro.faults`).

Seeded, replayable fault schedules (:class:`~repro.faults.plan.FaultPlan`) and the
runtime hook that applies them (:class:`~repro.faults.injector.FaultInjector`) to the
simulated network and the enclave ECALL boundary.  Disabled by
default; enabled per-study via :class:`repro.config.FaultConfig`.
"""
