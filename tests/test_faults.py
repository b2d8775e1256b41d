"""Deterministic fault injection (:mod:`repro.faults`)."""

from __future__ import annotations

import pytest

from repro.config import ENVELOPE_RATE_FIELDS, FaultConfig
from repro.errors import ConfigError, NetworkError
from repro.faults.injector import FaultInjector
from repro.faults.plan import ACTIONS, FaultPlan
from repro.net.message import Envelope
from repro.net.network import SimulatedNetwork
from repro.tee.enclave import Enclave, ecall, guarded


class _ToyEnclave(Enclave):
    @ecall
    def ping(self) -> str:
        return "pong"


def _plan(**faults) -> FaultPlan:
    return FaultPlan(FaultConfig(enabled=True, **faults))


def _network(*nodes: str) -> SimulatedNetwork:
    network = SimulatedNetwork()
    for node in nodes:
        network.register(node)
    return network


class TestFaultPlan:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigError):
            _plan(drop_rate=0.6, duplicate_rate=0.5)

    def test_decisions_are_deterministic_and_order_independent(self):
        a = _plan(seed=3, drop_rate=0.2, delay_rate=0.2)
        b = _plan(seed=3, drop_rate=0.2, delay_rate=0.2)
        coordinates = [("x", "y", i) for i in range(200)]
        forward = [a.action_for(*c) for c in coordinates]
        backward = [b.action_for(*c) for c in reversed(coordinates)]
        assert forward == backward[::-1]
        assert any(action is not None for action in forward)

    def test_different_seeds_differ(self):
        a = _plan(seed=1, drop_rate=0.3)
        b = _plan(seed=2, drop_rate=0.3)
        decisions_a = [a.action_for("x", "y", i) for i in range(100)]
        decisions_b = [b.action_for("x", "y", i) for i in range(100)]
        assert decisions_a != decisions_b

    def test_zero_rates_never_fault(self):
        plan = _plan(seed=9)
        assert all(
            plan.action_for("x", "y", i) is None for i in range(100)
        )

    def test_rates_are_approximated(self):
        plan = _plan(seed=4, drop_rate=0.25)
        drops = sum(
            1 for i in range(2000) if plan.action_for("x", "y", i) == "drop"
        )
        assert 0.18 < drops / 2000 < 0.32

    def test_chaos_preset_splits_intensity(self):
        config = FaultConfig.chaos(5, intensity=0.2)
        total = (
            config.drop_rate
            + config.duplicate_rate
            + config.delay_rate
            + config.corrupt_rate
        )
        assert total == pytest.approx(0.2)
        assert config.drop_rate == pytest.approx(2 * config.duplicate_rate)
        assert {f"{action}_rate" for action in ACTIONS} <= set(
            config.to_json_dict()
        )

    def test_actions_draw_with_their_own_rates(self):
        """The plan pairs ACTIONS with ENVELOPE_RATE_FIELDS by position."""
        assert tuple(f"{a}_rate" for a in ACTIONS) == ENVELOPE_RATE_FIELDS
        for action, name in zip(ACTIONS, ENVELOPE_RATE_FIELDS):
            plan = _plan(**{name: 1.0})
            assert plan.action_for("x", "y", 1) == action

    def test_digest_hashes_the_config_document(self):
        config = FaultConfig(enabled=True, seed=12, drop_rate=0.1)
        assert FaultPlan(config).digest() == config.digest()
        rebuilt = FaultConfig.from_json_dict(config.to_json_dict())
        assert FaultPlan(rebuilt).digest() == config.digest()


class TestFaultInjector:
    def test_drop_loses_the_envelope(self):
        plan = _plan(drop_rate=1.0)
        network = _network("a", "b")
        injector = FaultInjector(plan)
        network.install_fault_injector(injector)
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 0
        assert injector.counters()["drops"] == 1

    def test_duplicate_delivers_twice(self):
        plan = _plan(duplicate_rate=1.0)
        network = _network("a", "b")
        network.install_fault_injector(FaultInjector(plan))
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 2

    def test_delay_holds_until_released(self):
        plan = _plan(delay_rate=1.0)
        network = _network("a", "b")
        injector = FaultInjector(plan)
        network.install_fault_injector(injector)
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 0
        assert injector.release_delayed("b") == 1
        assert network.pending("b") == 1

    def test_corrupt_flips_a_byte_on_the_leader_leg(self):
        plan = _plan(corrupt_rate=1.0)
        network = _network("leader", "b")
        injector = FaultInjector(plan, leader_id="leader")
        network.install_fault_injector(injector)
        body = bytes(range(32))
        network.send(Envelope(sender="leader", receiver="b", tag="t", body=body))
        delivered = network.receive("b")
        assert delivered.body != body
        assert len(delivered.body) == len(body)
        # Exactly one byte differs, at the plan's deterministic offset.
        diffs = [i for i, (x, y) in enumerate(zip(body, delivered.body)) if x != y]
        assert diffs == [plan.corrupt_offset("leader", "b", 1, len(body))]

    def test_corrupt_degrades_to_drop_on_the_reply_leg(self):
        plan = _plan(corrupt_rate=1.0)
        network = _network("leader", "b")
        injector = FaultInjector(plan, leader_id="leader")
        network.install_fault_injector(injector)
        network.send(Envelope(sender="b", receiver="leader", tag="t", body=b"x"))
        assert network.pending("leader") == 0
        assert injector.counters()["drops"] == 1
        assert injector.counters()["corruptions"] == 0

    def test_partition_window_blocks_budgeted_sends(self):
        plan = _plan(partition_windows=(("b", 1, 2),))
        network = _network("a", "b")
        injector = FaultInjector(plan)
        network.install_fault_injector(injector)
        injector.begin_round()
        for _ in range(2):
            with pytest.raises(NetworkError):
                network.send(
                    Envelope(sender="a", receiver="b", tag="t", body=b"x")
                )
        # Budget exhausted: the partition has healed.
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 1
        assert injector.counters()["partition_blocks"] == 2

    def test_partition_window_waits_for_its_round(self):
        plan = _plan(partition_windows=(("b", 2, 1),))
        network = _network("a", "b")
        injector = FaultInjector(plan)
        network.install_fault_injector(injector)
        injector.begin_round()
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 1
        injector.begin_round()
        with pytest.raises(NetworkError):
            network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))

    def test_crash_point_tears_enclave_down_at_exact_ecall(self):
        plan = _plan(crash_points=(("e1", 3),))
        injector = FaultInjector(plan)
        enclave = _ToyEnclave(platform_key=bytes(32), enclave_id="e1")
        proxy = guarded(enclave, injector.on_ecall)
        assert proxy.ecall("ping") == "pong"
        assert proxy.ecall("ping") == "pong"
        from repro.errors import EnclaveCrashedError

        with pytest.raises(EnclaveCrashedError):
            proxy.ecall("ping")
        assert injector.counters()["crashes"] == 1

    def test_crash_point_fires_once_for_a_replaced_enclave(self):
        """ECALL indices keep growing per enclave id, so a replacement
        with the crashed enclave's id never meets the spent point."""
        from repro.errors import EnclaveCrashedError

        plan = _plan(crash_points=(("e1", 3),))
        injector = FaultInjector(plan)
        first = guarded(
            _ToyEnclave(platform_key=bytes(32), enclave_id="e1"), injector.on_ecall
        )
        for _ in range(2):
            first.ecall("ping")
        with pytest.raises(EnclaveCrashedError):
            first.ecall("ping")
        replacement = guarded(
            _ToyEnclave(platform_key=bytes(32), enclave_id="e1"), injector.on_ecall
        )
        assert [replacement.ecall("ping") for _ in range(3)] == ["pong"] * 3
        assert injector.counters()["crashes"] == 1

    def test_crash_point_only_hits_named_enclave(self):
        plan = _plan(crash_points=(("other", 1),))
        injector = FaultInjector(plan)
        enclave = _ToyEnclave(platform_key=bytes(32), enclave_id="e1")
        proxy = guarded(enclave, injector.on_ecall)
        assert proxy.ecall("ping") == "pong"
        assert injector.counters()["crashes"] == 0

    def test_reset_in_flight_discards_delayed(self):
        plan = _plan(delay_rate=1.0)
        network = _network("a", "b")
        injector = FaultInjector(plan)
        network.install_fault_injector(injector)
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert injector.reset_in_flight() == 1
        assert injector.release_delayed("b") == 0
        assert network.pending("b") == 0


class TestZeroOverheadWhenDisabled:
    def test_network_fast_path_without_injector(self):
        network = _network("a", "b")
        assert network._fault_injector is None
        network.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        assert network.pending("b") == 1

    def test_proxy_without_interceptor_returns_bound_method(self):
        enclave = _ToyEnclave(platform_key=bytes(32), enclave_id="e1")
        proxy = guarded(enclave)
        assert proxy.ecall == enclave.ecall

    def test_disabled_faults_do_not_change_study_fingerprint(self):
        import dataclasses
        from repro.config import ResilienceConfig, StudyConfig
        from repro.obs.report import config_fingerprint

        base = StudyConfig(snp_count=16)
        tweaked = dataclasses.replace(
            base,
            faults=FaultConfig.chaos(3),
            resilience=ResilienceConfig.supervised(),
        )
        assert config_fingerprint(base) == config_fingerprint(tweaked)
