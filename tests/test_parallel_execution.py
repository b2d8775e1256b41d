"""Parallel round execution: equivalence, round counts, thread safety.

The concurrent OCALL fan-out must be a pure wall-clock optimisation:
both execution modes produce bit-identical study *decisions* (retained
sets, release power, per-combination safe sets) in the same OCALL
rounds.  These tests pin that contract, the batched Phase-3 round
count, and the thread safety of the simulated network the fan-out
relies on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro import CollusionPolicy, StudyConfig, run_study
from repro.config import ExecutionConfig
from repro.errors import ConfigError, NetworkError
from repro.fuzz.oracle import study_decisions
from repro.net import Envelope, SimulatedNetwork


def _run(small_cohort, *, members: int, f: int, mode: str):
    config = StudyConfig(
        snp_count=small_cohort.num_snps,
        collusion=CollusionPolicy.static(f) if f else CollusionPolicy.none(),
        seed=5,
        study_id=f"exec-{members}g-f{f}-{mode}",
        execution=(
            ExecutionConfig.parallel()
            if mode == "parallel"
            else ExecutionConfig.sequential()
        ),
    )
    return run_study(small_cohort, config, num_members=members)


class TestExecutionConfig:
    def test_defaults_sequential(self):
        config = ExecutionConfig()
        assert config.mode == "sequential" and not config.is_parallel

    def test_parallel_constructor(self):
        config = ExecutionConfig.parallel(max_workers=4)
        assert config.is_parallel and config.max_workers == 4

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(mode="turbo")

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(mode="parallel", max_workers=0)

    def test_fingerprint_excludes_execution(self, small_cohort):
        from repro.obs import config_fingerprint

        base = StudyConfig(snp_count=small_cohort.num_snps, study_id="fp")
        assert config_fingerprint(base) == config_fingerprint(
            replace(base, execution=ExecutionConfig.parallel(max_workers=2))
        )


class TestModeEquivalence:
    """Sequential and parallel runs decide bit-identically."""

    @pytest.mark.parametrize("members", [3, 5])
    @pytest.mark.parametrize("f", [0, 1])
    def test_bit_identical_decisions(self, small_cohort, members, f):
        sequential = _run(small_cohort, members=members, f=f, mode="sequential")
        parallel = _run(small_cohort, members=members, f=f, mode="parallel")
        assert study_decisions(sequential) == study_decisions(parallel)
        assert sequential.ocall_rounds == parallel.ocall_rounds
        assert parallel.execution_mode == "parallel"
        assert sequential.execution_mode == "sequential"

    def test_max_workers_clamp_preserves_results(self, small_cohort):
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            seed=5,
            study_id="exec-1worker",
            execution=ExecutionConfig.parallel(max_workers=1),
        )
        narrow = run_study(small_cohort, config, num_members=3)
        wide = _run(small_cohort, members=3, f=0, mode="parallel")
        assert study_decisions(narrow) == study_decisions(wide)
        assert narrow.ocall_rounds == wide.ocall_rounds


class TestBatchedRounds:
    def test_lr_is_one_round_with_collusion(self, small_cohort):
        """f=1, G=5: C(5,4)+1 combinations plus the plain track used to
        take seven ``lr`` rounds; the batched protocol takes one."""
        result = _run(small_cohort, members=5, f=1, mode="sequential")
        assert result.ocall_rounds["lr"] == 1

    def test_lr_is_one_round_without_collusion(self, study_result):
        assert study_result.ocall_rounds["lr"] == 1

    def test_round_counts_identical_across_modes(self, small_cohort):
        sequential = _run(small_cohort, members=3, f=1, mode="sequential")
        parallel = _run(small_cohort, members=3, f=1, mode="parallel")
        assert sequential.ocall_rounds == parallel.ocall_rounds


class TestNetworkThreadSafety:
    def test_concurrent_senders_lose_no_messages(self):
        network = SimulatedNetwork()
        senders = [f"s{i}" for i in range(4)]
        for node in senders + ["sink"]:
            network.register(node)
        per_sender = 200

        def flood(sender: str) -> None:
            for i in range(per_sender):
                network.send(
                    Envelope(
                        sender=sender,
                        receiver="sink",
                        tag="stress",
                        body=f"{sender}:{i}".encode(),
                    )
                )

        with ThreadPoolExecutor(len(senders)) as pool:
            list(pool.map(flood, senders))
        assert network.pending("sink") == per_sender * len(senders)
        total = network.total_stats()
        assert total.messages == per_sender * len(senders)
        # Per-link FIFO order survives concurrent interleaving.
        seen = {sender: -1 for sender in senders}
        while network.pending("sink"):
            envelope = network.receive("sink", "stress")
            sender, index = envelope.body.decode().split(":")
            assert int(index) == seen[sender] + 1
            seen[sender] = int(index)

    def test_concurrent_disjoint_send_receive(self):
        """Workers servicing different inboxes never interfere."""
        network = SimulatedNetwork()
        workers = [f"w{i}" for i in range(4)]
        network.register("leader")
        for node in workers:
            network.register(node)
        rounds = 100
        errors: list = []

        def serve(worker: str) -> None:
            try:
                for i in range(rounds):
                    network.send(
                        Envelope(
                            sender="leader",
                            receiver=worker,
                            tag="req",
                            body=b"ping",
                        )
                    )
                    got = network.receive(worker, "req")
                    assert got.sender == "leader"
                    network.send(
                        Envelope(
                            sender=worker,
                            receiver="leader",
                            tag="req",
                            body=f"{worker}:{i}".encode(),
                        )
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(len(workers)) as pool:
            list(pool.map(serve, workers))
        assert not errors
        assert network.pending("leader") == rounds * len(workers)
        assert network.total_stats().messages == 2 * rounds * len(workers)

    def test_duplicate_registration_rejected(self):
        network = SimulatedNetwork()
        network.register("a")
        with pytest.raises(NetworkError):
            network.register("a")


class TestLockOrderCrossCheck:
    """Runtime lock orders must be consistent with R4's static graph.

    R4 only sees syntactic ``with``-nesting; orders created through
    call chains (``_ReplyRouter.pump()`` holds its lock while
    ``SimulatedNetwork.receive`` takes an inbox lock) are invisible to
    it.  This test instruments every lock in the network and resilience
    layers, drives a resilience-enabled parallel study, and asserts the
    union of the static and the observed acquisition graphs is acyclic.
    """

    def test_parallel_supervised_run_stays_acyclic(
        self, small_cohort, monkeypatch
    ):
        import pathlib

        import repro.core.resilience as resilience_module
        import repro.net.network as network_module
        from repro.config import ResilienceConfig
        from repro.lint import LintConfig, OrderedLockFactory, combined_cycles
        from repro.lint.engine import load_module
        from repro.lint.rules.locks import extract_lock_edges

        factory = OrderedLockFactory()
        monkeypatch.setattr(network_module, "threading", factory.shim())
        monkeypatch.setattr(resilience_module, "threading", factory.shim())

        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy.static(1),
            seed=5,
            study_id="lock-order-crosscheck",
            execution=ExecutionConfig.parallel(),
            resilience=ResilienceConfig.supervised(),
        )
        result = run_study(small_cohort, config, num_members=4)
        assert result.execution_mode == "parallel"

        # The instrumented locks really were exercised, under the same
        # canonical names R4 derives statically.
        counts = factory.acquisition_counts()
        assert counts, "no instrumented lock was ever acquired"
        assert any("SimulatedNetwork" in name for name in counts)
        assert any("_ReplyRouter" in name for name in counts)

        static_edges = []
        for module_file in (network_module.__file__,
                            resilience_module.__file__):
            loaded = load_module(pathlib.Path(module_file), LintConfig())
            edges, _ = extract_lock_edges(loaded)
            static_edges.extend(
                (edge.outer, edge.inner) for edge in edges
            )

        runtime_edges = factory.edges()
        # The call-chain edge static analysis cannot see must have been
        # observed at runtime — that is what this harness adds.
        assert any(
            outer.startswith("_ReplyRouter") for outer, _ in runtime_edges
        )
        cycles = combined_cycles(static_edges, runtime_edges)
        assert cycles == [], (
            "lock acquisition-order cycle across static+runtime graphs: "
            f"{cycles}"
        )
