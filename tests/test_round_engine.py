"""The round engine: one delivery path for OCALL, combine and echo rounds.

Every round kind runs through :class:`repro.core.resilience.RoundEngine`,
so every kind gets the same retry policy, the same classified aborts and
the same ``resilience.*`` accounting.  These tests pin that for echo
rings and combine levels, plus the engine's own rules: one lane per
receiver, protected frames always shipped, and no reply lost to
contention on the shared leader inbox.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.config import (
    ExecutionConfig,
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
from repro.core.resilience import RoundEngine
from repro.core.timing import RoundAccounting
from repro.errors import MemberUnresponsiveError, ProtocolError
from repro.genomics.partition import partition_cohort
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.net.message import Envelope
from repro.net.network import SimulatedNetwork

STUDY_ID = "round-engine"
STUDY_SEED = 5


@pytest.fixture(scope="module")
def cohort():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=80, num_case=120, num_control=100, seed=5)
    )
    return cohort


def _config(cohort, **overrides) -> StudyConfig:
    return StudyConfig(
        snp_count=cohort.num_snps,
        study_id=STUDY_ID,
        seed=STUDY_SEED,
        **overrides,
    )


def _run(cohort, config, members):
    federation = build_federation(
        config, partition_cohort(cohort, members), cohort
    )
    return GenDPRProtocol(federation).run()


def test_lost_echo_is_a_classified_abort(cohort):
    """An echo that never arrives exhausts the budget like any frame.

    Round 4 is the first ``echo`` round of an integrity run (summary,
    transcript, retained, echo); the partition outlasts every attempt.
    """
    members = [f"gdo-{i}" for i in range(3)]
    leader = elect_leader(members, STUDY_SEED, STUDY_ID)
    victim = next(m for m in members if m != leader)
    config = _config(
        cohort,
        resilience=ResilienceConfig.supervised(),
        integrity=IntegrityConfig.on(),
        faults=FaultConfig(
            enabled=True, seed=0, partition_windows=((victim, 4, 60),)
        ),
    )
    with pytest.raises(MemberUnresponsiveError) as excinfo:
        _run(cohort, config, members=3)
    report = excinfo.value.report
    assert report is not None
    assert report.round_kind == "echo"
    assert report.attempts == config.resilience.max_attempts


@pytest.mark.parametrize("node", [f"gdo-{i}" for i in range(4)])
def test_combine_retries_reach_resilience_metrics(cohort, node):
    """A combine-edge retry is a retry: it backs off and is counted.

    Round 3 is the first ``shard:counts`` level.  A one-op partition on
    a node that level does not touch blocks that node's next send, the
    next level's; either way exactly one combine delivery retries once.
    """
    config = _config(
        cohort,
        sharding=ShardingConfig.over(2),
        resilience=ResilienceConfig.supervised(),
        faults=FaultConfig(
            enabled=True, seed=0, partition_windows=((node, 3, 1),)
        ),
        observability=ObservabilityConfig(enabled=True),
    )
    metrics = _run(cohort, config, members=4).observability.metrics
    counters, gauges = metrics["counters"], metrics["gauges"]
    assert counters["shard.repair.level_retries"] == 1
    assert counters["resilience.retries"] == 1
    assert gauges["resilience.backoff_s"] == pytest.approx(0.05)


def test_parallel_fan_out_keeps_the_wire_identical(cohort):
    """Parallel fan-out sends exactly the sequential run's frames.

    Five members put two tree children under one parent; their
    deliveries share a lane, so neither discards the other's frame and
    no fault-free delivery retries.  Echo rings count as rounds.
    """
    results = {
        mode: _run(
            cohort,
            _config(
                cohort,
                sharding=ShardingConfig.over(2),
                integrity=IntegrityConfig.on(),
                execution=ExecutionConfig(mode=mode),
                resilience=ResilienceConfig.supervised(),
                observability=ObservabilityConfig(enabled=True),
            ),
            members=5,
        )
        for mode in ("sequential", "parallel")
    }
    sequential, parallel = results["sequential"], results["parallel"]
    assert parallel.network_bytes == sequential.network_bytes
    assert parallel.network_messages == sequential.network_messages
    assert parallel.ocall_rounds == sequential.ocall_rounds
    assert parallel.ocall_rounds["echo"] == 3
    assert parallel.l_safe == sequential.l_safe
    counters = parallel.observability.metrics["counters"]
    assert counters["resilience.retries"] == 0
    assert counters["resilience.junk_discarded"] == 0


def _engine(*nodes: str, workers: int = 3, hosts=None) -> RoundEngine:
    """A parallel engine over a bare network: no enclaves, no faults."""
    network = SimulatedNetwork()
    for node in nodes:
        network.register(node)
    federation = SimpleNamespace(
        config=StudyConfig(
            snp_count=1,
            execution=ExecutionConfig.parallel(max_workers=workers),
        ),
        network=network,
        leader_id=nodes[0],
        hosts=hosts or dict.fromkeys(nodes),
        fault_injector=None,
    )
    return RoundEngine(federation, RoundAccounting())


def test_edges_sharing_a_receiver_are_delivered_in_edge_order():
    """Deliveries to one receiver never overlap, even on a wide pool."""
    engine = _engine("a", "b", "p", "q")
    lock = threading.Lock()
    active = {"p": 0, "q": 0}
    overlaps, order = [], []

    def handler(envelope):
        with lock:
            active[envelope.receiver] += 1
            if active[envelope.receiver] > 1:
                overlaps.append(envelope.receiver)
            order.append((envelope.sender, envelope.receiver))
        time.sleep(0.02)
        with lock:
            active[envelope.receiver] -= 1

    try:
        engine.run(
            "t", [("a", "p", b"1"), ("b", "p", b"2"), ("a", "q", b"3")], handler
        )
    finally:
        engine.close()
    assert overlaps == []
    assert [edge for edge in order if edge[1] == "p"] == [("a", "p"), ("b", "p")]


def test_protected_frames_ship_before_a_failed_emit_is_raised():
    """A sibling's failed emit neither drops nor blocks the other frame."""
    engine = _engine("a", "b", "p")
    delivered = []

    def emit(sender, receiver):
        if sender == "a":
            raise ProtocolError("emit failed")
        return b"frame-from-" + sender.encode()

    try:
        with pytest.raises(ProtocolError, match="emit failed"):
            engine.run(
                "t",
                [("a", "p", None), ("b", "p", None)],
                lambda envelope: delivered.append(envelope.body),
                emit=emit,
            )
    finally:
        engine.close()
    assert delivered == [b"frame-from-b"]


class _EchoHost:
    """A member host that answers every frame with its reversed bytes."""

    def __init__(self, node: str):
        self.node = node

    def handle_envelope(self, envelope):
        return Envelope(
            sender=self.node,
            receiver=envelope.sender,
            tag=envelope.tag,
            body=envelope.body[::-1],
        )


def test_parallel_ocall_rounds_lose_no_reply_under_contention():
    """Eight lanes on two cores, switching every microsecond: every
    member's reply reaches its slot, once, in every round."""
    members = [f"m{i}" for i in range(8)]
    nodes = ["leader", *members]
    engine = _engine(
        *nodes,
        workers=len(members),
        hosts={node: _EchoHost(node) for node in nodes},
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    deadline = time.monotonic() + 20.0
    try:
        for round_index in range(40):
            frames = {m: f"{m}/{round_index}".encode() for m in members}
            replies = engine(f"r{round_index % 3}", frames)
            assert replies == {m: frame[::-1] for m, frame in frames.items()}
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    stats = engine.stats()
    assert stats["rounds"] == 40
    assert stats["retries"] == 0
    assert stats["junk_discarded"] == 0
    assert stats["replies_deduped"] == 0
