"""Self-time accounting, purposes, wrapper removal and the layer report."""

import threading

import pytest

import spec
from ledger import Ledger, layer_metrics, parse_importtime


class StepClock:
    """A clock each thread advances by hand."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds):
        self._local.now = self() + seconds


def study_thread(ledger, clock, barrier=None):
    def step(seconds):
        clock.advance(seconds)
        if barrier is not None:
            barrier.wait(timeout=10)

    with ledger.study():
        outer = ledger.enter("a")
        step(1.0)
        inner = ledger.enter("b")
        step(2.0)
        ledger.exit(inner)
        step(3.0)
        ledger.exit(outer)
        step(4.0)


def worker_thread(ledger, clock, barrier):
    def step(seconds):
        clock.advance(seconds)
        barrier.wait(timeout=10)

    outer = ledger.enter("c")
    step(5.0)
    inner = ledger.enter("d")
    step(1.0)
    ledger.exit(inner)
    step(0.5)
    ledger.exit(outer)
    step(0.0)


def test_nested_self_time():
    clock = StepClock()
    ledger = Ledger(clock)
    study_thread(ledger, clock)
    assert ledger.seconds == {"a": 4.0, "b": 2.0}
    assert ledger.other_seconds == 4.0
    assert ledger.study_walls == [10.0]
    assert ledger.study_self_seconds == 6.0
    assert ledger.reconciliation_error() == 0.0
    assert ledger.worker_busy_seconds == 0.0


def test_two_threads_keep_separate_stacks():
    clock = StepClock()
    ledger = Ledger(clock)
    barrier = threading.Barrier(2)
    threads = [
        threading.Thread(target=study_thread, args=(ledger, clock, barrier)),
        threading.Thread(target=worker_thread, args=(ledger, clock, barrier)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert ledger.seconds == {"a": 4.0, "b": 2.0, "c": 5.5, "d": 1.0}
    # Worker time is reported as busy time, never in the study sum.
    assert ledger.worker_busy_seconds == 6.5
    assert ledger.study_walls == [10.0]
    assert ledger.reconciliation_error() == 0.0


def test_out_of_order_exit_is_refused():
    ledger = Ledger()
    outer = ledger.enter("a")
    ledger.enter("b")
    with pytest.raises(RuntimeError):
        ledger.exit(outer)


def test_purpose_comes_from_the_nearest_caller_that_names_one():
    ledger = Ledger()
    seen = []

    def leaf():
        seen.append(ledger.purpose())

    wrapped_leaf = ledger.timed(leaf, lambda args, purpose: f"leaf.{purpose}")
    reader = ledger.timed(lambda: wrapped_leaf(), "reader", purpose="storage")
    plain = ledger.timed(lambda: wrapped_leaf(), "plain")
    with ledger.study():
        reader()
        plain()
    assert seen == ["storage", "frame"]
    assert set(ledger.seconds) == {"leaf.storage", "leaf.frame", "reader", "plain"}


def test_study_only_wrapper_passes_through_elsewhere():
    ledger = Ledger()
    wait = ledger.timed(lambda: None, "exchange.wait", study_only=True)
    wait()
    assert "exchange.wait" not in ledger.seconds
    with ledger.study():
        wait()
    assert "exchange.wait" in ledger.seconds


def _targets():
    from concurrent.futures import Future

    import repro.core.enclave_logic as enclave_logic
    import repro.core.federation as federation
    import repro.core.pipeline as pipeline
    import repro.core.provision as provision
    import repro.crypto.authenticated as authenticated
    import repro.net.serialization as serialization
    import repro.serve.pool as pool
    import repro.serve.service as service
    import repro.stats.chisq as chisq
    import repro.stats.ld as ld
    import repro.stats.lr_test as lr_test
    import repro.tee.enclave as enclave
    from repro.net.network import ScopedNetwork, SimulatedNetwork
    from repro.tee.channel import ChannelEndpoint
    from repro.tee.storage import ColumnReader

    return [
        (federation, "provision_substrate"),
        (pool, "provision_substrate"),
        (federation, "establish_channel"),
        (federation, "bind_study"),
        (provision, "bind_study"),
        (enclave.Enclave, "ecall"),
        (enclave_logic, "seal"),
        (enclave_logic, "seal_matrix"),
        (Future, "result"),
        (pipeline, "ld_prune"),
        (ld, "pair_moments_kernel"),
        (ld, "window_pairs"),
        (chisq, "rank_pvalues"),
        (lr_test, "lr_matrix"),
        (authenticated.StreamAead, "encrypt"),
        (authenticated.StreamAead, "decrypt"),
        (authenticated, "derive_subkey"),
        (enclave, "derive_subkey"),
        (ChannelEndpoint, "protect"),
        (ChannelEndpoint, "open"),
        (serialization, "encode"),
        (serialization, "decode"),
        (SimulatedNetwork, "send"),
        (SimulatedNetwork, "receive"),
        (SimulatedNetwork, "drain"),
        (ScopedNetwork, "send"),
        (ColumnReader, "columns"),
        (ColumnReader, "column"),
        (ColumnReader, "column_sums"),
        (service.FederationService, "_run_session"),
    ]


def test_traced_pass_restores_the_original_functions():
    targets = _targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    ledger = Ledger()
    with pytest.raises(KeyError):
        with ledger.installed(
            roots=(("repro.serve.service", "FederationService._run_session"),)
        ):
            for owner, attr, original in before:
                assert vars(owner).get(attr) is not original, (owner, attr)
            raise KeyError("abort the pass")
    for owner, attr, original in before:
        # Inherited methods (StreamAead's AEAD) must be inherited again.
        assert vars(owner).get(attr) is original, (owner, attr)


def test_traced_study_attributes_layers_and_reconciles():
    from repro.bench.workloads import paper_config
    from repro.core.protocol import run_study
    from repro.genomics import SyntheticSpec, generate_cohort

    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=120, num_case=90, num_control=80, seed=5)
    )
    ledger = Ledger()
    with ledger.installed():
        with ledger.study():
            result = run_study(cohort, paper_config(120, study_id="t"), 3)
    ledger.record_rounds(result.ocall_rounds)
    assert ledger.reconciliation_error() == pytest.approx(0.0, abs=1e-9)
    counts = ledger.counts
    assert counts["ecall.lead_run_ld.calls"] == 1
    assert sum(
        value for key, value in counts.items() if key.startswith("net.bytes.")
    ) == result.network_bytes
    assert ledger.seconds["crypto.open.storage"] > 0
    assert counts["rounds.ld"] == result.ocall_rounds["ld"]


def test_layer_metrics_fold_and_scale_per_study():
    snapshot = {
        "seconds": {
            "ecall.lead_run_ld": 2.0,
            "ecall.configure": 0.5,
            "ecall.answer_summary": 0.5,
            "kernel.lr_matrix": 1.0,
            "channel.open": 0.25,
            "crypto.open.storage": 3.0,
        },
        "counts": {
            "ecall.configure.calls": 10,
            "net.bytes.transcript.prime": 40,
            "net.bytes.transcript.safe": 60,
            "net.bytes.gossip": 8,
            "rounds.ld": 6,
            "rounds.transcript.safe": 2,
            "rounds.repair": 2,
            "ld.comparisons": 100,
            "ld.pairs_requested": 800,
        },
        "study_walls": [4.0, 6.0],
        "other": 1.0,
        "study_self": 9.0,
        "worker_busy": 0.5,
    }
    metrics = layer_metrics(
        snapshot,
        startup={"startup.import_s": 1.5},
        service={"serve.warm_hit_rate": 0.75},
        overhead_ratio=1.1,
    )
    assert [name for name, _unit in spec.PER_LAYER] == list(metrics)
    assert metrics["ecall.lead_run_ld.self_s"] == 1.0
    assert metrics["ecall.other.self_s"] == 0.5
    assert metrics["ecall.other.calls"] == 5
    assert metrics["kernel.lr_matrix.self_s"] == 0.5
    assert metrics["channel.open_self_s"] == 0.125
    assert metrics["crypto.open.storage_s"] == 1.5
    assert metrics["net.bytes.transcript"] == 50
    assert metrics["net.bytes.other"] == 4
    assert metrics["rounds.other"] == 1
    assert metrics["rounds.total"] == 5
    assert metrics["ld.lookahead_misses"] == 2
    per_member = 800 / (spec.MEMBERS - 1) / 2
    assert metrics["ld.pairs_fetched"] == per_member
    assert metrics["ld.useful_ratio"] == 50 / per_member
    assert metrics["other.self_s"] == 0.5
    assert metrics["exchange.worker_busy_s"] == 0.25
    assert metrics["trace.study_wall_s"] == 5.0
    assert metrics["trace.studies"] == 2
    assert metrics["startup.import_s"] == 1.5
    assert metrics["serve.warm_hit_rate"] == 0.75


REPORT = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:       200 |        300 |   numpy
import time:        50 |         50 |       scipy.special
import time:       400 |        450 |     scipy.stats
import time:        10 |        460 |   scipy
import time:        30 |        790 | repro
import time:        20 |         20 |   repro.x
import time:         5 |         25 | repro.cli
import time:        70 |         70 | json
"""


def test_importtime_counts_outermost_imports():
    metrics = parse_importtime(REPORT)
    assert metrics == {
        "startup.import_s": 815e-6,
        "startup.import_scipy_s": 460e-6,
        "startup.import_numpy_s": 300e-6,
        "startup.import_repro_self_s": 55e-6,
    }
