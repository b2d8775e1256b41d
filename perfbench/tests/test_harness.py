"""Tail rule, decision check, result assembly and the committed spec."""

import json
import os

import pytest

import harness
import run
import spec
import workloads


def test_tail_has_at_least_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 31)]  # 30 samples
    value, percentile = harness.tail(values)
    assert value == 20.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_of_twenty_is_the_lower_median_point():
    value, percentile = harness.tail([float(v) for v in range(20)])
    assert (value, percentile) == (9.0, 50.0)


def test_short_sample_falls_back_to_the_median():
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert harness.tail([float(v) for v in range(19)]) == (9.0, 50.0)


class FakeWorkload(workloads.Workload):
    """Studies that return prepared decisions instantly."""

    name = "fake"

    def __init__(self, observed):
        super().__init__(seed=0, workdir="")
        self.observed = observed

    def setup(self):
        self.expected = [dict(self.observed) for _ in range(spec.COHORTS)]

    def study(self, phase, index, ledger):
        return workloads.Sample(
            wall_s=0.01, model_s=0.005, wire_bytes=100,
            error=self.check(index, self.observed),
        )


DECISIONS = {
    "l_prime": [1, 2, 3],
    "l_double_prime": [1, 3],
    "l_safe": [3],
    "release_power": 0.5,
}


def _timed_result(workload):
    phase = workloads.run_phase(workload, 0.0, "timed")
    samples = [vars(sample) for sample in phase.samples]
    return phase, samples


def test_every_cohort_gets_a_study():
    workload = FakeWorkload(DECISIONS)
    workload.setup()
    phase, samples = _timed_result(workload)
    assert len(samples) == spec.COHORTS
    assert all(sample["error"] == "" for sample in samples)


def test_injected_decision_mismatch_raises_failed_fraction(monkeypatch, tmp_path):
    workload = FakeWorkload(DECISIONS)
    workload.setup()
    workload.expected[2] = dict(DECISIONS, l_safe=[1])
    phase, samples = _timed_result(workload)
    assert [bool(sample["error"]) for sample in samples].count(True) == 1
    assert "l_safe" in samples[2]["error"]

    def fake_spawn(arguments, budget_s):
        worker = run.WorkerRun()
        worker.exit_code, worker.ready_s, worker.peak_rss_mib = 0, 1.0, 50.0
        worker.result = {
            "samples": samples,
            "elapsed_s": phase.elapsed_s or 1.0,
            "child_rss_mib": 0.0,
            "host": {},
        }
        return worker

    monkeypatch.setattr(run, "spawn_worker", fake_spawn)
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    result = run.run_workload("serve-warm", 0, 1.0, trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (spec.COHORTS, 1)
    assert result["notes"]["failed_fraction"] == 1 / spec.COHORTS
    assert set(result["metrics"]) == {name for name, *_ in spec.END_TO_END}


def test_real_study_matches_the_pooled_reference_until_tampered():
    from repro.bench.workloads import paper_config
    from repro.core.protocol import run_study
    from repro.genomics import SyntheticSpec, generate_cohort

    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=120, num_case=90, num_control=80, seed=3)
    )
    expected = workloads.pooled_reference(cohort)
    observed = harness.decisions_of(
        run_study(cohort, paper_config(120, study_id="check"), 3)
    )
    assert harness.check_decisions(observed, expected) == []
    tampered = dict(expected, release_power=expected["release_power"] + 1e-12)
    assert harness.check_decisions(observed, tampered) == ["release_power"]


def test_end_to_end_ignores_failed_studies_and_keeps_units():
    samples = [
        {"wall_s": 1.0, "model_s": 0.5, "wire_bytes": 10, "error": ""},
        {"wall_s": 3.0, "model_s": 1.5, "wire_bytes": 30, "error": ""},
        {"wall_s": 99.0, "model_s": 0.0, "wire_bytes": 0, "error": "boom"},
    ]
    metrics, notes = run.end_to_end(samples, 4.0, [2.0, 1.0, 3.0], 128.0)
    assert metrics["wall_ms_p50"] == {"value": 2000.0, "unit": "ms"}
    assert metrics["model_ms_p50"]["value"] == 1000.0
    assert metrics["studies_per_s"] == {"value": 0.5, "unit": "1/s"}
    assert metrics["wire_bytes_per_study"]["value"] == 20.0
    assert metrics["setup_s"] == {"value": 2.0, "unit": "s"}
    assert metrics["peak_rss_mb"]["value"] == 128.0
    assert notes["wall_ms_tail percentile"] == "p50.0 of 2 studies"


def test_committed_benchmark_json_is_the_catalogue():
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_catalogue_fits_the_benchmark_contract():
    document = spec.benchmark_json()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert len(document["per_layer"]) <= 128
    assert all(len(name) <= 64 for name in names)
    assert max(m["bound"] for m in document["end_to_end"]) == next(
        m["bound"] for m in document["end_to_end"] if m["name"] == "setup_s"
    )
    assert all(len(w["why"]) <= 200 for w in document["workloads"])
    runnable = {**spec.WORKLOADS, **spec.MANUAL_WORKLOADS}
    assert set(runnable) == set(workloads.WORKLOADS)
