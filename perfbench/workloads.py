"""The three workloads: cohorts from the seed, setup, reference, studies.

Every workload runs the paper cohort shape of :mod:`spec` with the
paper thresholds.  A run draws :data:`spec.COHORTS` cohorts from its
seed and its studies cycle through them, study ``k`` on cohort
``k % COHORTS``.  The program only ever receives the generated cohorts.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import harness
import spec
from ledger import Ledger

#: Seconds a single study may take before it counts as failed.
STUDY_TIMEOUT = 120.0
#: Bootstrap that runs ``repro.cli.main`` under the ledger.
CLI_HOOK = os.path.join(harness.BENCH_DIR, "clihook.py")


@dataclass
class Sample:
    """One study as the client saw it."""

    wall_s: float
    model_s: float = 0.0
    wire_bytes: float = 0.0
    error: str = ""
    #: serve-warm: the pool slot and its cumulative byte count.
    slot: str = ""
    slot_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Phase:
    samples: List[Sample]
    elapsed_s: float


def cohort_seeds(seed: int) -> List[int]:
    """The cohort seeds of one workload seed (disjoint across seeds)."""
    return [(seed * spec.COHORTS + i) % 2**32 for i in range(spec.COHORTS)]


def build_cohorts(seed: int) -> list:
    from repro.bench.workloads import (
        PAPER_CASE_FULL,
        clear_cohort_cache,
        paper_cohort,
    )

    cohorts = []
    for cohort_seed in cohort_seeds(seed):
        # paper_cohort caches by population shape, not by seed.
        clear_cohort_cache()
        cohort, _truth = paper_cohort(
            PAPER_CASE_FULL, spec.SNPS, scale=spec.SCALE, seed=cohort_seed
        )
        cohorts.append(cohort)
    clear_cohort_cache()
    return cohorts


def pooled_reference(cohort) -> Dict[str, Any]:
    """Decisions of the centralized pipeline over the pooled cohort."""
    from repro.bench.workloads import PAPER_THRESHOLDS as thresholds
    from repro.core.pipeline import run_local_pipeline

    outcome = run_local_pipeline(
        cohort.case.array(),
        cohort.reference.array(),
        maf_cutoff=thresholds.maf_cutoff,
        ld_cutoff=thresholds.ld_cutoff,
        alpha=thresholds.false_positive_rate,
        beta=thresholds.power_threshold,
    )
    return {
        "l_prime": [int(s) for s in outcome.l_prime],
        "l_double_prime": [int(s) for s in outcome.l_double_prime],
        "l_safe": [int(s) for s in outcome.l_safe],
        "release_power": float(outcome.release_power),
    }


def run_phase(
    workload: "Workload",
    seconds: float,
    phase: str,
    ledger: Optional[Ledger] = None,
    min_studies: int = spec.COHORTS,
) -> Phase:
    """Closed loop: each client starts its next study when one returns.

    Runs until ``seconds`` have passed and at least ``min_studies`` were
    started (by default one per cohort).
    """
    counter = itertools.count()
    lock = threading.Lock()
    samples: List[Sample] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    finished = [begin]

    def client() -> None:
        while True:
            with lock:
                index = next(counter)
                if index >= min_studies and time.perf_counter() >= deadline:
                    return
            sample = workload.study(phase, index, ledger)
            with lock:
                samples.append(sample)
                finished[0] = time.perf_counter()

    if workload.clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"client-{n}", daemon=True)
            for n in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 2 * STUDY_TIMEOUT)
            if thread.is_alive():
                raise harness.BenchError(f"{thread.name} did not finish")
    workload.finish_phase(samples)
    return Phase(samples, finished[0] - begin)


class Workload:
    """Setup, reference and one study of a workload."""

    name = ""
    clients = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cohorts: list = []
        self.expected: List[Dict[str, Any]] = []

    def setup(self) -> None:
        """Everything a user pays before the first study."""
        self.cohorts = build_cohorts(self.seed)

    def compute_reference(self) -> None:
        self.expected = [pooled_reference(cohort) for cohort in self.cohorts]

    def study(self, phase: str, index: int, ledger: Optional[Ledger]) -> Sample:
        raise NotImplementedError

    def check(self, index: int, observed: Dict[str, Any]) -> str:
        """Names of the decisions that differ from the reference."""
        differ = harness.check_decisions(
            observed, self.expected[index % spec.COHORTS]
        )
        return f"decisions differ: {', '.join(differ)}" if differ else ""

    def finish_phase(self, samples: List[Sample]) -> None:
        """Derive what needs the whole phase (serve-warm wire bytes)."""

    def roots(self) -> Tuple[Tuple[str, str], ...]:
        """Program functions that a traced pass times as study roots."""
        return ()

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values that are not per-study ledger sums."""
        return {}

    def startup_reports(self) -> List[str]:
        """``-X importtime`` reports of the traced pass, if it made any."""
        return []

    def close(self) -> None:
        pass


def _failure(begin: float, exc: BaseException) -> Sample:
    return Sample(
        wall_s=time.perf_counter() - begin,
        error=f"{type(exc).__name__}: {exc}",
    )


class ColdCli(Workload):
    """One fresh ``python -m repro run`` per study."""

    name = "cold-cli"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.bundles: List[str] = []
        self.child_rss_mib = 0.0
        self._importtime: List[str] = []

    def setup(self) -> None:
        from repro.cli import save_cohort_bundle

        super().setup()
        for index, cohort in enumerate(self.cohorts):
            path = os.path.join(self.workdir, f"cohort-{index}.npz")
            save_cohort_bundle(path, cohort)
            self.bundles.append(path)

    def study(self, phase: str, index: int, ledger: Optional[Ledger]) -> Sample:
        stem = os.path.join(self.workdir, f"{phase}-{index}")
        argv = [
            "run",
            "--cohort", self.bundles[index % spec.COHORTS],
            "--members", str(spec.MEMBERS),
            "--json", stem + ".json",
        ]
        if ledger is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [
                sys.executable, "-X", "importtime", CLI_HOOK,
                "--ledger", stem + ".ledger.json", *argv,
            ]
        begin = time.perf_counter()
        try:
            status, rusage = self._spawn(command, stem + ".stderr")
        except OSError as exc:
            return _failure(begin, exc)
        wall = time.perf_counter() - begin
        self.child_rss_mib = max(self.child_rss_mib, rusage.ru_maxrss / 1024.0)
        with open(stem + ".stderr", encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        if status != 0:
            return Sample(wall, error=f"exit {status}: {stderr[-500:]}")
        try:
            with open(stem + ".json", encoding="utf-8") as handle:
                payload = json.load(handle)
            sample = Sample(
                wall,
                model_s=payload["timings_ms"]["Total"] / 1000.0,
                wire_bytes=payload["network_bytes"],
                error=self.check(index, harness.decisions_of(payload)),
            )
            if ledger is not None:
                with open(stem + ".ledger.json", encoding="utf-8") as handle:
                    ledger.merge(json.load(handle))
                self._importtime.append(stderr)
        except (OSError, ValueError, KeyError) as exc:
            return Sample(wall, error=f"unreadable result: {exc!r}")
        return sample

    @staticmethod
    def _spawn(command: List[str], stderr_path: str):
        """Run ``command`` to its exit; returns (exit code, rusage)."""
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            child = subprocess.Popen(
                command,
                env=harness.child_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        watchdog = threading.Timer(STUDY_TIMEOUT, child.kill)
        watchdog.start()
        try:
            _pid, status, rusage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, rusage

    def startup_reports(self) -> List[str]:
        return self._importtime


class ServeWarm(Workload):
    """Two closed-loop clients on one warm federation service."""

    name = "serve-warm"
    clients = 2

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.service = None
        self._lock = threading.Lock()
        #: slot -> cumulative wire bytes seen at the end of its studies.
        self._slot_bytes: Dict[str, List[int]] = {}

    def setup(self) -> None:
        from repro.serve import FederationService, ServiceConfig

        super().setup()
        self.service = FederationService(ServiceConfig(num_members=spec.MEMBERS))
        slots = self.service.config.pool_size
        submitted = [
            self._submit(f"warm-{slot}", slot) for slot in range(slots)
        ]
        for study_id in submitted:
            self._status(study_id, self.service.result(study_id, STUDY_TIMEOUT))

    def _submit(self, study_id: str, index: int) -> str:
        from repro.bench.workloads import paper_config

        return self.service.submit(
            self.cohorts[index % spec.COHORTS],
            paper_config(spec.SNPS, study_id=study_id),
        )

    def _status(self, study_id: str, result) -> Dict[str, Any]:
        """The study's status; notes its slot's cumulative byte count."""
        status = self.service.status(study_id)
        with self._lock:
            self._slot_bytes.setdefault(status["slot"], []).append(
                result.network_bytes
            )
        return status

    def study(self, phase: str, index: int, ledger: Optional[Ledger]) -> Sample:
        begin = time.perf_counter()
        try:
            study_id = self._submit(f"{phase}-{index}", index)
            result = self.service.result(study_id, timeout=STUDY_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - a failed study is a sample
            return _failure(begin, exc)
        wall = time.perf_counter() - begin
        status = self._status(study_id, result)
        if ledger is not None:
            ledger.record_rounds(result.ocall_rounds)
            ledger.count("serve.queue_wait_s", status["wait_seconds"])
            ledger.count("serve.round_wait_s", status["round_wait_seconds"])
            ledger.count("serve.rounds_gated", status["rounds"])
        return Sample(
            wall,
            model_s=result.timings.total_seconds,
            error=self.check(index, harness.decisions_of(result)),
            slot=status["slot"],
            slot_bytes=result.network_bytes,
        )

    def finish_phase(self, samples: List[Sample]) -> None:
        # A slot's network scope counts every study it ever served, so a
        # study's own bytes are the step from the slot's previous study.
        with self._lock:
            marks = {slot: sorted(values) for slot, values in self._slot_bytes.items()}
        for sample in samples:
            if sample.ok:
                steps = marks[sample.slot]
                position = steps.index(sample.slot_bytes)
                sample.wire_bytes = sample.slot_bytes - (
                    steps[position - 1] if position else 0
                )

    def roots(self) -> Tuple[Tuple[str, str], ...]:
        return (("repro.serve.service", "FederationService._run_session"),)

    def layer_extras(self) -> Dict[str, float]:
        return {"serve.warm_hit_rate": float(self.service.metrics()["warm_hit_rate"])}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class CollusionSharded(Workload):
    """The hardened deployment: f=1, sharded, parallel, supervised."""

    name = "collusion-sharded"

    def config(self, study_id: str, *, hardened: bool = True, snps: int = spec.SNPS):
        from repro.bench.workloads import paper_config
        from repro.config import (
            CollusionPolicy,
            ExecutionConfig,
            IntegrityConfig,
            ResilienceConfig,
            ShardingConfig,
        )

        config = paper_config(snps, study_id=study_id, collusion=CollusionPolicy((1,)))
        if not hardened:
            return config
        return replace(
            config,
            sharding=ShardingConfig.over(4),
            execution=ExecutionConfig.parallel(max_workers=2),
            resilience=ResilienceConfig.supervised(),
            integrity=IntegrityConfig.on(),
        )

    def setup(self) -> None:
        """Cohorts, then one small study down every hardened code path.

        The warm-up pays the lazy imports and first calls of the
        supervisor, shard and integrity paths at a fifth of the panel.
        """
        from repro.core.protocol import run_study
        from repro.genomics import SyntheticSpec, generate_cohort

        super().setup()
        snps = spec.SNPS // 5
        small, _truth = generate_cohort(
            SyntheticSpec(num_snps=snps, num_case=300, num_control=260, seed=self.seed)
        )
        run_study(small, self.config("warm-0", snps=snps), spec.MEMBERS)

    def compute_reference(self) -> None:
        """Pooled pipeline for the baseline set, plus one flat run.

        The per-combination safe sets (and the final, collusion-reduced
        release) come from one flat, sequential, unsupervised study with
        the same policy.
        """
        from repro.core.protocol import run_study

        self.expected = []
        for index, cohort in enumerate(self.cohorts):
            flat = run_study(
                cohort, self.config(f"reference-{index}", hardened=False), spec.MEMBERS
            )
            expected = harness.decisions_of(flat)
            expected["baseline_safe"] = pooled_reference(cohort)["l_safe"]
            self.expected.append(expected)

    def study(self, phase: str, index: int, ledger: Optional[Ledger]) -> Sample:
        from repro.core.protocol import run_study

        config = self.config(f"{phase}-{index}")
        begin = time.perf_counter()
        try:
            with ledger.study() if ledger is not None else contextlib.nullcontext():
                result = run_study(
                    self.cohorts[index % spec.COHORTS], config, spec.MEMBERS
                )
        except Exception as exc:  # noqa: BLE001 - a failed study is a sample
            return _failure(begin, exc)
        wall = time.perf_counter() - begin
        if ledger is not None:
            ledger.record_rounds(result.ocall_rounds)
        return Sample(
            wall,
            model_s=result.timings.total_seconds,
            wire_bytes=result.network_bytes,
            error=self.check(index, harness.decisions_of(result)),
        )


WORKLOADS = {cls.name: cls for cls in (ColdCli, ServeWarm, CollusionSharded)}
