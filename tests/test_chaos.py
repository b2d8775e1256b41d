"""Chaos suite: seeded fault-plan sweep over the supervised runtime.

Every run of the sweep must either complete with release decisions
**bit-identical** to the fault-free sequential reference at its
collusion setting (parallel runs included), or abort with a
*classified* :class:`ReproError` subclass — never hang, never return a
divergent answer.

The invariant itself lives in :mod:`repro.fuzz.oracle` — the same
harness the fuzzer (``repro fuzz``) and the Byzantine tier execute —
and the seeded plans live in :mod:`repro.fuzz.seeds`, so this module
is a *replayer*: it sweeps the 24 legacy crash-style genomes (plus a
sharded subset) and asserts the oracle saw no violation.

Set ``CHAOS_REPORT_PATH`` to write a machine-readable JSON report of
every sweep run (fault plans + digests, injected-event counters,
outcomes); the CI ``chaos`` job uploads it as an artifact.  Records
are keyed by sweep cell, so re-running a test within one session
replaces its record instead of appending a duplicate.  Any failure
reproduces locally from its seed alone: the plan is a pure function
of the config (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import generate_cohort
from repro.fuzz.genome import genome_config
from repro.fuzz.oracle import DecisionOracle
from repro.fuzz.seeds import (
    CHAOS_CRASH_SEEDS,
    CHAOS_PARTITION_SEEDS,
    CHAOS_SEEDS,
    chaos_seed_genome,
    seed_f,
    seed_mode,
)
from repro.genomics import SyntheticSpec

MEMBERS = 3
STUDY_ID = "chaos-sweep"
STUDY_SEED = 5

#: Subset of the sweep re-run sharded (per shard count in SHARD_AXIS):
#: the same seeded plans, now also stressing tree rounds and repair.
#: Hand-picked to cover both modes, both collusion settings, a leader
#: crash (10, 15, 20) and a partition window (7).
SHARDED_SEEDS = [1, 2, 7, 10, 15, 20]
SHARD_AXIS = (2, 4)

#: Chaos-report records keyed by (seed, shards): re-execution within
#: one session *replaces* the cell's record, so the report never
#: accumulates duplicates.
_collected_runs = {}


@pytest.fixture(scope="module")
def oracle():
    cohort, _ = generate_cohort(
        SyntheticSpec(num_snps=80, num_case=120, num_control=100, seed=5)
    )
    return DecisionOracle(
        cohort=cohort,
        members=MEMBERS,
        study_id=STUDY_ID,
        study_seed=STUDY_SEED,
    )


def _genome(oracle, seed, shards=1):
    genome = chaos_seed_genome(
        seed, members=oracle.member_ids, leader=oracle.leader_id
    )
    return dataclasses.replace(genome, shards=shards)


def _execute(oracle, seed, shards=1):
    # max_attempts/max_failovers pin the tier's historical supervision
    # budget (the ResilienceConfig.supervised() defaults).
    config = genome_config(
        _genome(oracle, seed, shards),
        snp_count=80,
        study_id=STUDY_ID,
        study_seed=STUDY_SEED,
        max_attempts=4,
        max_failovers=2,
    )
    return oracle.execute(config)


def _collect(run, seed, shards=1, **extra):
    _collected_runs[(seed, shards)] = run.record(
        seed=seed,
        shards=shards,
        mode=seed_mode(seed),
        f=seed_f(seed),
        failovers=run.failovers,
        **extra,
    )


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Write the sweep's fault-injection report if a path is configured."""
    yield
    path = os.environ.get("CHAOS_REPORT_PATH")
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
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_run_is_identical_or_classified(seed, oracle):
    run = _execute(oracle, seed)
    _collect(run, seed)
    assert run.violation is None, run.violation


_sharded_decisions = {}


@pytest.mark.parametrize("shards", SHARD_AXIS)
@pytest.mark.parametrize("seed", SHARDED_SEEDS)
def test_sharded_chaos_run_is_identical_or_classified(seed, shards, oracle):
    """The chaos invariant survives composition with sharding.

    The same seeded plans, re-run with SNP-range sharding at each
    shard count: tree rounds now carry the combine traffic, so drops,
    delays and crashes land on combine edges and are masked by retry
    and tree repair — or abort classified.  Completed runs must match
    the *unsharded* fault-free reference, which also pins decision
    identity across shard counts.
    """
    run = _execute(oracle, seed, shards)
    _collect(run, seed, shards, member_restorations=run.member_restorations)
    assert run.violation is None, run.violation
    if run.verdict == "completed":
        _sharded_decisions[(seed, shards)] = (
            "completed",
            tuple(run.result.l_safe),
        )
    else:
        _sharded_decisions[(seed, shards)] = ("abort", run.error)


def test_sharded_sweep_decisions_identical_across_shard_counts():
    """Every completed (seed, shards) cell released the same SNP set.

    Runs after the sharded sweep (pytest executes in definition
    order), so the decision table is complete.
    """
    assert len(_sharded_decisions) == len(SHARDED_SEEDS) * len(SHARD_AXIS)
    completed = 0
    for seed in SHARDED_SEEDS:
        decisions = {
            _sharded_decisions[(seed, shards)]
            for shards in SHARD_AXIS
            if _sharded_decisions[(seed, shards)][0] == "completed"
        }
        assert len(decisions) <= 1, f"seed {seed} diverged across shards"
        completed += len(decisions)
    # The subset is not allowed to abort wholesale: most plans at this
    # intensity complete, proving the masked path does the masking.
    assert completed >= len(SHARDED_SEEDS) // 2


def test_sweep_covers_both_modes_and_collusion():
    cells = {(seed_mode(s), seed_f(s)) for s in CHAOS_SEEDS}
    assert cells == {
        ("sequential", 0),
        ("sequential", 1),
        ("parallel", 0),
        ("parallel", 1),
    }
    assert len(CHAOS_SEEDS) >= 20
    assert CHAOS_CRASH_SEEDS and CHAOS_PARTITION_SEEDS
    # The sharded subset keeps the same spread: both modes, both
    # collusion settings, at least one crash and one partition plan.
    assert {seed_mode(s) for s in SHARDED_SEEDS} == {
        "sequential",
        "parallel",
    }
    assert {seed_f(s) for s in SHARDED_SEEDS} == {0, 1}
    assert set(SHARDED_SEEDS) & CHAOS_CRASH_SEEDS
    assert set(SHARDED_SEEDS) & CHAOS_PARTITION_SEEDS
    assert len(SHARD_AXIS) >= 2


def test_chaos_replays_identically(oracle):
    """The same seed reproduces the same injected faults, bit for bit."""
    seed = 10  # a crash seed: the heaviest machinery in one run
    counters = [_execute(oracle, seed).injected for _ in range(2)]
    assert counters[0] == counters[1]


def test_report_records_dedupe_and_carry_digest(oracle):
    """Re-running a sweep cell replaces its report record (no dupes),
    and every record is traceable to its exact plan via the digest."""
    run = _execute(oracle, 1)
    before = len(_collected_runs)
    _collect(run, 1)
    _collect(run, 1)
    assert len(_collected_runs) == before
    record = _collected_runs[(1, 1)]
    assert record["plan_digest"] == run.federation.fault_injector.plan.digest()
    assert record["plan"] == run.federation.fault_injector.plan.describe()
