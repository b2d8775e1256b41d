"""Byzantine chaos tier: adversarial fault-plan sweep with integrity on.

Where ``test_chaos.py`` sweeps *crash-style* faults (drop, duplicate,
delay, corrupt, crash, partition), this tier arms the *Byzantine*
actions — REPLAY, WITHHOLD, EQUIVOCATE and sealed-checkpoint tampering
— against a federation running with integrity verification enabled
(broadcast-consistency echo, channel-transcript cross-checks and
checkpoint freshness; see ``docs/RESILIENCE.md``).

The verdict contract is the crash tier's, but strictly harder: every
run must either complete with release decisions **bit-identical** to
the fault-free sequential reference at its collusion setting, or abort
with a *classified* integrity error — and every detection must increment
its ``integrity.*`` counter.  The invariant executes inside
:mod:`repro.fuzz.oracle` (shared with the fuzzer and the crash tier)
and the 18 adversarial genomes come from :mod:`repro.fuzz.seeds`.

Set ``CHAOS_REPORT_PATH`` to write the per-run report (records keyed
by sweep cell — re-runs replace, never duplicate — each carrying its
plan digest) and ``CHAOS_INTEGRITY_PATH`` to write the aggregated
integrity counters; the CI ``chaos`` job uploads both as artifacts.
Any failure reproduces locally from its seed alone.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.core.integrity import COUNTER_NAMES
from repro.fuzz.genome import genome_config
from repro.fuzz.oracle import DecisionOracle
from repro.fuzz.seeds import (
    BYZANTINE_CORRUPT_SEEDS,
    BYZANTINE_EQUIVOCATE_SEEDS,
    BYZANTINE_SEEDS,
    BYZANTINE_STALE_SEEDS,
    byzantine_seed_genome,
    first_follower,
    seed_f,
    seed_mode,
)
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

MEMBERS = 3
STUDY_ID = "byzantine-sweep"
STUDY_SEED = 5

#: Subset of the sweep re-run sharded (per shard count in SHARD_AXIS).
#: Hand-picked for both modes, both collusion settings, broadcast
#: equivocators (102, 105, 108, 111) and corrupt-checkpoint tamperers
#: (105, 112).
SHARDED_SEEDS = [101, 102, 105, 108, 111, 112]
SHARD_AXIS = (2, 4)
#: Sharded seeds whose plan also arms combine-frame falsification on
#: one member — interior-node equivocation against the tree rounds.
SHARD_FLIP_SEEDS = {101, 108, 111}

#: Report records keyed by (seed, shards): re-execution within one
#: session replaces the cell's record, so the report never
#: accumulates duplicates (and neither do the aggregated counters,
#: which are summed from the records at teardown).
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
    genome = byzantine_seed_genome(
        seed, members=oracle.member_ids, leader=oracle.leader_id
    )
    faults = genome.faults
    if shards > 1 and seed in SHARD_FLIP_SEEDS:
        # The interior-node attack the shard commitment verification
        # exists to catch: a member's compromised module emits
        # in-bounds falsified leaf partials into the tree.
        faults = dataclasses.replace(
            faults,
            shard_flip_rate=0.35,
            shard_flip_target=first_follower(
                oracle.member_ids, oracle.leader_id
            ),
        )
    return dataclasses.replace(genome, faults=faults, shards=shards)


def _execute(oracle, seed, shards=1):
    config = genome_config(
        _genome(oracle, seed, shards),
        snp_count=80,
        study_id=STUDY_ID,
        study_seed=STUDY_SEED,
        max_attempts=6,
        max_failovers=3,
    )
    return oracle.execute(config)


def _collect(run, seed, shards=1, **extra):
    _collected_runs[(seed, shards)] = run.record(
        seed=seed,
        shards=shards,
        mode=seed_mode(seed),
        f=seed_f(seed),
        failovers=run.failovers,
        integrity=dict(run.integrity_counters),
        **extra,
    )


def _aggregate_counters():
    totals = {name: 0 for name in COUNTER_NAMES}
    for record in _collected_runs.values():
        for name, value in record["integrity"].items():
            totals[name] += value
    return totals


@pytest.fixture(scope="module", autouse=True)
def byzantine_report():
    """Write the tier's reports if the artifact paths are configured."""
    yield
    if not _collected_runs:
        return
    runs = [_collected_runs[key] for key in sorted(_collected_runs)]
    report_path = os.environ.get("CHAOS_REPORT_PATH")
    if report_path:
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
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    integrity_path = os.environ.get("CHAOS_INTEGRITY_PATH")
    if integrity_path:
        payload = {
            "study_id": STUDY_ID,
            "runs": len(runs),
            "integrity_counters": _aggregate_counters(),
        }
        with open(integrity_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.mark.parametrize("seed", BYZANTINE_SEEDS)
def test_byzantine_run_is_identical_or_classified(seed, oracle):
    run = _execute(oracle, seed)
    _collect(run, seed)
    # An abort under an armed adversary must be *classified*: a
    # detected violation (IntegrityError), a rejected tampered restore
    # (SealingError), or a typed resilience abort — all ReproError
    # subclasses, never a bare crash or a hang.  The oracle encodes
    # exactly that contract in the violation field.
    assert run.violation is None, run.violation
    if run.error in ("IntegrityError", "SealingError"):
        # The typed abort must have been counted at its detection site.
        assert run.federation.integrity_monitor.detections >= 1
    if run.verdict == "completed" and run.injected["equivocations"]:
        # A completed run that absorbed an equivocation must have
        # detected (and recovered from) every occurrence.
        assert run.integrity_counters["equivocations_detected"] >= 1


@pytest.mark.parametrize("shards", SHARD_AXIS)
@pytest.mark.parametrize("seed", SHARDED_SEEDS)
def test_sharded_byzantine_run_is_identical_or_classified(
    seed, shards, oracle
):
    """The Byzantine invariant survives composition with sharding.

    Tree rounds now carry the combine traffic under an armed
    adversary — including, on the shard-flip seeds, a member
    falsifying its own leaf partials.  Every run completes
    bit-identical to the unsharded fault-free reference or aborts
    classified, and every absorbed falsification was detected.
    """
    run = _execute(oracle, seed, shards)
    _collect(run, seed, shards, member_restorations=run.member_restorations)
    assert run.violation is None, run.violation
    if run.error in ("IntegrityError", "SealingError"):
        assert run.federation.integrity_monitor.detections >= 1
    if run.verdict == "completed" and run.injected["shard_equivocations"]:
        # A completed run that absorbed a falsified partial must have
        # detected it and repaired around the liar.
        assert run.integrity_counters["equivocations_detected"] >= 1
        assert run.member_restorations >= 1


def test_sharded_sweep_armed_the_interior_node_attack():
    """At least one sharded run absorbed or aborted on a shard flip."""
    sharded = [r for r in _collected_runs.values() if r["shards"] > 1]
    assert len(sharded) == len(SHARDED_SEEDS) * len(SHARD_AXIS)
    assert any(
        r["injected"].get("shard_equivocations", 0) >= 1 for r in sharded
    )


def test_sweep_covers_modes_collusion_and_adversaries():
    cells = {(seed_mode(s), seed_f(s)) for s in BYZANTINE_SEEDS}
    assert cells == {
        ("sequential", 0),
        ("sequential", 1),
        ("parallel", 0),
        ("parallel", 1),
    }
    assert len(BYZANTINE_SEEDS) >= 16
    assert (
        BYZANTINE_EQUIVOCATE_SEEDS
        and BYZANTINE_STALE_SEEDS
        and BYZANTINE_CORRUPT_SEEDS
    )
    # The sharded subset keeps the spread and adds the interior-node
    # attack on top of the broadcast/checkpoint adversaries.
    assert {seed_mode(s) for s in SHARDED_SEEDS} == {
        "sequential",
        "parallel",
    }
    assert {seed_f(s) for s in SHARDED_SEEDS} == {0, 1}
    assert set(SHARDED_SEEDS) & BYZANTINE_EQUIVOCATE_SEEDS
    assert set(SHARDED_SEEDS) & BYZANTINE_CORRUPT_SEEDS
    assert SHARD_FLIP_SEEDS <= set(SHARDED_SEEDS)
    assert len(SHARD_AXIS) >= 2


def test_tier_exercises_every_detection_path():
    """Across the tier, each key integrity metric fired at least once.

    Runs after the parametrized sweeps (pytest executes tests in
    definition order within a module), so the aggregate is complete.
    """
    assert len(_collected_runs) == len(BYZANTINE_SEEDS) + len(
        SHARDED_SEEDS
    ) * len(SHARD_AXIS)
    totals = _aggregate_counters()
    assert totals["equivocations_detected"] >= 1
    assert totals["stale_checkpoints_rejected"] >= 1
    assert totals["sealed_restore_failures"] >= 1
    assert totals["quarantines"] >= 1


def test_byzantine_replay_is_deterministic(oracle):
    """The same seed reproduces the same adversary, bit for bit."""
    seed = 105  # corrupt-checkpoint + equivocation: heaviest machinery
    observed = []
    for _ in range(2):
        run = _execute(oracle, seed)
        observed.append(
            (
                run.verdict if run.error is None else run.error,
                run.injected,
                run.integrity_counters,
            )
        )
    assert observed[0] == observed[1]
