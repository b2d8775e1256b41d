"""Mutator determinism and validity (satellite of the fuzzing issue).

Two contracts:

* **Determinism** — the same (seed, input-genome sequence, pool
  sequence) produces a byte-identical mutated-genome sequence; fuzz
  sessions replay from their seed alone.
* **Validity** — every mutated genome is a valid, normalized genome:
  operators mutate freely, :func:`~repro.fuzz.genome.normalize`
  projects back into the threat model.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ENVELOPE_RATE_FIELDS, FaultConfig
from repro.fuzz.genome import PlanGenome, normalize
from repro.fuzz.mutator import OPERATORS, PlanMutator

MEMBERS = ("gdo-0", "gdo-1", "gdo-2")
LEADER = "gdo-0"


def _mutator(seed: int) -> PlanMutator:
    return PlanMutator(seed=seed, members=MEMBERS, leader=LEADER)


def _base_genomes():
    return (
        PlanGenome(),
        PlanGenome(
            faults=FaultConfig(enabled=True, seed=7, drop_rate=0.12),
            mode="parallel",
        ),
        PlanGenome(
            faults=FaultConfig(
                enabled=True,
                seed=11,
                equivocate_rate=0.35,
                checkpoint_tamper="stale",
                crash_points=((LEADER, 5),),
            ),
            integrity=True,
        ),
    )


def test_same_seed_yields_byte_identical_sequences():
    sequences = []
    for _ in range(2):
        mutator = _mutator(42)
        genome = PlanGenome()
        pool = list(_base_genomes())
        out = []
        for _ in range(60):
            genome = mutator.mutate(genome, pool=pool)
            out.append(genome.canonical_json())
        sequences.append(out)
    assert sequences[0] == sequences[1]


def test_different_seeds_diverge():
    outputs = []
    for seed in (1, 2):
        mutator = _mutator(seed)
        genome = PlanGenome()
        out = [
            mutator.mutate(genome, pool=_base_genomes()).canonical_json()
            for _ in range(25)
        ]
        outputs.append(out)
    assert outputs[0] != outputs[1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1 << 16))
def test_mutated_genomes_stay_valid_and_normalized(seed):
    """A long mutation walk never leaves the valid, normalized space."""
    mutator = _mutator(seed)
    genome = PlanGenome()
    pool = list(_base_genomes())
    for _ in range(40):
        genome = mutator.mutate(genome, pool=pool)
        # Construction re-validates (frozen dataclass __post_init__),
        # so reaching here means validity; normalization must be a
        # fixpoint.
        assert normalize(genome, MEMBERS).digest() == genome.digest()
        faults = genome.faults
        assert (
            sum(getattr(faults, name) for name in ENVELOPE_RATE_FIELDS)
            <= 1.0
        )
        if faults.shard_flip_rate > 0.0:
            assert faults.shard_flip_target
            assert genome.integrity


def test_mutation_walk_reaches_every_operator_effect():
    """A modest walk exercises rates, structure and axis flips."""
    mutator = _mutator(3)
    genome = PlanGenome()
    saw_rate = saw_crash = saw_partition = saw_axis = False
    for _ in range(300):
        genome = mutator.mutate(genome, pool=(genome,))
        faults = genome.faults
        if any(
            getattr(faults, name) > 0.0 for name in ENVELOPE_RATE_FIELDS
        ):
            saw_rate = True
        if faults.crash_points:
            saw_crash = True
        if faults.partition_windows:
            saw_partition = True
        if genome.mode == "parallel" or genome.shards > 1:
            saw_axis = True
    assert saw_rate and saw_crash and saw_partition and saw_axis


def test_operator_table_is_stable():
    """The operator order is part of the replay contract."""
    assert OPERATORS == (
        "perturb_rate",
        "add_fault",
        "remove_fault",
        "retarget_link",
        "shift_crash_index",
        "shift_partition",
        "reseed_plan",
        "flip_axis",
        "splice_plans",
    )
