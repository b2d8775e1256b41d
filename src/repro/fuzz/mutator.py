"""Structured mutation over plan genomes.

Unlike a byte-level fuzzer, the mutator understands the genome's
shape: every operator is *typed* (perturb a rate, splice two plans,
add/remove a fault feature, retarget a link, shift a crash index, flip
a run axis, reseed the plan) and always yields a valid genome because
:func:`~repro.fuzz.genome.normalize` runs after every application.

Determinism is load-bearing: all choices draw from one
:class:`~repro.crypto.rng.DeterministicRng` stream seeded at
construction, and every drawn value (including rates) comes from fixed
palettes — so the same (seed, input-genome sequence) produces a
byte-identical mutated-genome sequence on every platform, which is
what makes a fuzz run replayable from its seed alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from ..config import ENVELOPE_RATE_FIELDS, EXECUTION_MODES, RATE_FIELDS, TAMPER_MODES
from ..crypto.rng import DeterministicRng
from ..errors import ConfigError
from .genome import SHARD_AXIS, PlanGenome, normalize

#: Rates are drawn from a fixed palette (no float arithmetic drift).
RATE_PALETTE: Tuple[float, ...] = (
    0.0,
    0.01,
    0.02,
    0.05,
    0.08,
    0.12,
    0.2,
    0.35,
)

#: The operator names, in the fixed order the dispatcher draws over.
OPERATORS: Tuple[str, ...] = (
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


class PlanMutator:
    """Applies one typed mutation per :meth:`mutate` call."""

    def __init__(
        self,
        *,
        seed: int,
        members: Sequence[str],
        leader: str,
        max_crash_index: int = 14,
        max_partition_round: int = 8,
    ):
        self.seed = seed
        self.members = tuple(members)
        self.leader = leader
        self.max_crash_index = max_crash_index
        self.max_partition_round = max_partition_round
        self._rng = DeterministicRng(f"repro.fuzz.mutator#{seed}")

    # -- draw helpers ---------------------------------------------------------

    def _choice(self, options: Sequence):
        return options[self._rng.randbelow(len(options))]

    def _rate(self) -> float:
        return self._choice(RATE_PALETTE)

    def _member(self) -> str:
        return self._choice(self.members)

    def _follower(self) -> str:
        followers = tuple(m for m in self.members if m != self.leader)
        return self._choice(followers or self.members)

    # -- typed operators ------------------------------------------------------

    def _op_perturb_rate(self, genome: PlanGenome) -> PlanGenome:
        field_name = self._choice(RATE_FIELDS)
        return replace(
            genome, faults=replace(genome.faults, **{field_name: self._rate()})
        )

    def _op_add_fault(self, genome: PlanGenome) -> PlanGenome:
        feature = self._choice(
            ("rate", "crash", "partition", "tamper", "equivocate", "shard_flip")
        )
        faults = genome.faults
        if feature == "rate":
            field_name = self._choice(ENVELOPE_RATE_FIELDS)
            palette = tuple(r for r in RATE_PALETTE if r > 0.0)
            faults = replace(faults, **{field_name: self._choice(palette)})
        elif feature == "crash":
            point = (
                self._choice((self.leader, self._member())),
                1 + self._rng.randbelow(self.max_crash_index),
            )
            faults = replace(
                faults, crash_points=faults.crash_points + (point,)
            )
        elif feature == "partition":
            window = (
                self._member(),
                1 + self._rng.randbelow(self.max_partition_round),
                1 + self._rng.randbelow(3),
            )
            faults = replace(
                faults, partition_windows=faults.partition_windows + (window,)
            )
        elif feature == "tamper":
            mode = self._choice(TAMPER_MODES[1:])
            # Tampered restores only surface at a failover, so arming a
            # tamper also plants one leader crash (the Byzantine tier
            # pairs them the same way).
            crash_points = faults.crash_points
            if not any(p[0] == self.leader for p in crash_points):
                crash_points = crash_points + (
                    (self.leader, 1 + self._rng.randbelow(self.max_crash_index)),
                )
            faults = replace(
                faults, checkpoint_tamper=mode, crash_points=crash_points
            )
        elif feature == "equivocate":
            palette = tuple(r for r in RATE_PALETTE if r > 0.0)
            faults = replace(faults, equivocate_rate=self._choice(palette))
        else:  # shard_flip
            palette = tuple(r for r in RATE_PALETTE if r > 0.0)
            faults = replace(
                faults,
                shard_flip_rate=self._choice(palette),
                shard_flip_target=self._follower(),
            )
            if genome.shards == 1:
                genome = replace(genome, shards=self._choice((2, 4)))
        return replace(genome, faults=faults)

    def _op_remove_fault(self, genome: PlanGenome) -> PlanGenome:
        active = genome.active_faults()
        if not active:
            return genome
        label = self._choice(active)
        faults = genome.faults
        if label.startswith("crash:"):
            victim = self._rng.randbelow(len(faults.crash_points))
            faults = replace(
                faults,
                crash_points=tuple(
                    p for i, p in enumerate(faults.crash_points) if i != victim
                ),
            )
        elif label.startswith("partition:"):
            victim = self._rng.randbelow(len(faults.partition_windows))
            faults = replace(
                faults,
                partition_windows=tuple(
                    w
                    for i, w in enumerate(faults.partition_windows)
                    if i != victim
                ),
            )
        elif label.startswith("tamper:"):
            faults = replace(faults, checkpoint_tamper="")
        else:
            faults = replace(faults, **{label: 0.0})
        return replace(genome, faults=faults)

    def _op_retarget_link(self, genome: PlanGenome) -> PlanGenome:
        target_kind = self._choice(
            ("withhold", "shard_flip", "crash", "partition")
        )
        faults = genome.faults
        if target_kind == "withhold":
            faults = replace(faults, withhold_target=self._member())
        elif target_kind == "shard_flip":
            if faults.shard_flip_rate > 0.0:
                faults = replace(faults, shard_flip_target=self._follower())
        elif target_kind == "crash" and faults.crash_points:
            index = self._rng.randbelow(len(faults.crash_points))
            points = list(faults.crash_points)
            points[index] = (self._member(), points[index][1])
            faults = replace(faults, crash_points=tuple(points))
        elif target_kind == "partition" and faults.partition_windows:
            index = self._rng.randbelow(len(faults.partition_windows))
            windows = list(faults.partition_windows)
            windows[index] = (self._member(),) + windows[index][1:]
            faults = replace(faults, partition_windows=tuple(windows))
        return replace(genome, faults=faults)

    def _op_shift_crash_index(self, genome: PlanGenome) -> PlanGenome:
        faults = genome.faults
        if not faults.crash_points:
            return genome
        index = self._rng.randbelow(len(faults.crash_points))
        delta = self._choice((-3, -2, -1, 1, 2, 3))
        points = list(faults.crash_points)
        enclave_id, ecall_index = points[index]
        points[index] = (
            enclave_id,
            min(self.max_crash_index, max(1, ecall_index + delta)),
        )
        return replace(genome, faults=replace(faults, crash_points=tuple(points)))

    def _op_shift_partition(self, genome: PlanGenome) -> PlanGenome:
        faults = genome.faults
        if not faults.partition_windows:
            return genome
        index = self._rng.randbelow(len(faults.partition_windows))
        windows = list(faults.partition_windows)
        node_id, start_round, blocked_ops = windows[index]
        if self._rng.randbelow(2):
            start_round = min(
                self.max_partition_round,
                max(1, start_round + self._choice((-2, -1, 1, 2))),
            )
        else:
            blocked_ops = min(4, max(1, blocked_ops + self._choice((-1, 1))))
        windows[index] = (node_id, start_round, blocked_ops)
        return replace(
            genome, faults=replace(faults, partition_windows=tuple(windows))
        )

    def _op_reseed_plan(self, genome: PlanGenome) -> PlanGenome:
        return replace(
            genome,
            faults=replace(genome.faults, seed=self._rng.randbelow(1 << 30)),
        )

    def _op_flip_axis(self, genome: PlanGenome) -> PlanGenome:
        axis = self._choice(
            ("mode", "f", "shards", "supervised", "integrity")
        )
        if axis == "mode":
            return replace(genome, mode=self._choice(EXECUTION_MODES))
        if axis == "f":
            return replace(genome, f=self._rng.randbelow(2))
        if axis == "shards":
            return replace(genome, shards=self._choice(SHARD_AXIS))
        if axis == "supervised":
            return replace(genome, supervised=bool(self._rng.randbelow(2)))
        return replace(genome, integrity=bool(self._rng.randbelow(2)))

    def _op_splice_plans(
        self, genome: PlanGenome, other: Optional[PlanGenome]
    ) -> PlanGenome:
        if other is None:
            return genome
        faults = genome.faults
        updates = {}
        for name in RATE_FIELDS:
            if self._rng.randbelow(2):
                updates[name] = getattr(other.faults, name)
        if self._rng.randbelow(2):
            updates["crash_points"] = other.faults.crash_points
        if self._rng.randbelow(2):
            updates["partition_windows"] = other.faults.partition_windows
        if self._rng.randbelow(2):
            updates["checkpoint_tamper"] = other.faults.checkpoint_tamper
        if self._rng.randbelow(2):
            updates["withhold_target"] = other.faults.withhold_target
        if updates.get("shard_flip_rate", faults.shard_flip_rate) > 0.0:
            updates["shard_flip_target"] = (
                other.faults.shard_flip_target
                or faults.shard_flip_target
                or self._follower()
            )
        genome = replace(genome, faults=replace(faults, **updates))
        if self._rng.randbelow(2):
            genome = replace(genome, shards=other.shards, mode=other.mode)
        return genome

    # -- the front door -------------------------------------------------------

    def mutate(
        self,
        genome: PlanGenome,
        pool: Sequence[PlanGenome] = (),
    ) -> PlanGenome:
        """One typed mutation of ``genome``, normalized to validity.

        ``pool`` supplies splice partners (the corpus genomes); when
        empty the splice operator degrades to identity.  Determinism
        contract: two runs that feed the same seed, the same input
        genomes and the same pool sequence observe byte-identical
        mutated genomes (see ``tests/test_fuzz_mutator.py``).
        """
        operator = self._choice(OPERATORS)
        try:
            if operator == "splice_plans":
                partner = self._choice(pool) if pool else None
                mutated = self._op_splice_plans(genome, partner)
            else:
                mutated = getattr(self, f"_op_{operator}")(genome)
        except ConfigError:
            # FaultConfig validates eagerly (rate simplex, targets), so
            # a cross-feature edit can be rejected before normalize()
            # gets to rescale it.  The draw stream has already advanced,
            # so degrading to identity keeps the sequence deterministic.
            mutated = genome
        return normalize(mutated, self.members)
