"""Plan genomes: the structured input space the fuzzer explores.

A :class:`PlanGenome` is one point in the chaos input space: a
:class:`~repro.config.FaultConfig` (drop/duplicate/delay/corrupt
rates, crash-point ECALL indices, partition windows, the Byzantine
REPLAY/WITHHOLD/EQUIVOCATE knobs, checkpoint tampering and shard-flip
targets) plus the *run axes* the legacy chaos tiers swept by hand —
execution mode, collusion tolerance, shard count, supervision and
integrity verification.

Genomes are value objects with a canonical JSON form and a SHA-256
digest, so a corpus entry is self-describing and every chaos-report
record can reference the exact genome that produced it.
:func:`normalize` is the single place where threat-model constraints
are enforced (module-compromise knobs imply integrity verification,
rate budgets stay within the per-envelope probability simplex), which
lets mutation operators stay simple: mutate freely, then normalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..config import (
    ENVELOPE_RATE_FIELDS,
    EXECUTION_MODES,
    RATE_FIELDS,
    CollusionPolicy,
    ExecutionConfig,
    FaultConfig,
    IntegrityConfig,
    JsonDocument,
    ResilienceConfig,
    ShardingConfig,
    StudyConfig,
)
from ..errors import ConfigError

#: Shard-count axis values (1 disables sharding).
SHARD_AXIS: Tuple[int, ...] = (1, 2, 4)

#: Collusion-tolerance axis values.
COLLUSION_AXIS: Tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class PlanGenome(JsonDocument):
    """One fuzzable chaos scenario: a fault plan plus its run axes."""

    faults: FaultConfig = field(default_factory=FaultConfig)
    mode: str = "sequential"
    f: int = 0
    shards: int = 1
    supervised: bool = True
    integrity: bool = False

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ConfigError(f"unknown execution mode {self.mode!r}")
        if self.f not in COLLUSION_AXIS:
            raise ConfigError("collusion axis must be 0 or 1")
        if self.shards < 1:
            raise ConfigError("shard axis must be >= 1")

    # -- complexity ordering --------------------------------------------------

    def active_faults(self) -> Tuple[str, ...]:
        """The armed fault features, one label per independent feature.

        This is the unit the shrinker minimises over: each nonzero
        rate, each crash point, each partition window and an armed
        checkpoint tamper each count as one active fault.
        """
        labels = []
        for name in RATE_FIELDS:
            if getattr(self.faults, name) > 0.0:
                labels.append(name)
        for point in self.faults.crash_points:
            labels.append(f"crash:{point[0]}@{point[1]}")
        for window in self.faults.partition_windows:
            labels.append(f"partition:{window[0]}@{window[1]}x{window[2]}")
        if self.faults.checkpoint_tamper:
            labels.append(f"tamper:{self.faults.checkpoint_tamper}")
        return tuple(labels)

    def sort_key(self) -> Tuple:
        """Total order from simplest genome to most baroque.

        The corpus keeps the *minimal* covering genome per behaviour
        (hypofuzz's ``sort_key`` idea): fewer active faults first, then
        lower total rate mass, then plainer axes, with the canonical
        JSON as the deterministic tiebreak.
        """
        rate_mass = sum(getattr(self.faults, name) for name in RATE_FIELDS)
        axis_cost = (
            (self.shards > 1)
            + (self.mode == "parallel")
            + (self.f > 0)
            + (not self.supervised)
            + self.integrity
        )
        return (
            len(self.active_faults()),
            rate_mass,
            len(self.faults.crash_points)
            + len(self.faults.partition_windows),
            axis_cost,
            self.canonical_json(),
        )


def sort_key(genome: PlanGenome) -> Tuple:
    """Module-level alias so callers can ``sorted(genomes, key=sort_key)``."""
    return genome.sort_key()


def normalize(genome: PlanGenome, members: Tuple[str, ...]) -> PlanGenome:
    """Project an arbitrary mutated genome back into the valid space.

    * envelope rates are clamped to [0, 1] and rescaled so their sum
      stays within the per-send probability budget;
    * the module-compromise knobs (equivocation, shard-partial
      falsification, checkpoint tampering) force integrity verification
      on — without the defence they trivially break the decision
      invariant, which is outside the threat model (the Byzantine tier
      always runs with integrity enabled for the same reason);
    * ``shard_flip_rate`` acquires a target member when it lacks one,
      and a target is cleared when the rate is zero;
    * ``faults.enabled`` becomes exactly "any feature armed".
    """
    faults = genome.faults
    updates: dict = {}
    rates = {}
    for name in RATE_FIELDS:
        rate = min(max(float(getattr(faults, name)), 0.0), 1.0)
        if rate != getattr(faults, name):
            rates[name] = rate
        else:
            rates[name] = getattr(faults, name)
    envelope_total = sum(rates[name] for name in ENVELOPE_RATE_FIELDS)
    if envelope_total > 1.0:
        for name in ENVELOPE_RATE_FIELDS:
            rates[name] = rates[name] / envelope_total
    for name in RATE_FIELDS:
        if rates[name] != getattr(faults, name):
            updates[name] = rates[name]

    shard_flip_rate = rates["shard_flip_rate"]
    if shard_flip_rate > 0.0 and not faults.shard_flip_target:
        updates["shard_flip_target"] = members[0]
    if shard_flip_rate == 0.0 and faults.shard_flip_target:
        updates["shard_flip_target"] = ""
    if rates["withhold_rate"] == 0.0 and faults.withhold_target:
        updates["withhold_target"] = ""

    crash_points = tuple(
        (enclave_id, max(1, int(index)))
        for enclave_id, index in faults.crash_points
        if enclave_id
    )
    if crash_points != faults.crash_points:
        updates["crash_points"] = crash_points
    windows = tuple(
        (node_id, max(1, int(start)), max(1, int(ops)))
        for node_id, start, ops in faults.partition_windows
        if node_id
    )
    if windows != faults.partition_windows:
        updates["partition_windows"] = windows

    armed = (
        any(rates[name] > 0.0 for name in RATE_FIELDS)
        or bool(crash_points)
        or bool(windows)
        or bool(faults.checkpoint_tamper)
    )
    if faults.enabled != armed:
        updates["enabled"] = armed
    if updates:
        faults = replace(faults, **updates)

    integrity = genome.integrity
    if (
        faults.equivocate_rate > 0.0
        or faults.shard_flip_rate > 0.0
        or faults.checkpoint_tamper
    ):
        integrity = True
    shards = max(1, int(genome.shards))
    if genome.faults is faults and integrity == genome.integrity and (
        shards == genome.shards
    ):
        return genome
    return replace(
        genome, faults=faults, integrity=integrity, shards=shards
    )


def genome_config(
    genome: PlanGenome,
    *,
    snp_count: int,
    study_id: str,
    study_seed: int,
    max_attempts: int = 6,
    max_failovers: int = 3,
) -> StudyConfig:
    """Materialise the :class:`~repro.config.StudyConfig` a genome runs as.

    The supervision knobs mirror the Byzantine chaos tier (six request
    attempts, three failovers) so corpus entries and legacy seeds
    execute under identical runtime budgets.
    """
    return StudyConfig(
        snp_count=snp_count,
        study_id=study_id,
        seed=study_seed,
        execution=ExecutionConfig(mode=genome.mode),
        collusion=(
            CollusionPolicy.static(genome.f)
            if genome.f
            else CollusionPolicy.none()
        ),
        sharding=ShardingConfig.over(min(genome.shards, snp_count)),
        faults=genome.faults,
        integrity=(
            IntegrityConfig.on() if genome.integrity else IntegrityConfig.off()
        ),
        resilience=(
            ResilienceConfig.supervised(
                max_attempts=max_attempts, max_failovers=max_failovers
            )
            if genome.supervised
            else ResilienceConfig.off()
        ),
    )
