"""Greedy reduction of invariant-violating genomes.

When the fuzzer finds a genome whose run breaks the decision
invariant, the raw genome is usually baroque — half a dozen armed
faults, exotic axes — and most of it is noise.  The shrinker reduces
it to a minimal reproducer before it is reported or committed: a
triager should read three active faults, not nine.

The algorithm is classic greedy delta debugging over the *typed*
feature structure (not bytes): repeatedly try to (a) simplify run axes
toward their defaults, (b) disarm whole fault features, and (c) lower
surviving rates down the palette, keeping any edit after which the
caller's predicate still observes the violation.  Every candidate is
:func:`~repro.fuzz.genome.normalize`\\ d first, so the shrinker only
ever proposes valid genomes, and the candidate order is fixed — no
randomness — so the same (genome, predicate) always reduces to the
same reproducer.  The run budget bounds total predicate evaluations
(each one is a full protocol run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence, Tuple

from ..config import RATE_FIELDS
from .genome import PlanGenome, normalize

#: Descending rate ladder the rate-lowering pass walks.
SHRINK_RATE_LADDER: Tuple[float, ...] = (0.2, 0.12, 0.08, 0.05, 0.02, 0.01)


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the reproducer plus bookkeeping."""

    genome: PlanGenome
    runs_used: int
    reduced: bool

    @property
    def active_fault_count(self) -> int:
        return len(self.genome.active_faults())


def _axis_candidates(genome: PlanGenome) -> Iterator[PlanGenome]:
    """Axis simplifications, plainest-first."""
    if genome.shards > 1:
        yield replace(genome, shards=1)
    if genome.mode != "sequential":
        yield replace(genome, mode="sequential")
    if genome.f != 0:
        yield replace(genome, f=0)
    if not genome.supervised:
        yield replace(genome, supervised=True)
    if genome.integrity:
        # normalize() re-forces integrity when a module-compromise knob
        # is still armed, so this candidate only sticks once those are
        # already shrunk away.
        yield replace(genome, integrity=False)


def _disarm_candidates(genome: PlanGenome) -> Iterator[PlanGenome]:
    """One candidate per active fault feature, each fully disarmed."""
    faults = genome.faults
    for name in RATE_FIELDS:
        if getattr(faults, name) > 0.0:
            yield replace(genome, faults=replace(faults, **{name: 0.0}))
    for index in range(len(faults.crash_points)):
        yield replace(
            genome,
            faults=replace(
                faults,
                crash_points=tuple(
                    p for i, p in enumerate(faults.crash_points) if i != index
                ),
            ),
        )
    for index in range(len(faults.partition_windows)):
        yield replace(
            genome,
            faults=replace(
                faults,
                partition_windows=tuple(
                    w
                    for i, w in enumerate(faults.partition_windows)
                    if i != index
                ),
            ),
        )
    if faults.checkpoint_tamper:
        yield replace(genome, faults=replace(faults, checkpoint_tamper=""))


def _lower_rate_candidates(genome: PlanGenome) -> Iterator[PlanGenome]:
    """Lower each surviving rate one ladder step at a time."""
    faults = genome.faults
    for name in RATE_FIELDS:
        current = getattr(faults, name)
        if current <= 0.0:
            continue
        for lower in SHRINK_RATE_LADDER:
            if lower < current:
                yield replace(
                    genome, faults=replace(faults, **{name: lower})
                )
                break


class Shrinker:
    """Greedy, deterministic, run-budgeted genome reducer."""

    def __init__(
        self,
        predicate: Callable[[PlanGenome], bool],
        *,
        members: Sequence[str],
        max_runs: int = 200,
    ):
        self.predicate = predicate
        self.members = tuple(members)
        self.max_runs = max_runs
        self._runs = 0

    def _holds(self, genome: PlanGenome) -> bool:
        self._runs += 1
        return bool(self.predicate(genome))

    def shrink(self, genome: PlanGenome) -> ShrinkResult:
        """Reduce ``genome`` while the predicate keeps observing it.

        The caller must have already observed the violation on
        ``genome`` itself (the shrinker does not re-check the starting
        point, saving one run from the budget).
        """
        current = normalize(genome, self.members)
        self._runs = 0
        reduced = False
        progress = True
        while progress and self._runs < self.max_runs:
            progress = False
            for make_candidates in (
                _disarm_candidates,
                _axis_candidates,
                _lower_rate_candidates,
            ):
                for candidate in make_candidates(current):
                    if self._runs >= self.max_runs:
                        break
                    candidate = normalize(candidate, self.members)
                    if candidate.digest() == current.digest():
                        continue
                    if self._holds(candidate):
                        current = candidate
                        reduced = True
                        progress = True
                        # Restart passes from the simpler genome.
                        break
                if progress:
                    break
        return ShrinkResult(
            genome=current, runs_used=self._runs, reduced=reduced
        )
