"""Phase timing with a parallel-federation clock.

The paper's Figures 5 and 6 break the running time into four task
categories.  Reproducing their *shape* on a single machine requires one
modelling step: in a real deployment every member's enclave computes its
answer to a leader request **concurrently on its own server**, whereas
this simulation executes them sequentially in one process.  The
:class:`RoundAccounting` hook therefore records, for every
request/response round, both the sequential sum and the per-round
maximum of member compute times; the reported wall time replaces the
sum by the maximum, which is exactly the time a synchronous round takes
across parallel sites.  Leader-side computation is charged as measured.

Everything else (no hidden scaling factors) is honest wall-clock time of
this Python implementation, so absolute numbers differ from the paper's
C/C++ enclaves while ratios across configurations are preserved.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from ..obs.tracer import TRACER

#: Task labels, matching the legend of the paper's Figures 5 and 6.
DATA_AGGREGATION = "Data Aggregation"
INDEXING = "Indexing/Sorting/AlleleFreq."
LD_ANALYSIS = "LD analysis"
LR_ANALYSIS = "LR-test analysis"

ALL_LABELS = (DATA_AGGREGATION, INDEXING, LD_ANALYSIS, LR_ANALYSIS)


@dataclass
class RoundAccounting:
    """Collects member compute times of request/response rounds."""

    sequential_seconds: float = 0.0
    parallel_seconds: float = 0.0
    #: Wall-clock the round actually occupied in this process.  For a
    #: sequential round that is the sum of member times (the loop runs
    #: them back to back); a concurrent round passes its measured round
    #: wall, which is what the parallel correction must reconcile with.
    measured_seconds: float = 0.0
    rounds: int = 0
    #: Rounds executed via the concurrent fan-out engine.
    concurrent_rounds: int = 0
    #: Total member answers across all rounds (concurrency numerator).
    member_answers: int = 0
    rounds_by_kind: Dict[str, int] = field(default_factory=dict)

    def record_round(
        self,
        member_seconds: Dict[str, float],
        *,
        kind: str = "",
        wall_seconds: float | None = None,
        concurrent: bool = False,
    ) -> None:
        """Record one round's per-member compute durations.

        ``wall_seconds`` is the wall-clock the round occupied (defaults
        to the sum of member times, i.e. sequential execution);
        ``kind`` tags the round with its request tag for per-phase round
        counting; ``concurrent`` marks rounds run by the fan-out engine.
        """
        if not member_seconds:
            return
        values = list(member_seconds.values())
        self.sequential_seconds += sum(values)
        self.parallel_seconds += max(values)
        self.measured_seconds += (
            sum(values) if wall_seconds is None else max(wall_seconds, 0.0)
        )
        self.rounds += 1
        self.member_answers += len(values)
        if concurrent:
            self.concurrent_rounds += 1
        if kind:
            self.rounds_by_kind[kind] = self.rounds_by_kind.get(kind, 0) + 1

    @property
    def parallel_saving(self) -> float:
        """Seconds the parallel model removes from the measured trace.

        With sequential execution this is the classic sum-minus-max
        correction; with the concurrent engine the measured round walls
        already overlap member work, so the remaining correction is only
        the gap between the real wall and the ideal ``max`` model
        (thread scheduling overhead, GIL contention).
        """
        return self.measured_seconds - self.parallel_seconds

    @property
    def mean_concurrency(self) -> float:
        """Mean member answers per round (ideal fan-out width)."""
        return self.member_answers / self.rounds if self.rounds else 0.0


@dataclass
class PhaseTimings:
    """Per-task simulated wall time of one protocol run."""

    seconds_by_label: Dict[str, float] = field(default_factory=dict)

    def add(self, label: str, seconds: float) -> None:
        if seconds < 0:
            # Clock adjustments can produce tiny negative residues; clamp.
            seconds = 0.0
        self.seconds_by_label[label] = self.seconds_by_label.get(label, 0.0) + seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_label.values())

    def get(self, label: str) -> float:
        return self.seconds_by_label.get(label, 0.0)

    def merge(self, other: "PhaseTimings") -> None:
        for label, seconds in other.seconds_by_label.items():
            self.add(label, seconds)

    def as_milliseconds(self) -> Dict[str, float]:
        """Milliseconds per label, the unit the paper's figures use."""
        out = {label: 1000.0 * self.get(label) for label in ALL_LABELS}
        out["Total"] = 1000.0 * self.total_seconds
        return out


class PhaseClock:
    """Context-manager stopwatch writing into a :class:`PhaseTimings`.

    Usage::

        clock = PhaseClock(timings)
        with clock.task(LD_ANALYSIS, accounting):
            ... leader ECALL that may run member exchange rounds ...

    When ``accounting`` is supplied, the elapsed time is corrected from
    sequential member execution to the parallel-round model described in
    the module docstring.
    """

    def __init__(self, timings: PhaseTimings):
        self._timings = timings

    @contextmanager
    def task(
        self, label: str, accounting: RoundAccounting | None = None
    ) -> Iterator[None]:
        baseline_saving = accounting.parallel_saving if accounting else 0.0
        with TRACER.span("phase", label=label) as span:
            begin = time.perf_counter()
            try:
                yield
            finally:
                wall = time.perf_counter() - begin
                elapsed = wall
                if accounting is not None:
                    elapsed -= accounting.parallel_saving - baseline_saving
                elapsed = max(elapsed, 0.0)
                self._timings.add(label, elapsed)
                # The span's duration is the *corrected* phase time, so
                # phase spans sum to the PhaseTimings totals; the wall
                # time stays available as an attribute.
                span.annotate(seconds=elapsed, wall_seconds=wall)
                span.set_duration_seconds(elapsed)
