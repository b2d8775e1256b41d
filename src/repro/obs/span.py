"""Spans and span collectors — the tracing core's data plane.

A :class:`Span` is one named, timed interval of a run: a protocol
phase, a request/response round, an ECALL, or a point event (a network
send, a trusted-memory registration).  Spans form a tree via
``parent_id``; the taxonomy used by the instrumentation is documented
in ``docs/OBSERVABILITY.md`` (study → phase → round → ecall → message).

Collectors receive *completed* spans.  Two implementations exist:

* :class:`SpanCollector` — a thread-safe in-memory sink.
* :class:`NullCollector` — the disabled-tracing sink.  It is a
  stateless singleton (``__slots__ = ()``: it *cannot* accumulate
  anything), so the cost of instrumentation in a non-traced run is one
  attribute lookup per event and zero allocations.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    """One completed (or point) interval of a traced run.

    Timestamps are ``time.perf_counter_ns()`` values: monotonic,
    comparable within one process, meaningless across processes.
    Point events are spans with ``duration_ns == 0``.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_ns: int
    duration_ns: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9

    @property
    def is_event(self) -> bool:
        """True for point events (zero-duration spans)."""
        return self.duration_ns == 0


class NullCollector:
    """The disabled-tracing sink: accepts everything, keeps nothing.

    ``__slots__ = ()`` makes statelessness structural — there is no
    ``__dict__`` to grow, so a run with tracing disabled provably
    allocates nothing in the collector (the guard test in
    ``tests/test_obs.py`` relies on this).
    """

    __slots__ = ()

    def next_id(self) -> int:
        return 0

    def add(self, span: Span) -> None:
        pass

    def spans(self) -> Tuple[Span, ...]:
        return ()

    def __len__(self) -> int:
        return 0


#: Process-wide singleton used whenever tracing is off.
NULL_SINK = NullCollector()


class SpanCollector:
    """Thread-safe in-memory span sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        """A fresh span id (unique within this collector)."""
        return next(self._ids)

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        """Snapshot of collected spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
