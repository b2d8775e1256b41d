"""The tracer: context-manager/decorator API over span collection.

One process-wide :data:`TRACER` is shared by every instrumentation
point (protocol phases, ECALL dispatch, network sends, resource
sampling).  It starts *disabled*: ``span()``/``event()`` check a single
attribute and return a shared no-op handle, so un-traced runs pay one
attribute lookup per event and allocate nothing.

Enabling is scoped, not global state to forget about::

    collector = SpanCollector()
    with TRACER.activated(collector):
        with TRACER.span("study", study_id="s1"):
            ...

Span hierarchy is tracked per thread (a thread-local stack of open
span ids), so concurrent runs on separate threads produce correctly
parented — if interleaved — trees into whichever collector is active.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, TypeVar

from .span import NULL_SINK, Span, SpanCollector

F = TypeVar("F", bound=Callable[..., Any])


class _NullSpanHandle:
    """Shared no-op stand-in for a span handle when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attributes: object) -> "_NullSpanHandle":
        return self

    def set_duration_seconds(self, seconds: float) -> "_NullSpanHandle":
        return self


#: Singleton returned by ``TRACER.span(...)`` while tracing is disabled.
NULL_SPAN = _NullSpanHandle()


class _SpanHandle:
    """Context manager finalising one live span into the collector."""

    __slots__ = ("_tracer", "span", "_override_ns")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._override_ns: Optional[int] = None

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self.span.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop()
        if self._override_ns is not None:
            self.span.duration_ns = self._override_ns
        else:
            self.span.duration_ns = max(
                0, time.perf_counter_ns() - self.span.start_ns
            )
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._collector.add(self.span)
        return False

    def annotate(self, **attributes: object) -> "_SpanHandle":
        """Attach/overwrite attributes on the live span."""
        self.span.attributes.update(attributes)
        return self

    def set_duration_seconds(self, seconds: float) -> "_SpanHandle":
        """Report a modelled duration instead of raw wall time.

        The phase clock uses this to record the *parallel-corrected*
        phase time (see :mod:`repro.core.timing`), keeping the invariant
        that phase spans sum to the ``PhaseTimings`` totals.
        """
        self._override_ns = max(0, int(seconds * 1e9))
        return self


class Tracer:
    """Process-wide tracing front end; see module docstring."""

    def __init__(self) -> None:
        self._collector = NULL_SINK
        #: Fast-path switch; instrumentation reads only this when off.
        self.enabled = False
        self._local = threading.local()

    # -- span stack (per thread) ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_id: int) -> None:
        self._stack().append(span_id)

    def _pop(self) -> None:
        self._stack().pop()

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def propagated(self, span_id: Optional[int]) -> Iterator[None]:
        """Adopt ``span_id`` as this thread's current parent span.

        Span hierarchy is tracked per thread, so spans opened on a worker
        thread would otherwise become roots.  A fan-out captures
        :meth:`current_span_id` before dispatching and wraps each worker
        body in ``propagated(parent)``, keeping e.g. member ECALL spans
        parented under the round span that triggered them.  ``None``
        (tracing disabled, or no open span) is a no-op.
        """
        if span_id is None:
            yield
            return
        self._push(span_id)
        try:
            yield
        finally:
            self._pop()

    # -- recording ---------------------------------------------------------------

    @property
    def collector(self):
        return self._collector

    def span(self, name: str, **attributes: object):
        """Open a span; use as ``with TRACER.span("phase", label=l):``."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(
            self,
            Span(
                name=name,
                span_id=self._collector.next_id(),
                parent_id=self.current_span_id(),
                start_ns=time.perf_counter_ns(),
                attributes=attributes,
            ),
        )

    def event(self, name: str, **attributes: object) -> None:
        """Record a point event (zero-duration span) under the open span."""
        if not self.enabled:
            return
        self._collector.add(
            Span(
                name=name,
                span_id=self._collector.next_id(),
                parent_id=self.current_span_id(),
                start_ns=time.perf_counter_ns(),
                duration_ns=0,
                attributes=attributes,
            )
        )

    # -- activation ---------------------------------------------------------------

    @contextmanager
    def activated(
        self, collector: Optional[SpanCollector] = None
    ) -> Iterator[SpanCollector]:
        """Route spans into ``collector`` for the duration of the block.

        Nests: the previous sink (possibly the null sink) is restored on
        exit, even on error.
        """
        sink = collector if collector is not None else SpanCollector()
        previous = (self._collector, self.enabled)
        self._collector = sink
        self.enabled = True
        try:
            yield sink
        finally:
            self._collector, self.enabled = previous


#: The process-wide tracer every instrumentation point uses.
TRACER = Tracer()


def traced(name: Optional[str] = None, **attributes: object) -> Callable[[F], F]:
    """Decorator form: trace every call of ``func`` as one span."""

    def decorate(func: F) -> F:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not TRACER.enabled:
                return func(*args, **kwargs)
            with TRACER.span(span_name, **attributes):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
