"""Debug taint tagging cross-checking the static flow analysis.

R6-R8 reason about flows *syntactically*; flows that only materialize
through dynamic dispatch or data-dependent control flow are invisible
to them.  This module closes that gap at test time, mirroring the
lock-order instrumentation in :mod:`repro.lint.runtime`:

* :class:`TaintedArray` is an ``ndarray`` subclass carrying a
  :class:`TaintTag` that survives slicing, ufuncs and views;
* :class:`TaintedColumnReader` wraps the enclave's
  :class:`~repro.tee.storage.ColumnReader` so every genotype column
  leaving sealed storage is tagged at the source;
* :class:`TaintMonitor` instruments release/observation points and
  records an :class:`EscapeRecord` — with a short in-repo stack —
  every time a *tagged* value reaches one;
* :func:`unknown_escapes` compares the observed escapes against the
  statically-known declassification inventory (R8's artifact): the
  acceptance bar is **zero** escapes whose stack contains no
  statically-known declassification site.

Debug/tests only: nothing in ``repro`` imports this module at runtime.
Typical wiring (see ``tests/test_lint_flow_runtime.py``)::

    monitor = TaintMonitor()
    reader = TaintedColumnReader(ColumnReader(enclave, store), monitor)
    restore = monitor.instrument(GenDPREnclave, "lead_release_statistics",
                                 sink="release")
    … run the workload …
    restore()
    assert not unknown_escapes(monitor.escapes(), inventory)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import PurePath
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

#: Frames of in-repo stack kept per escape record.
_STACK_DEPTH = 12


@dataclass(frozen=True)
class TaintTag:
    """Provenance label attached to a runtime value."""

    kinds: FrozenSet[str]
    origin: str

    def merged(self, other: Optional["TaintTag"]) -> "TaintTag":
        if other is None:
            return self
        return TaintTag(
            kinds=self.kinds | other.kinds,
            origin=self.origin if self.origin else other.origin,
        )


class TaintedArray(np.ndarray):
    """An ndarray whose taint tag survives views, slices and ufuncs."""

    _taint: Optional[TaintTag]

    def __array_finalize__(self, obj: Any) -> None:
        self._taint = getattr(obj, "_taint", None)

    def __array_wrap__(self, out_arr, context=None, return_scalar=False):
        result = super().__array_wrap__(out_arr, context, return_scalar)
        if isinstance(result, TaintedArray) and result._taint is None:
            result._taint = self._taint
        return result


def taint_array(
    array: np.ndarray, kinds: Iterable[str], origin: str
) -> TaintedArray:
    """Tag ``array`` (as a view — no copy) with the given taint kinds."""
    view = np.asarray(array).view(TaintedArray)
    view._taint = TaintTag(kinds=frozenset(kinds), origin=origin)
    return view


def taint_of(value: Any) -> FrozenSet[str]:
    """The taint kinds carried by ``value``, recursing into containers."""
    tag = getattr(value, "_taint", None)
    if isinstance(tag, TaintTag):
        return tag.kinds
    if isinstance(value, Mapping):
        kinds: FrozenSet[str] = frozenset()
        for item in value.values():
            kinds |= taint_of(item)
        return kinds
    if isinstance(value, (list, tuple, set, frozenset)):
        kinds = frozenset()
        for item in value:
            kinds |= taint_of(item)
        return kinds
    return frozenset()


@dataclass(frozen=True)
class EscapeRecord:
    """One observed flow of tagged data into an instrumented sink."""

    sink: str
    kinds: FrozenSet[str]
    origin: str
    #: In-repo call stack, innermost first: (filename, line, function).
    stack: Tuple[Tuple[str, int, str], ...]


def _capture_stack(package_root: str) -> Tuple[Tuple[str, int, str], ...]:
    """In-repo frames above the probe, innermost first."""
    frames: List[Tuple[str, int, str]] = []
    frame = sys._getframe(2)
    while frame is not None and len(frames) < _STACK_DEPTH:
        code = frame.f_code
        filename = code.co_filename
        if package_root in filename.replace("\\", "/"):
            qualname = getattr(code, "co_qualname", code.co_name)
            frames.append((filename, frame.f_lineno, qualname))
        frame = frame.f_back
    return tuple(frames)


class TaintMonitor:
    """Records every tagged value reaching an instrumented sink."""

    def __init__(self, package_root: str = "repro") -> None:
        self._package_root = package_root
        self._escapes: List[EscapeRecord] = []
        self._probes: Dict[str, int] = {}

    # -- probing -------------------------------------------------------------

    def probe(self, sink: str, *values: Any) -> None:
        """Record an escape if any of ``values`` carries a taint tag."""
        self._probes[sink] = self._probes.get(sink, 0) + 1
        kinds: FrozenSet[str] = frozenset()
        origin = ""
        for value in values:
            tag = getattr(value, "_taint", None)
            if isinstance(tag, TaintTag):
                kinds |= tag.kinds
                origin = origin or tag.origin
            else:
                kinds |= taint_of(value)
        if kinds:
            self._escapes.append(
                EscapeRecord(
                    sink=sink,
                    kinds=kinds,
                    origin=origin,
                    stack=_capture_stack(self._package_root),
                )
            )

    def instrument(
        self, owner: Any, method: str, sink: Optional[str] = None
    ) -> Callable[[], None]:
        """Wrap ``owner.method`` with a probe; returns an undo callable."""
        original = getattr(owner, method)
        label = sink or method
        monitor = self

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            monitor.probe(label, *args, *kwargs.values())
            return original(*args, **kwargs)

        setattr(owner, method, wrapped)

        def restore() -> None:
            setattr(owner, method, original)

        return restore

    # -- results -------------------------------------------------------------

    def escapes(self) -> List[EscapeRecord]:
        return list(self._escapes)

    def probe_counts(self) -> Dict[str, int]:
        return dict(self._probes)

    def reset(self) -> None:
        self._escapes.clear()
        self._probes.clear()


class TaintedColumnReader:
    """Source-tagging wrapper over :class:`~repro.tee.storage.ColumnReader`.

    Every array leaving sealed storage through the wrapped reader is
    tagged ``genotype`` (plus ``sealed``, since the bytes came out of
    an unseal), so any route to an instrumented sink is observable.
    """

    KINDS: Tuple[str, ...] = ("genotype", "sealed")

    def __init__(self, reader: Any, monitor: Optional[TaintMonitor] = None):
        self._reader = reader
        self._monitor = monitor
        self._origin = f"ColumnReader[{getattr(reader, '_store', None) and reader._store.label or '?'}]"

    def _tag(self, array: np.ndarray) -> TaintedArray:
        return taint_array(array, self.KINDS, self._origin)

    # The ColumnReader API surface the repo uses.

    @property
    def num_rows(self) -> int:
        return self._reader.num_rows

    @property
    def num_cols(self) -> int:
        return self._reader.num_cols

    def column(self, index: int) -> TaintedArray:
        return self._tag(self._reader.column(index))

    def columns(self, indices: Sequence[int]) -> TaintedArray:
        return self._tag(self._reader.columns(indices))

    def packed_columns(self, indices: Sequence[int]) -> TaintedArray:
        return self._tag(self._reader.packed_columns(indices))

    def column_sums(self, *args: Any, **kwargs: Any) -> TaintedArray:
        return self._tag(self._reader.column_sums(*args, **kwargs))

    def iter_chunks(self) -> Iterator[Tuple[int, TaintedArray]]:
        for start, chunk in self._reader.iter_chunks():
            yield start, self._tag(chunk)

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "TaintedColumnReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


def _site_key(path: str, line: int) -> Tuple[str, int]:
    return (PurePath(path.replace("\\", "/")).name, line)


def unknown_escapes(
    escapes: Iterable[EscapeRecord],
    inventory: Iterable[Mapping[str, Any]],
) -> List[EscapeRecord]:
    """Escapes whose stacks contain no statically-known declass site.

    ``inventory`` is R8's ``declassifications`` artifact (or any list
    of mappings with ``path`` and ``line`` keys).  An escape is
    *known* when some frame of its in-repo stack sits on a
    statically-inventoried declassification call site; everything else
    is a flow the static analysis failed to predict and must be
    treated as a regression.
    """
    known = {
        _site_key(str(entry["path"]), int(entry["line"]))
        for entry in inventory
        if entry.get("path") is not None and entry.get("line") is not None
    }
    unknown: List[EscapeRecord] = []
    for escape in escapes:
        if any(
            _site_key(filename, line) in known
            for filename, line, _ in escape.stack
        ):
            continue
        unknown.append(escape)
    return unknown
