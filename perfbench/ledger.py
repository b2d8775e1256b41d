"""The per-layer ledger: self time of the program's layers, from outside.

A :class:`Ledger` times calls into each layer's public functions
through wrappers it installs on the program's modules and classes for
the length of a traced pass (:meth:`Ledger.installed`), and removes
again afterwards, so untraced runs execute the original functions.

Accounting rules:

* every thread keeps its own stack of open frames, so the concurrent
  member fan-out and concurrent service sessions are never counted
  twice;
* a frame's *self* time is its inclusive time minus the inclusive time
  of the wrapped calls it made;
* a *root* frame (:meth:`Ledger.study`, or a wrapped study entry point)
  marks a study thread.  Its own self time is ``other`` — time spent in
  no wrapped layer — so on a study thread the self times of every frame
  plus ``other`` equal the study wall exactly;
* wrapped calls on a thread with no root open (the fan-out workers) add
  their self times to their layers, and their outermost inclusive time
  to ``exchange.worker_busy``; they never enter the study-thread sum;
* a frame's *purpose* is set by the nearest enclosing wrapped caller
  that names one (``checkpoint`` under ``checkpoint_state`` /
  ``restore_state``, ``storage`` under a ``ColumnReader`` read or
  ``seal_matrix``) and is ``frame`` otherwise.  AEAD and wire metrics
  are split by it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import spec

#: Purpose of a frame with no purpose-setting caller.
FRAME = "frame"
CHECKPOINT = "checkpoint"
STORAGE = "storage"

#: ECALLs whose callees carry the ``checkpoint`` purpose.
_CHECKPOINT_ECALLS = frozenset({"checkpoint_state", "restore_state"})


class _Frame:
    __slots__ = ("key", "start", "child", "purpose", "root")

    def __init__(self, key: str, start: float, purpose: str, root: bool):
        self.key = key
        self.start = start
        self.child = 0.0
        self.purpose = purpose
        self.root = root


class Ledger:
    """Self times, call counts and byte counts of wrapped layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Self seconds by layer key, over every thread.
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Calls, bytes and elements by counter name.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of every finished root frame.
        self.study_walls: List[float] = []
        #: Self seconds of root frames (time in no wrapped layer).
        self.other_seconds = 0.0
        #: Self seconds of non-root frames on study threads.
        self.study_self_seconds = 0.0
        #: Outermost inclusive seconds of wrapped calls on worker threads.
        self.worker_busy_seconds = 0.0
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- frames ----------------------------------------------------------------

    def stack(self) -> List[_Frame]:
        """The calling thread's open frames, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def purpose(self) -> str:
        stack = self.stack()
        return stack[-1].purpose if stack else FRAME

    def on_study_thread(self) -> bool:
        stack = self.stack()
        return bool(stack) and stack[0].root

    def enter(
        self, key: str, purpose: Optional[str] = None, *, root: bool = False
    ) -> _Frame:
        stack = self.stack()
        if purpose is None:
            purpose = stack[-1].purpose if stack else FRAME
        frame = _Frame(key, self._clock(), purpose, root)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost); returns its inclusive time."""
        inclusive = self._clock() - frame.start
        own = inclusive - frame.child
        stack = self.stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"ledger frame {frame.key!r} closed out of order")
        stack.pop()
        if stack:
            stack[-1].child += inclusive
        with self._lock:
            if frame.root:
                self.other_seconds += own
                self.study_walls.append(inclusive)
            else:
                self.seconds[frame.key] += own
                if stack and stack[0].root:
                    self.study_self_seconds += own
                elif not stack:
                    self.worker_busy_seconds += inclusive
        return inclusive

    @contextmanager
    def study(self) -> Iterator[None]:
        """Time one study on the calling thread as a root frame."""
        frame = self.enter("study", FRAME, root=True)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def enclosing(self, key: str) -> bool:
        """Whether a frame named ``key`` is open on the calling thread."""
        return any(frame.key == key for frame in self.stack())

    def record_rounds(self, ocall_rounds: Dict[str, int]) -> None:
        """Count one study's ``StudyResult.ocall_rounds`` by kind."""
        for kind, rounds in ocall_rounds.items():
            self.count(f"rounds.{tag_name(kind)}", rounds)

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON-ready data."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "counts": dict(self.counts),
                "study_walls": list(self.study_walls),
                "other": self.other_seconds,
                "study_self": self.study_self_seconds,
                "worker_busy": self.worker_busy_seconds,
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add a :meth:`snapshot` (from a child process) to this ledger."""
        with self._lock:
            for key, value in snapshot["seconds"].items():
                self.seconds[key] += value
            for key, value in snapshot["counts"].items():
                self.counts[key] += value
            self.study_walls.extend(snapshot["study_walls"])
            self.other_seconds += snapshot["other"]
            self.study_self_seconds += snapshot["study_self"]
            self.worker_busy_seconds += snapshot["worker_busy"]

    def reconciliation_error(self) -> float:
        """Study wall minus study-thread self times minus ``other`` (s)."""
        with self._lock:
            return sum(self.study_walls) - (
                self.study_self_seconds + self.other_seconds
            )

    # -- wrappers --------------------------------------------------------------

    def timed(
        self,
        fn: Callable,
        key: Any,
        *,
        purpose: Optional[str] = None,
        note: Optional[Callable] = None,
        root: bool = False,
        study_only: bool = False,
        transform: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` in a frame.

        ``key`` is a layer name, or a callable ``(args, purpose) -> name``;
        ``purpose`` likewise may be a callable of ``args``.  ``note``
        ``(args, result, inclusive)`` records counters after the call;
        ``transform`` may replace the positional arguments;
        ``study_only`` wrappers pass straight through off study threads.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if study_only and not ledger.on_study_thread():
                return fn(*args, **kwargs)
            own = purpose(args) if callable(purpose) else purpose
            name = key(args, own or ledger.purpose()) if callable(key) else key
            if transform is not None:
                args = transform(args)
            frame = ledger.enter(name, own, root=root)
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = ledger.exit(frame)
            if note is not None:
                note(args, result, inclusive)
            return result

        return wrapper

    def counted(self, fn: Callable, note: Callable) -> Callable:
        """Wrap ``fn`` with a counter only: ``note(args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            note(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]):
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, roots: Tuple[Tuple[str, str], ...] = ()) -> Iterator["Ledger"]:
        """Wrap every layer (and ``roots`` as study roots) for a pass."""
        try:
            install_layers(self)
            for module, attr in roots:
                owner, name = _resolve(module, attr)
                self.patch(
                    owner, name, lambda fn: self.timed(fn, "study", root=True)
                )
            yield self
        finally:
            self.restore()


def _resolve(module: str, attr: str) -> Tuple[Any, str]:
    """``("repro.x", "Class.method")`` -> ``(Class, "method")``."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def tag_name(tag: str) -> str:
    """A round kind or message tag as a metric-name segment."""
    return tag.replace(":", ".")


# -- report ----------------------------------------------------------------------

#: Layer keys whose self time is reported as ``<key>_self_s``.
_SELF_TIMED = ("ld.prune", "channel.protect", "channel.open", "storage.columns")


def _seconds_name(key: str) -> str:
    if key.startswith("ecall."):
        name = key[len("ecall."):]
        return f"ecall.{name if name in spec.ECALLS else 'other'}.self_s"
    if key.startswith("kernel."):
        return f"{key}.self_s"
    if key in _SELF_TIMED:
        return f"{key}_self_s"
    return f"{key}_s"


def _count_name(key: str) -> str:
    if key.startswith("ecall.") and key.endswith(".calls"):
        name = key[len("ecall."):-len(".calls")]
        return f"ecall.{name if name in spec.ECALLS else 'other'}.calls"
    for prefix in ("net.messages.", "net.bytes.", "rounds."):
        if key.startswith(prefix):
            tag = key[len(prefix):]
            if tag.startswith("transcript."):
                tag = "transcript"
            known = spec.ROUND_KINDS if prefix == "rounds." else spec.NET_TAGS
            return prefix + (tag if tag in known else "other")
    return key


def layer_metrics(
    snapshot: Dict[str, Any],
    *,
    startup: Dict[str, float],
    service: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer metrics of :data:`spec.PER_LAYER` from a snapshot.

    Times and counts are per traced study; ``startup`` holds the
    ``startup.*`` values, ``service`` the per-study ``serve.*`` sums
    and the warm-hit rate.
    """
    studies = len(snapshot["study_walls"])
    totals: Dict[str, float] = defaultdict(float)
    for key, value in snapshot["seconds"].items():
        totals[_seconds_name(key)] += value
    for key, value in snapshot["counts"].items():
        totals[_count_name(key)] += value
    for key, value in service.items():
        totals[key] += value
    totals["other.self_s"] += snapshot["other"]
    totals["exchange.worker_busy_s"] += snapshot["worker_busy"]
    totals["trace.study_wall_s"] += sum(snapshot["study_walls"])
    totals["rounds.total"] = sum(
        totals[f"rounds.{kind}"] for kind in spec.ROUND_KINDS
    )
    members_asked = spec.MEMBERS - 1
    totals["ld.pairs_fetched"] = totals.pop("ld.pairs_requested", 0.0) / members_asked

    metrics: Dict[str, float] = {}
    for name, _unit in spec.PER_LAYER:
        value = totals.get(name, 0.0)
        if name not in spec.NOT_PER_STUDY and not name.startswith("startup."):
            value /= max(studies, 1)
        metrics[name] = value
    metrics["ld.lookahead_misses"] = max(metrics["rounds.ld"] - 1.0, 0.0)
    fetched = metrics["ld.pairs_fetched"]
    metrics["ld.useful_ratio"] = (
        metrics["ld.comparisons"] / fetched if fetched else 0.0
    )
    metrics["trace.studies"] = float(studies)
    metrics["trace.overhead_ratio"] = overhead_ratio
    metrics.update(startup)
    return metrics


# -- startup ---------------------------------------------------------------------


def parse_importtime(report: str) -> Dict[str, float]:
    """``startup.import*`` seconds from a ``python -X importtime`` report.

    * ``import_s``: cumulative time of the outermost ``repro`` imports;
    * ``import_scipy_s`` / ``import_numpy_s``: cumulative time of the
      outermost imports of that package, wherever they happen;
    * ``import_repro_self_s``: self time of every ``repro`` module.
    """
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(self_us), int(cumulative_us), name.strip()))
    # A module's line follows the lines of everything it imported, so a
    # row's children are the deeper rows right above it.
    totals = {"repro": 0, "scipy": 0, "numpy": 0, "repro_self": 0}
    for index, (depth, self_us, cumulative_us, name) in enumerate(rows):
        package = name.split(".", 1)[0]
        if package == "repro":
            totals["repro_self"] += self_us
        if package not in ("repro", "scipy", "numpy"):
            continue
        if package == "repro" and depth > 0:
            continue
        if not _outermost(rows, index, package):
            continue
        totals[package] += cumulative_us
    return {
        "startup.import_s": totals["repro"] / 1e6,
        "startup.import_scipy_s": totals["scipy"] / 1e6,
        "startup.import_numpy_s": totals["numpy"] / 1e6,
        "startup.import_repro_self_s": totals["repro_self"] / 1e6,
    }


def _outermost(rows, index: int, package: str) -> bool:
    """Whether no enclosing import of row ``index`` is from ``package``."""
    depth = rows[index][0]
    for later_depth, _self, _cumulative, name in rows[index + 1:]:
        if later_depth < depth:
            if name.split(".", 1)[0] == package:
                return False
            depth = later_depth
            if depth == 0:
                break
    return True


def install_layers(ledger: Ledger) -> None:
    """Wrap the public functions of every layer the ledger reports.

    Callers that import a function by name hold their own reference, so
    the name each caller uses is wrapped where it lives.
    """
    from concurrent.futures import Future

    import repro.core.enclave_logic as enclave_logic
    import repro.core.federation as federation
    import repro.core.pipeline as pipeline
    import repro.core.provision as provision
    import repro.crypto.authenticated as authenticated
    import repro.net.serialization as serialization
    import repro.serve.pool as pool
    import repro.stats.chisq as chisq
    import repro.stats.ld as ld
    import repro.stats.lr_test as lr_test
    import repro.tee.enclave as enclave
    from repro.net.network import ScopedNetwork, SimulatedNetwork
    from repro.tee.channel import ChannelEndpoint
    from repro.tee.storage import ColumnReader

    timed, counted, count = ledger.timed, ledger.counted, ledger.count

    def simple(owner, attr, key, **options):
        ledger.patch(owner, attr, lambda fn: timed(fn, key, **options))

    # provisioning
    for owner in (federation, pool):
        simple(owner, "provision_substrate", "provision.substrate")
    simple(
        federation,
        "establish_channel",
        "provision.channel",
        note=lambda args, result, dt: count("provision.channels"),
    )
    for owner in (federation, provision):
        simple(owner, "bind_study", "provision.bind")

    # the ECALL boundary, keyed by ECALL name
    def ecall_note(args, result, inclusive):
        name = args[1]
        count(f"ecall.{name}.calls")
        if name == "checkpoint_state":
            count("checkpoint.calls")
            count("checkpoint.s", inclusive)

    simple(
        enclave.Enclave,
        "ecall",
        lambda args, purpose: f"ecall.{args[1]}",
        purpose=lambda args: CHECKPOINT if args[1] in _CHECKPOINT_ECALLS else None,
        note=ecall_note,
    )
    ledger.patch(
        enclave_logic,
        "seal",
        lambda fn: counted(
            fn, lambda args, result: count("checkpoint.bytes", len(args[1]))
        ),
    )

    # fan-out: the study thread blocked on member futures
    simple(Future, "result", "exchange.wait", study_only=True)

    # the LD walk and its moment callback
    def count_comparisons(args):
        l_prime, ranking, get_moments, *rest = args

        def counted_moments(*call):
            count("ld.comparisons")
            return get_moments(*call)

        return (l_prime, ranking, counted_moments, *rest)

    simple(pipeline, "ld_prune", "ld.prune", transform=count_comparisons)

    # kernels
    def kernel(owner, attr, name, elements):
        def note(args, result, inclusive):
            count(f"kernel.{name}.calls")
            count(f"kernel.{name}.elements", elements(args, result))

        simple(owner, attr, f"kernel.{name}", note=note)

    def pair_elements(args, result):
        gathered, inverse = args[0], args[1]
        if ledger.enclosing("ecall.answer_ld"):
            count("ld.pairs_requested", inverse.shape[0])
        return gathered.shape[0] * inverse.shape[0]

    kernel(ld, "pair_moments_kernel", "pair_moments", pair_elements)
    kernel(ld, "window_pairs", "window_pairs", lambda a, r: r.shape[0])
    kernel(chisq, "rank_pvalues", "rank_pvalues", lambda a, r: len(a[0]))
    kernel(lr_test, "lr_matrix", "lr_matrix", lambda a, r: a[0].size)

    # AEAD, split by purpose
    for attr, verb in (("encrypt", "seal"), ("decrypt", "open")):
        simple(
            authenticated.StreamAead,
            attr,
            lambda args, purpose, verb=verb: f"crypto.{verb}.{purpose}",
            note=lambda args, result, dt, verb=verb: count(
                f"crypto.{verb}.{ledger.purpose()}_bytes", len(args[1])
            ),
        )
    for owner in (authenticated, enclave):
        simple(
            owner,
            "derive_subkey",
            "crypto.kdf",
            note=lambda args, result, dt: count("crypto.kdf_calls"),
        )

    # secure channel
    simple(ChannelEndpoint, "protect", "channel.protect")
    simple(ChannelEndpoint, "open", "channel.open")

    # wire serialization, split by purpose
    simple(
        serialization,
        "encode",
        lambda args, purpose: f"wire.encode.{purpose}",
        note=lambda args, result, dt: count(
            f"wire.encode.{ledger.purpose()}_bytes", len(result)
        ),
    )
    simple(serialization, "decode", "wire.decode")

    # simulated network, messages and bytes by tag
    def send_note(args, result, inclusive):
        envelope = args[1]
        tag = tag_name(envelope.tag)
        count(f"net.messages.{tag}")
        count(f"net.bytes.{tag}", envelope.size())

    for owner in (SimulatedNetwork, ScopedNetwork):
        simple(owner, "send", "net.send", note=send_note)
    for attr in ("receive", "drain"):
        simple(SimulatedNetwork, attr, "net.receive")

    # sealed storage
    for attr in ("columns", "column", "column_sums"):
        simple(
            ColumnReader,
            attr,
            "storage.columns",
            purpose=STORAGE,
            note=lambda args, result, dt: count("storage.column_reads"),
        )
    simple(enclave_logic, "seal_matrix", "storage.seal", purpose=STORAGE)
