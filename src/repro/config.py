"""Configuration objects for GenDPR studies.

The thresholds mirror the SecureGenome settings the paper adopts in its
evaluation (Section 7): MAF cut-off 0.05, LD cut-off 1e-5 (p-value on the
r-squared statistic), false-positive rate 0.1 and identification-power
threshold 0.9 for the likelihood-ratio test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional, Tuple, get_args, get_origin, get_type_hints

from .errors import CollusionConfigError, ConfigError

#: SecureGenome defaults used throughout the paper's evaluation.
DEFAULT_MAF_CUTOFF = 0.05
DEFAULT_LD_CUTOFF = 1e-5
DEFAULT_FALSE_POSITIVE_RATE = 0.1
DEFAULT_POWER_THRESHOLD = 0.9


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _encode(value: Any) -> Any:
    """``value`` as JSON: documents nest, tuples become lists."""
    if isinstance(value, JsonDocument):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, value: Any) -> Any:
    """``value`` read back as the annotated type ``hint``.

    Scalars are coerced (``int(...)``, ``str(...)``, ...), documents
    decode recursively, and lists become tuples of the declared length.
    """
    if is_dataclass(hint):
        return hint.from_json_dict(value)
    if get_origin(hint) is not tuple:
        return hint(value)
    items = get_args(hint)
    if items[-1] is Ellipsis:
        return tuple(_decode(items[0], item) for item in value)
    if len(value) != len(items):
        raise ValueError(f"expected {len(items)} items, got {value!r}")
    return tuple(_decode(item, part) for item, part in zip(items, value))


class JsonDocument:
    """Canonical JSON codec of a frozen config dataclass, from its fields.

    Every field is written, so ``cls.from_json_dict(obj.to_json_dict())
    == obj`` holds exactly and equal objects serialise to identical
    documents.  Decoding validates through ``__post_init__`` as usual, so
    a hand-edited corpus entry that breaks an invariant fails with a
    classified :class:`~repro.errors.ConfigError`.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> Any:
        hints = get_type_hints(cls)
        try:
            return cls(
                **{f.name: _decode(hints[f.name], doc[f.name]) for f in fields(cls)}
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed {cls.__name__} document: {exc}")

    def canonical_json(self) -> str:
        """The document with sorted keys and no whitespace."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 over :meth:`canonical_json` — the document's identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PrivacyThresholds:
    """Cut-off parameters for the three verification phases.

    Attributes:
        maf_cutoff: minimum global minor-allele frequency for a SNP to be
            retained in Phase 1.  SNPs rarer than this form characteristic
            outliers exploitable by membership attacks.
        ld_cutoff: p-value threshold on the pairwise r-squared statistic in
            Phase 2.  A p-value *below* the cut-off marks the pair as
            dependent (high LD), so only the better chi-squared-ranked SNP
            of the pair is kept.
        false_positive_rate: tolerated false-positive rate (alpha) of the
            LR-test membership detector in Phase 3.
        power_threshold: maximum tolerated identification power (beta) of
            that detector; the released subset must keep empirical power
            below this value.
    """

    maf_cutoff: float = DEFAULT_MAF_CUTOFF
    ld_cutoff: float = DEFAULT_LD_CUTOFF
    false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE
    power_threshold: float = DEFAULT_POWER_THRESHOLD

    def __post_init__(self) -> None:
        _require(0.0 <= self.maf_cutoff < 0.5, "maf_cutoff must be in [0, 0.5)")
        _require(0.0 < self.ld_cutoff < 1.0, "ld_cutoff must be in (0, 1)")
        _require(
            0.0 < self.false_positive_rate < 1.0,
            "false_positive_rate must be in (0, 1)",
        )
        _require(
            0.0 < self.power_threshold <= 1.0,
            "power_threshold must be in (0, 1]",
        )


@dataclass(frozen=True)
class CollusionPolicy:
    """How many honest-but-curious colluders the federation tolerates.

    ``f_values`` lists every collusion size the verification must survive.
    The paper's static setting corresponds to a single value (``f=2``) while
    the conservative mode enumerates ``f = 1 .. G-1``.  ``f = 0`` (the empty
    tuple) disables collusion tolerance.
    """

    f_values: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for f in self.f_values:
            if f < 0:
                raise CollusionConfigError("collusion sizes must be non-negative")
        if len(set(self.f_values)) != len(self.f_values):
            raise CollusionConfigError("duplicate collusion sizes")

    @classmethod
    def none(cls) -> "CollusionPolicy":
        """No collusion tolerance (the paper's ``f = 0`` experiments)."""
        return cls(())

    @classmethod
    def static(cls, f: int) -> "CollusionPolicy":
        """Tolerate exactly ``f`` colluders (paper's ``f = k`` rows)."""
        if f <= 0:
            raise CollusionConfigError("static collusion size must be positive")
        return cls((f,))

    @classmethod
    def conservative(cls, num_members: int) -> "CollusionPolicy":
        """Tolerate every possible collusion, ``f = {1, ..., G-1}``."""
        if num_members < 2:
            raise CollusionConfigError(
                "conservative policy needs at least two federation members"
            )
        return cls(tuple(range(1, num_members)))

    @property
    def enabled(self) -> bool:
        return bool(self.f_values)

    def validate_for(self, num_members: int) -> None:
        """Check every requested ``f`` is feasible for ``num_members`` GDOs."""
        for f in self.f_values:
            if f >= num_members:
                raise CollusionConfigError(
                    f"cannot tolerate f={f} colluders among G={num_members} members"
                )


#: Supported federation execution modes.
EXECUTION_MODES = ("sequential", "parallel")


@dataclass(frozen=True)
class ExecutionConfig:
    """How the simulated federation executes member work within a round.

    The paper's evaluation assumes the ``G`` member enclaves compute
    concurrently on separate servers.  ``parallel`` makes the simulation
    do the same — each round fans per-edge enclave work out to a thread
    pool (numpy and hashlib release the GIL on the hot paths) — while
    ``sequential`` keeps the original one-member-at-a-time loop.  Both
    modes produce bit-identical study outcomes; only wall-clock and the
    round-accounting reconciliation differ (see ``docs/PERFORMANCE.md``).

    Attributes:
        mode: ``"sequential"`` or ``"parallel"``.
        max_workers: thread-pool width for parallel rounds; defaults to
            one worker per member when unset.
    """

    mode: str = "sequential"
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            self.mode in EXECUTION_MODES,
            f"execution mode must be one of {EXECUTION_MODES}, got {self.mode!r}",
        )
        if self.max_workers is not None:
            _require(self.max_workers > 0, "max_workers must be positive")

    @classmethod
    def sequential(cls) -> "ExecutionConfig":
        return cls(mode="sequential")

    @classmethod
    def parallel(cls, max_workers: Optional[int] = None) -> "ExecutionConfig":
        return cls(mode="parallel", max_workers=max_workers)

    @property
    def is_parallel(self) -> bool:
        return self.mode == "parallel"


#: Per-envelope fault rates, in the order of ``repro.faults.plan.ACTIONS``;
#: together they share the per-send probability budget.
ENVELOPE_RATE_FIELDS: Tuple[str, ...] = (
    "drop_rate",
    "duplicate_rate",
    "delay_rate",
    "corrupt_rate",
    "replay_rate",
    "withhold_rate",
)

#: Module-compromise rates (excluded from the per-envelope budget).
MODULE_RATE_FIELDS: Tuple[str, ...] = ("equivocate_rate", "shard_flip_rate")

RATE_FIELDS: Tuple[str, ...] = ENVELOPE_RATE_FIELDS + MODULE_RATE_FIELDS

#: Checkpoint-tamper modes (``""`` is off).
TAMPER_MODES: Tuple[str, ...] = ("", "stale", "stale_persistent", "corrupt")


@dataclass(frozen=True)
class FaultConfig(JsonDocument):
    """Deterministic fault injection for one run (``repro.faults``).

    Disabled by default; while disabled the network and ECALL fast
    paths pay a single ``is None`` check.  When enabled, every injected
    event is a pure function of ``seed`` and deterministic per-link /
    per-enclave counters, so a faulted run replays bit-for-bit from its
    configuration alone (see ``docs/RESILIENCE.md``).

    Attributes:
        enabled: master switch for injection.
        seed: drives the per-message fault draws (via
            :class:`~repro.crypto.rng.DeterministicRng`).
        drop_rate: probability a sent envelope is silently discarded.
        duplicate_rate: probability an envelope is delivered twice.
        delay_rate: probability an envelope is held back until the
            affected peer's next retry backoff releases it.
        corrupt_rate: probability a *request* frame (leader → member)
            is delivered with one byte flipped; replies are never
            corrupted because the leader enclave opens them inside a
            phase ECALL where transport-level retransmission cannot
            intervene (the AEAD check still rejects such a frame).
        replay_rate: probability an envelope is delivered together with
            a re-send of an earlier *valid* frame on the same link — a
            Byzantine host replaying authenticated traffic (absorbed by
            receiver-side dedup, rejected by channel sequencing).
        withhold_rate: probability an envelope is selectively withheld
            (a targeted Byzantine drop; see ``withhold_target``).
        withhold_target: restrict withholding to envelopes touching this
            node (empty: any link), modelling an adversary steering one
            member toward eviction.
        equivocate_rate: probability (per broadcast recipient, per
            attempt) that a compromised leader-side trusted module sends
            that recipient a divergent broadcast body — the attack the
            broadcast-consistency echo round exists to catch.
        shard_flip_rate: probability (per shard task, per emission
            attempt) that the compromised trusted module on
            ``shard_flip_target`` emits an in-bounds falsified leaf
            partial into the combine tree — interior-node equivocation,
            the attack the shard commitment verification catches.  Like
            ``equivocate_rate`` this models module compromise rather
            than a network action, so it is excluded from the
            per-envelope rate budget.
        shard_flip_target: the member whose emitted shard partials are
            falsified; required whenever ``shard_flip_rate > 0``.
        checkpoint_tamper: ``""`` (off), ``"stale"`` (one failover
            restore is served the *oldest* sealed checkpoint — a
            rollback replay, rejected via the platform counter),
            ``"stale_persistent"`` (every restore is served the oldest
            blob) or ``"corrupt"`` (every restore is served a
            bit-flipped blob, which fails unsealing closed).
        crash_points: ``(enclave_id, ecall_index)`` pairs — tear the
            enclave down immediately before its N-th ECALL dispatched
            through the untrusted proxy (1-based).
        partition_windows: ``(node_id, start_round, blocked_ops)``
            triples — from OCALL round ``start_round`` (1-based), the
            next ``blocked_ops`` network operations touching the node
            fail, then the partition heals.
    """

    enabled: bool = False
    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    replay_rate: float = 0.0
    withhold_rate: float = 0.0
    withhold_target: str = ""
    equivocate_rate: float = 0.0
    shard_flip_rate: float = 0.0
    shard_flip_target: str = ""
    checkpoint_tamper: str = ""
    crash_points: Tuple[Tuple[str, int], ...] = ()
    partition_windows: Tuple[Tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in RATE_FIELDS:
            rate = getattr(self, name)
            _require(0.0 <= rate <= 1.0, f"{name} must be in [0, 1]")
        _require(
            self.shard_flip_rate == 0.0 or bool(self.shard_flip_target),
            "shard_flip_rate needs a shard_flip_target member",
        )
        _require(
            sum(getattr(self, name) for name in ENVELOPE_RATE_FIELDS) <= 1.0,
            "fault rates must sum to at most 1",
        )
        _require(
            self.checkpoint_tamper in TAMPER_MODES,
            f"checkpoint_tamper must be one of {TAMPER_MODES}",
        )
        for enclave_id, index in self.crash_points:
            _require(bool(enclave_id), "crash point needs an enclave id")
            _require(index >= 1, "crash point ECALL index is 1-based")
        for node_id, start_round, blocked_ops in self.partition_windows:
            _require(bool(node_id), "partition window needs a node id")
            _require(start_round >= 1, "partition start round is 1-based")
            _require(blocked_ops >= 1, "partition must block at least one op")

    @classmethod
    def off(cls) -> "FaultConfig":
        return cls()

    @classmethod
    def chaos(cls, seed: int, *, intensity: float = 0.2) -> "FaultConfig":
        """A mixed drop/duplicate/delay/corrupt profile at ``intensity``.

        ``intensity`` is the total fault probability per sent envelope,
        split 2:1:1:1 across drop, duplicate, delay and corrupt.
        """
        _require(0.0 <= intensity <= 1.0, "intensity must be in [0, 1]")
        share = intensity / 5.0
        return cls(
            enabled=True,
            seed=seed,
            drop_rate=2 * share,
            duplicate_rate=share,
            delay_rate=share,
            corrupt_rate=share,
        )

    @classmethod
    def byzantine(
        cls,
        seed: int,
        *,
        intensity: float = 0.1,
        equivocate_rate: float = 0.0,
        withhold_target: str = "",
        shard_flip_rate: float = 0.0,
        shard_flip_target: str = "",
        checkpoint_tamper: str = "",
        crash_points: Tuple[Tuple[str, int], ...] = (),
    ) -> "FaultConfig":
        """An adversarial profile: replay + targeted withholding.

        ``intensity`` is split evenly between REPLAY and WITHHOLD;
        equivocation, shard-partial falsification and checkpoint
        tampering are opt-in because they model a compromised trusted
        module / storage host rather than the network.
        """
        _require(0.0 <= intensity <= 1.0, "intensity must be in [0, 1]")
        share = intensity / 2.0
        return cls(
            enabled=True,
            seed=seed,
            replay_rate=share,
            withhold_rate=share,
            withhold_target=withhold_target,
            equivocate_rate=equivocate_rate,
            shard_flip_rate=shard_flip_rate,
            shard_flip_target=shard_flip_target,
            checkpoint_tamper=checkpoint_tamper,
            crash_points=crash_points,
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervised-runtime knobs: retry, checkpoint failover.

    Disabled by default, which preserves the historical fail-stop
    behaviour (any fault raises out of the protocol).  Enabled, the
    round engine retries transient failures of every round (OCALL,
    tree-combine, echo) with exponential backoff on the *simulated*
    clock (``repro.core.resilience.BACKOFF_BASE_S`` doubling per
    attempt), and
    :class:`~repro.core.supervisor.ProtocolSupervisor` checkpoints the
    leader after every phase and performs automated failover when the
    leader enclave crashes.  Members that stay unresponsive past the
    retry budget are evicted with a classified
    :class:`~repro.errors.MemberUnresponsiveError` — the paper makes no
    liveness guarantee for members, so this is an orderly abort, never
    a hang or a wrong answer.

    Attributes:
        enabled: give the round engine its retry budget and run the
            supervisor.
        max_attempts: delivery attempts per edge per round before the
            member is declared unresponsive.
        max_failovers: leader replacements tolerated per study before a
            :class:`~repro.errors.LeaderFailoverError` abort.
        max_repairs: shard-tree repairs (member enclave replacement +
            task re-run after a mid-combine crash or quarantine)
            tolerated per study before the underlying classified error
            propagates; only consulted for sharded studies.
    """

    enabled: bool = False
    max_attempts: int = 4
    max_failovers: int = 2
    max_repairs: int = 2

    def __post_init__(self) -> None:
        _require(self.max_attempts >= 1, "max_attempts must be at least 1")
        _require(self.max_failovers >= 0, "max_failovers must be >= 0")
        _require(self.max_repairs >= 0, "max_repairs must be >= 0")

    @classmethod
    def off(cls) -> "ResilienceConfig":
        return cls()

    @classmethod
    def supervised(
        cls,
        *,
        max_attempts: int = 4,
        max_failovers: int = 2,
        max_repairs: int = 2,
    ) -> "ResilienceConfig":
        return cls(
            enabled=True,
            max_attempts=max_attempts,
            max_failovers=max_failovers,
            max_repairs=max_repairs,
        )


@dataclass(frozen=True)
class IntegrityConfig:
    """Byzantine-integrity verification switches.

    Disabled by default: the channel transcripts and checkpoint epochs
    are always maintained (they cost one running digest update per frame
    and eight authenticated bytes per checkpoint), but the *verification
    rounds* — the broadcast-consistency echo after each leader broadcast
    and the transcript cross-check at phase boundaries — only run when
    enabled, so the default wire traffic is unchanged.

    Attributes:
        enabled: run the echo and transcript verification rounds.
    """

    enabled: bool = False

    @classmethod
    def off(cls) -> "IntegrityConfig":
        return cls()

    @classmethod
    def on(cls) -> "IntegrityConfig":
        return cls(enabled=True)


@dataclass(frozen=True)
class ShardingConfig:
    """SNP-axis sharding of the aggregation pipeline (``repro.core.shard``).

    With ``num_shards = 1`` (the default) every phase aggregates flat
    through the leader exactly as the paper describes.  With ``S > 1``
    the ``L`` SNP columns are split into ``S`` contiguous ranges and the
    additive statistics (Phase-1 allele counts, Phase-2 pair moments)
    are combined pairwise up a binary tree of member enclaves rooted at
    the leader, one shard range at a time — bounding every aggregation
    frame and every transient enclave buffer to O(L/S) instead of O(L)
    and the leader's per-round fan-in to the tree arity instead of G.

    Sharding is part of the study's identity: the deterministic
    range→enclave assignment derives from this config, so ``sharding``
    is deliberately *included* in the run's config fingerprint (unlike
    ``execution``/``faults``/…), making the aggregation topology
    auditable from the RunReport.  Outcomes remain bit-identical across
    shard counts — integer addition is associative — and tests enforce
    it the same way parallel-vs-sequential equivalence is enforced.

    Attributes:
        num_shards: number of contiguous SNP ranges (``S``); 1 disables
            sharding.
    """

    num_shards: int = 1

    def __post_init__(self) -> None:
        _require(self.num_shards >= 1, "num_shards must be at least 1")

    @classmethod
    def off(cls) -> "ShardingConfig":
        """The default: flat leader aggregation."""
        return cls()

    @classmethod
    def over(cls, num_shards: int) -> "ShardingConfig":
        """Split the SNP axis into ``num_shards`` contiguous ranges."""
        return cls(num_shards=num_shards)

    @property
    def enabled(self) -> bool:
        return self.num_shards > 1


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing/metrics switches of one run (see ``docs/OBSERVABILITY.md``).

    Disabled by default.  While disabled, every instrumentation point in
    the stack degrades to a single attribute lookup against the shared
    null sink — no spans, no metrics, no allocations — so observability
    can stay compiled-in everywhere.

    Attributes:
        enabled: record spans/metrics (one point event per network
            envelope included) and attach a
            :class:`~repro.obs.report.RunReport` to the study result.
    """

    enabled: bool = False

    @classmethod
    def off(cls) -> "ObservabilityConfig":
        """The default: everything disabled."""
        return cls()

    @classmethod
    def tracing(cls) -> "ObservabilityConfig":
        """Full tracing, as used by ``repro run --trace``."""
        return cls(enabled=True)


@dataclass(frozen=True)
class StudyConfig:
    """Full configuration of one GenDPR study.

    Attributes:
        snp_count: size of the desired SNP set ``L_des``.
        thresholds: privacy cut-offs for the three phases.
        collusion: collusion-tolerance policy.
        seed: seed for the protocol's randomness (leader election).  The
            genomic data carries its own seed; this one only drives
            protocol-level choices so runs are reproducible.
        study_id: free-form identifier included in protocol messages.
        observability: tracing/metrics switches; excluded from the
            run's config fingerprint because it cannot affect outcomes.
        execution: sequential vs parallel round execution; also excluded
            from the fingerprint — both modes yield bit-identical
            outcomes (enforced by tests).
        faults: deterministic fault injection (off by default); excluded
            from the fingerprint — a faulted run either completes
            bit-identically or aborts with a classified error, it never
            changes an outcome (enforced by the chaos suite).
        resilience: retry/backoff/failover runtime knobs; excluded from
            the fingerprint for the same reason.
        integrity: Byzantine verification rounds (echo + transcript
            cross-checks); excluded from the fingerprint — verification
            either confirms the fault-free outcome or aborts, it never
            changes one.
        sharding: SNP-axis sharding and tree aggregation; *included* in
            the fingerprint so the deterministic range→enclave
            assignment is recorded with the run (outcomes stay
            bit-identical across shard counts regardless).
    """

    snp_count: int
    thresholds: PrivacyThresholds = field(default_factory=PrivacyThresholds)
    collusion: CollusionPolicy = field(default_factory=CollusionPolicy.none)
    seed: int = 0
    study_id: str = "study-0"
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)

    def __post_init__(self) -> None:
        _require(self.snp_count > 0, "snp_count must be positive")
        _require(bool(self.study_id), "study_id must be non-empty")
        _require(
            self.sharding.num_shards <= self.snp_count,
            "num_shards cannot exceed snp_count",
        )
        if self.sharding.enabled and self.resilience.enabled:
            # Sharded tree rounds run through the round engine's retries
            # and the tree-repair controller; the composition only makes
            # sense with at least one retry before a member is declared
            # unresponsive (a single attempt would turn every transient
            # drop on a combine edge into a repair).
            _require(
                self.resilience.max_attempts >= 2,
                "sharding with resilience needs max_attempts >= 2 so "
                "combine edges can retry before declaring a member "
                "unresponsive",
            )


@dataclass(frozen=True)
class NetworkProfile:
    """Latency/bandwidth model of the simulated inter-site network.

    The defaults model a wide-area research network; the zero profile is
    used when the benchmarks measure pure computation.
    """

    latency_s: float = 0.0
    bandwidth_bytes_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.latency_s >= 0.0, "latency must be non-negative")
        if self.bandwidth_bytes_per_s is not None:
            _require(self.bandwidth_bytes_per_s > 0, "bandwidth must be positive")

    def transfer_time(self, num_bytes: int) -> float:
        """Simulated seconds to move ``num_bytes`` across one link."""
        time = self.latency_s
        if self.bandwidth_bytes_per_s is not None:
            time += num_bytes / self.bandwidth_bytes_per_s
        return time
