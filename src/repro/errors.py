"""Exception hierarchy for the GenDPR reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subsystem-specific
errors add context (which enclave, which phase, which message) without
leaking sensitive payloads into exception text.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class AuthenticationError(CryptoError):
    """Ciphertext or signature failed integrity verification.

    Raised when an AEAD tag or an HMAC signature does not verify.  The
    payload is never included in the message.
    """


class DecryptionError(CryptoError):
    """Ciphertext is structurally invalid (too short, bad framing)."""


# ---------------------------------------------------------------------------
# TEE
# ---------------------------------------------------------------------------


class TEEError(ReproError):
    """Base class for trusted-execution-environment failures."""


class AttestationError(TEEError):
    """A quote failed verification (wrong measurement, signer or nonce)."""


class SealingError(TEEError):
    """Sealed data could not be unsealed by this enclave identity."""


class EnclaveCrashedError(TEEError):
    """An operation was attempted on an enclave that has been torn down."""


class EnclaveViolationError(TEEError):
    """Untrusted code attempted a forbidden access into enclave memory."""


class MeasurementError(TEEError):
    """An enclave identity hash is malformed (wrong size or encoding)."""


class ResourceError(TEEError):
    """The enclave resource meter was misused (e.g. negative buffer)."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class UnknownPeerError(NetworkError):
    """A message was addressed to a node that is not registered."""


class SerializationError(NetworkError):
    """A payload could not be canonically encoded or decoded."""


class ChannelError(NetworkError):
    """A secure channel was used before establishment or after teardown."""


# ---------------------------------------------------------------------------
# Genomics / data
# ---------------------------------------------------------------------------


class GenomicsError(ReproError):
    """Base class for genomic-data errors."""


class DataIntegrityError(GenomicsError):
    """A signed dataset (e.g. VCF) failed its authenticity check.

    GenDPR's threat model assumes the trusted module detects tampered
    genome data; this is the error surfaced on detection.
    """


class PartitionError(GenomicsError):
    """A cohort could not be split as requested across federation members."""


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for GenDPR protocol failures."""


class PhaseOrderError(ProtocolError):
    """A protocol phase was invoked out of order."""


class CollusionConfigError(ProtocolError):
    """An invalid number of tolerated colluders was requested."""


class MembershipLeakError(ProtocolError):
    """A release audit found genome-level data in an outbound message.

    This corresponds to a violation of GenDPR's core guarantee that raw
    genomic information never leaves a member's premises.
    """


# ---------------------------------------------------------------------------
# Resilience / supervision
# ---------------------------------------------------------------------------


class ResilienceError(ProtocolError):
    """Base class for failures of the supervised protocol runtime.

    These are *classified aborts*: the runtime detected a fault it is
    not allowed to mask (per the paper's fault model) and terminated
    the study in a well-defined state instead of hanging or producing
    a divergent answer.
    """


class MemberUnresponsiveError(ResilienceError):
    """A member stayed unreachable past the retry budget and was evicted.

    GenDPR makes no liveness guarantee for non-responsive members
    (Section 4): the study aborts with a structured failure report
    (see the ``report`` attribute, a
    :class:`~repro.core.resilience.FailureReport`) identifying the
    member, the phase round and the attempts made.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LeaderFailoverError(ResilienceError):
    """Leader recovery was attempted but could not restore the study.

    Raised when the leader enclave keeps crashing past the configured
    failover budget, or when a replacement cannot be provisioned.
    """


# ---------------------------------------------------------------------------
# Byzantine integrity
# ---------------------------------------------------------------------------


class IntegrityError(ResilienceError):
    """Base class for detected Byzantine-host integrity violations.

    Crash faults are masked (retried, failed over); *integrity* faults —
    an untrusted host playing valid frames adversarially — are detected
    and the study aborts in a well-defined state rather than publishing
    a potentially divergent safe set.
    """


class EquivocationError(IntegrityError):
    """A leader broadcast was not byte-identical across followers.

    Detected by the broadcast-consistency echo round: followers exchange
    authenticated digests of the payload they ingested, and any adjacent
    pair disagreeing proves the broadcaster (or its host) equivocated.
    """

    def __init__(self, message: str, *, stage: str = "", reporter: str = "",
                 peer: str = ""):
        super().__init__(message)
        self.stage = stage
        self.reporter = reporter
        self.peer = peer


class TranscriptDivergenceError(IntegrityError):
    """Two channel endpoints disagree on their bidirectional frame history.

    Each attested channel folds every protected/opened frame into a
    running SHA-256 transcript; enclaves cross-check the digests at
    phase boundaries.  A mismatch means the untrusted transport withheld,
    reordered or spliced traffic in a way per-frame AEAD cannot see.
    """


class StaleCheckpointError(IntegrityError):
    """A sealed checkpoint older than the platform rollback counter.

    Sealed leader checkpoints bind a monotonic epoch into their AAD;
    a restore presenting an earlier epoch than the platform's counter
    is a rollback replay and is rejected instead of silently rewinding
    the study.
    """


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class LintError(ReproError):
    """Base class for failures of the static analyser (:mod:`repro.lint`)."""


class LintConfigError(LintError):
    """lint.toml, a baseline file or the CLI arguments are invalid."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Misuse of the tracing/metrics subsystem (:mod:`repro.obs`).

    Raised for malformed trace/report documents, metric type conflicts
    and invalid histogram or quantile parameters — never on the
    disabled (null-sink) fast path, which cannot fail.
    """


# ---------------------------------------------------------------------------
# Service (repro.serve)
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for failures of the long-lived federation service."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a submission (queue at capacity).

    Backpressure is explicit: the service bounds its queue and rejects
    new studies with this classified error instead of accepting
    unbounded work and degrading every in-flight session.
    """


class StudyCancelledError(ServiceError):
    """A study session was cancelled by the client.

    Raised inside the session's protocol driver at the next round
    boundary after :meth:`~repro.serve.service.FederationService.cancel`, and
    surfaced from :meth:`~repro.serve.service.FederationService.result` for
    sessions that ended cancelled.
    """


class UnknownStudyError(ServiceError):
    """A service request referenced a study id it never accepted."""


# ---------------------------------------------------------------------------
# Fuzzing (repro.fuzz)
# ---------------------------------------------------------------------------


class FuzzError(ReproError):
    """Base class for failures of the chaos fuzzer (:mod:`repro.fuzz`)."""


class CorpusInvariantError(FuzzError):
    """The coverage-keyed corpus pool broke an internal invariant.

    Raised by the pool's hypofuzz-style ``_check_invariants`` pass
    after every mutation: a behaviour unit pointing at an evicted
    genome, a stored genome covering nothing, or a unit credited to a
    genome whose recorded behaviour never produced it.  Any of these
    means corpus deduplication can silently lose coverage, so the
    fuzzer fails closed instead.
    """
