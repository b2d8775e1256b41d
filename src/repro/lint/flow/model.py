"""The configurable taint model: sources, sinks, sanitizers.

The model is the policy half of the flow analysis — *which* calls mint
secrets, *where* they are allowed to go, and *what* counts as a leak.
The embedded defaults encode the reproduction's actual trust boundary;
``lint.toml``'s ``[lint.flow]`` tables extend or override them so a
deployment can reshape the boundary without touching code.

Pattern syntax: a pattern is a dotted name, matched against both the
import-resolved call name at the call site (``sealing.unseal`` →
``repro.tee.sealing.unseal``) and the resolved target's qualified name
from the call graph (``reader.column`` →
``repro.tee.storage.ColumnReader.column``).  A trailing ``*`` makes the
pattern a prefix match (``logging.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ...errors import LintConfigError

#: Taint labels for values whose secrecy the analysis tracks.  Concrete
#: kinds; the propagator additionally uses symbolic ``param:<i>`` labels
#: inside function summaries.
SECRET_KINDS: Tuple[str, ...] = (
    "genotype",
    "phenotype",
    "key",
    "sealed",
    "partial",
)

#: Default sources: calls whose *result* is secret.
DEFAULT_SOURCES: Dict[str, str] = {
    # Genotype column reads out of the sealed store (the enclave's
    # streaming view of the raw genome matrix).
    "repro.tee.storage.ColumnReader.column": "genotype",
    "repro.tee.storage.ColumnReader.columns": "genotype",
    "repro.tee.storage.ColumnReader.packed_columns": "genotype",
    "repro.tee.storage.ColumnReader.column_sums": "genotype",
    "repro.tee.storage.ColumnReader.iter_chunks": "genotype",
    # Phenotype-bearing genome accessors (case/control panels).
    "repro.genomics.genotype.GenotypeMatrix.array": "phenotype",
    "repro.genomics.genotype.GenotypeMatrix.row": "phenotype",
    "repro.genomics.genotype.GenotypeMatrix.allele_counts": "phenotype",
    # Sealed-store loads: plaintext of anything persisted via sealing.
    "repro.tee.sealing.unseal": "sealed",
    # Key material: DH shared secrets, KDF outputs, sealing keys and
    # the seeded DRBG's raw key stream.
    "repro.crypto.dh.shared_secret": "key",
    "repro.crypto.dh.derive_channel_key": "key",
    "repro.crypto.kdf.hkdf": "key",
    "repro.crypto.kdf.hkdf_extract": "key",
    "repro.crypto.kdf.hkdf_expand": "key",
    "repro.crypto.kdf.derive_subkey": "key",
    "repro.tee.enclave.Enclave._sealing_key": "key",
    # Decrypted protocol payloads (peer partials inside the enclave)
    # and shard leaf partials.  ``ChannelEndpoint.open`` is a source
    # rather than a summary substitution so its result carries the
    # *payload* kind, not the key material used to decrypt it.
    "repro.tee.channel.ChannelEndpoint.open": "partial",
    "repro.core.enclave_logic.GenDPREnclave._open": "partial",
    "repro.core.enclave_logic.GenDPREnclave._shard_leaf": "partial",
}

#: Default sanctioned sinks: tainted arguments may flow here, and the
#: result (ciphertext / sealed blob) is clean.
DEFAULT_SANCTIONED: Tuple[str, ...] = (
    "repro.tee.channel.ChannelEndpoint.protect",
    "repro.tee.sealing.seal",
    "repro.tee.storage.seal_matrix",
    "repro.core.enclave_logic.GenDPREnclave._protect",
    "repro.crypto.authenticated.StreamAead.encrypt",
    # An HMAC-SHA256 tag is publishable by design (that is its whole
    # job: it travels over the untrusted wire next to the message), so
    # the key taint of the signer does not survive into the tag — same
    # status as the AEAD encrypt output above, which embeds its MAC.
    "repro.crypto.signing.MacSigner.sign",
    "repro.crypto.signing.MacSigner._mac",
)

#: Default leak sinks: a tainted argument reaching one of these calls is
#: an R6 finding.  Values are the sink labels used in messages.
DEFAULT_LEAK_SINKS: Dict[str, str] = {
    "print": "stdout",
    "logging.*": "logging",
    "repro.obs.metrics.Counter.inc": "metrics",
    "repro.obs.metrics.Gauge.set": "metrics",
    "repro.obs.metrics.Histogram.observe": "metrics",
    "repro.obs.tracer.Tracer.event": "tracer",
    "repro.obs.tracer._SpanHandle.annotate": "tracer",
    "repro.obs.report.RunReport": "report",
    "repro.net.network.SimulatedNetwork.send": "wire",
    "repro.net.network.ScopedNetwork.send": "wire",
    "repro.net.message.Envelope": "wire",
    "sys.stdout.write": "stdout",
    "sys.stderr.write": "stdout",
}

#: Default declassifiers: sanctioned sanitizers whose result is clean
#: but whose every call site must carry a ``# lint: declassify(<why>)``
#: marker (audited by R8).  These are the paper's release points: the
#: retained-SNP set after each filtering phase and the leader's final
#: release statistics are *outputs* of the protocol, published by
#: design.  ``evaluate_attack`` reduces a cohort to one detector's
#: power and false-positive rate, the aggregates ``repro attack``
#: exists to report.
DEFAULT_DECLASSIFIERS: Tuple[str, ...] = (
    "repro.core.enclave_logic.GenDPREnclave.lead_run_maf",
    "repro.core.enclave_logic.GenDPREnclave.lead_run_ld",
    "repro.core.enclave_logic.GenDPREnclave.lead_run_lr",
    "repro.core.enclave_logic.GenDPREnclave.received_retained",
    "repro.core.enclave_logic.GenDPREnclave.lead_combo_outcomes",
    "repro.core.enclave_logic.GenDPREnclave.lead_plain_safe",
    "repro.core.enclave_logic.GenDPREnclave.lead_release_power",
    "repro.core.enclave_logic.GenDPREnclave.lead_release_statistics",
    "repro.attacks.evaluation.evaluate_attack",
)

#: Calls that never propagate taint and are never sinks: size/shape
#: probes and type checks.
DEFAULT_CLEAN_CALLS: Tuple[str, ...] = (
    "len",
    "range",
    "isinstance",
    "issubclass",
    "type",
    "bool",
    "hash",
)

#: Attribute reads that yield size/shape *metadata*, not content; they
#: do not propagate the base object's taint (chunk.nbytes feeding the
#: resource meter is the canonical example — Table 3's footprints).
DEFAULT_METADATA_ATTRS: Tuple[str, ...] = (
    "shape",
    "ndim",
    "size",
    "nbytes",
    "dtype",
    "itemsize",
    "num_rows",
    "num_cols",
    "wire_size",
    "sealed_bytes",
    "chunk_width",
)

#: String-dispatch boundary calls: ``enclave.ecall("name", args...)``.
#: A literal first argument resolves the call to the so-named method.
DEFAULT_DISPATCHERS: Tuple[str, ...] = (
    "repro.tee.enclave.Enclave.ecall",
    "ecall",
)

#: Enclave-scope functions allowed to return tainted data to callers
#: outside the boundary (the declared ECALL result paths); everything
#: else is an R7 finding.  Declassifier calls are implicitly allowed.
#: ``ingest_retained`` echoes back the leader's broadcast retained-SNP
#: set, which is a published protocol output by design.
DEFAULT_ECALL_RESULTS: Tuple[str, ...] = (
    "repro.core.enclave_logic.GenDPREnclave.ingest_retained",
)


def _match_one(name: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


@dataclass(frozen=True)
class TaintModel:
    """Fully-resolved source/sink/sanitizer policy for one flow run."""

    sources: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_SOURCES)
    )
    sanctioned: Tuple[str, ...] = DEFAULT_SANCTIONED
    leak_sinks: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_LEAK_SINKS)
    )
    declassifiers: Tuple[str, ...] = DEFAULT_DECLASSIFIERS
    clean_calls: Tuple[str, ...] = DEFAULT_CLEAN_CALLS
    metadata_attrs: Tuple[str, ...] = DEFAULT_METADATA_ATTRS
    dispatchers: Tuple[str, ...] = DEFAULT_DISPATCHERS
    ecall_results: Tuple[str, ...] = DEFAULT_ECALL_RESULTS
    #: Scope name that marks the trust boundary for R7.
    boundary_scope: str = "enclave"
    #: Treat tainted exception-constructor arguments as a leak sink.
    exception_sink: bool = True

    # -- pattern matching ----------------------------------------------------

    def source_kind(self, names: Iterable[str]) -> Optional[str]:
        for name in names:
            for pattern, kind in self.sources.items():
                if _match_one(name, pattern):
                    return kind
        return None

    def is_sanctioned(self, names: Iterable[str]) -> bool:
        return self._any(names, self.sanctioned)

    def leak_label(self, names: Iterable[str]) -> Optional[str]:
        for name in names:
            for pattern, label in self.leak_sinks.items():
                if _match_one(name, pattern):
                    return label
        return None

    def is_declassifier(self, names: Iterable[str]) -> bool:
        return self._any(names, self.declassifiers)

    def is_clean_call(self, names: Iterable[str]) -> bool:
        return self._any(names, self.clean_calls)

    def is_declared_ecall_result(self, qualname: str) -> bool:
        return self._any((qualname,), self.ecall_results)

    def is_metadata_attr(self, attr: str) -> bool:
        return attr in self.metadata_attrs

    @staticmethod
    def _any(names: Iterable[str], patterns: Tuple[str, ...]) -> bool:
        for name in names:
            for pattern in patterns:
                if _match_one(name, pattern):
                    return True
        return False

    def cache_key(self) -> Tuple[Any, ...]:
        """Hashable identity, so analyses memoize per model."""
        return (
            tuple(sorted(self.sources.items())),
            self.sanctioned,
            tuple(sorted(self.leak_sinks.items())),
            self.declassifiers,
            self.clean_calls,
            self.metadata_attrs,
            self.dispatchers,
            self.ecall_results,
            self.boundary_scope,
            self.exception_sink,
        )

    # -- configuration -------------------------------------------------------

    @classmethod
    def from_config(cls, raw: Mapping[str, Any]) -> "TaintModel":
        """Build a model from a ``[lint.flow]`` table.

        Mapping-valued tables (``sources``, ``leak_sinks``) and list
        options *extend* the embedded defaults; ``replace = true``
        inside the section drops the defaults first.
        """
        replace = bool(raw.get("replace", False))

        def table(key: str, defaults: Mapping[str, str]) -> Dict[str, str]:
            merged = {} if replace else dict(defaults)
            extra = raw.get(key, {})
            if not isinstance(extra, dict):
                raise LintConfigError(f"[lint.flow].{key} must be a table")
            for pattern, value in extra.items():
                if not isinstance(value, str):
                    raise LintConfigError(
                        f"[lint.flow].{key}.{pattern} must be a string"
                    )
                merged[str(pattern)] = value
            return merged

        def strings(key: str, defaults: Tuple[str, ...]) -> Tuple[str, ...]:
            extra = raw.get(key, [])
            if not isinstance(extra, list) or not all(
                isinstance(item, str) for item in extra
            ):
                raise LintConfigError(
                    f"[lint.flow].{key} must be a list of strings"
                )
            base = () if replace else defaults
            return tuple(dict.fromkeys((*base, *extra)))

        return cls(
            sources=table("sources", DEFAULT_SOURCES),
            sanctioned=strings("sanctioned", DEFAULT_SANCTIONED),
            leak_sinks=table("leak_sinks", DEFAULT_LEAK_SINKS),
            declassifiers=strings("declassifiers", DEFAULT_DECLASSIFIERS),
            clean_calls=strings("clean_calls", DEFAULT_CLEAN_CALLS),
            metadata_attrs=strings("metadata_attrs", DEFAULT_METADATA_ATTRS),
            dispatchers=strings("dispatchers", DEFAULT_DISPATCHERS),
            ecall_results=strings("ecall_results", DEFAULT_ECALL_RESULTS),
            boundary_scope=str(raw.get("boundary_scope", "enclave")),
            exception_sink=bool(raw.get("exception_sink", True)),
        )
