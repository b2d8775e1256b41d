"""Centralized baseline: SecureGenome inside a single TEE.

The paper compares GenDPR against "a centralized approach that runs
SecureGenome inside a centralized TEE enclave".  In that deployment the
federation members outsource their *entire encrypted genome datasets*
to one central enclave, which pools them and runs the three-phase
verification locally — the architecture GenDPR exists to avoid, both
for GDPR reasons and because it ships gigabytes of genomes instead of
kilobyte vectors.

The implementation reuses the same enclave/channel machinery: every
member runs a :class:`CentralizedEnclave` in "uploader" role, the
central site runs the same class in "verifier" role (one trusted
codebase, so mutual attestation works), and the verifier executes
:func:`repro.core.pipeline.run_local_pipeline` over the pooled matrix —
byte-for-byte the same decision logic GenDPR distributes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..config import StudyConfig
from ..crypto.rng import DeterministicRng
from ..crypto.signing import MacSigner
from ..errors import PhaseOrderError, ProtocolError, TEEError
from ..genomics.partition import LocalDataset
from ..genomics.population import Cohort
from ..genomics.vcf import SignedMatrix
from ..net import serialization
from ..net.message import Envelope
from ..net.network import SimulatedNetwork
from ..tee.attestation import AttestationService
from ..tee.channel import ChannelEndpoint, establish_channel
from ..tee.enclave import Enclave, ecall
from ..tee.storage import ColumnReader, SealedColumnStore, seal_matrix
from . import pipeline
from .phases import StudyResult
from .timing import (
    DATA_AGGREGATION,
    INDEXING,
    LD_ANALYSIS,
    LR_ANALYSIS,
    PhaseClock,
    PhaseTimings,
)

_CENTER_ID = "center"


class CentralizedEnclave(Enclave):
    """Uploader/verifier trusted module of the centralized deployment."""

    CODE_VERSION = "1"

    def __init__(
        self, platform_key: bytes, enclave_id: str, data_auth_key: bytes, rng=None
    ):
        super().__init__(platform_key, enclave_id, rng=rng)
        self._data_signer = MacSigner(data_auth_key, purpose="vcf-dataset")
        self._channels: Dict[str, ChannelEndpoint] = {}
        self._params: Optional[Dict[str, Any]] = None
        self._pooled: Dict[str, np.ndarray] = {}
        self._reference: Optional[np.ndarray] = None
        self._outcome: Optional[pipeline.PipelineOutcome] = None
        self._audit_log: List[Dict[str, Any]] = []

    def install_channel(self, endpoint: ChannelEndpoint) -> None:
        if endpoint.local_id != self.enclave_id:
            raise TEEError("endpoint does not belong to this enclave")
        self._channels[endpoint.peer_id] = endpoint

    def _config(self) -> Dict[str, Any]:
        if self._params is None:
            raise PhaseOrderError("enclave is not configured")
        return self._params

    @ecall
    def configure(self, params: Dict[str, Any]) -> None:
        for key in ("snp_count", "maf_cutoff", "ld_cutoff", "alpha", "beta"):
            if key not in params:
                raise ProtocolError(f"missing configuration key {key!r}")
        self._params = dict(params)

    # -- Member (uploader) side --------------------------------------------------

    @ecall
    def load_local_dataset(self, signed_dataset) -> SealedColumnStore:
        config = self._config()
        if not isinstance(signed_dataset, SignedMatrix):
            raise ProtocolError(
                f"unsupported dataset container {type(signed_dataset).__name__}"
            )
        matrix = signed_dataset.open_verified(self._data_signer)
        if matrix.num_snps != config["snp_count"]:
            raise ProtocolError("dataset does not match the study panel")
        return seal_matrix(self, matrix.array(), label="case")

    @ecall
    def export_genomes(self, store: SealedColumnStore) -> bytes:
        """Encrypt the member's full genome matrix for the central enclave.

        This is the outsourcing step GenDPR eliminates; the audit entry
        records that genome rows leave the premises (encrypted).
        """
        rows = []
        with ColumnReader(self, store) as reader:
            matrix = reader.columns(list(range(store.num_cols)))
        payload = {"gdo": self.enclave_id, "genomes": matrix}
        raw = serialization.encode(payload)
        self._audit_log.append(
            {
                "peer": _CENTER_ID,
                "kind": "genomes",
                "plaintext_bytes": len(raw),
                "genotype_rows": store.num_rows,
            }
        )
        return self._channels[_CENTER_ID].protect(raw, kind=b"genomes")

    # -- Center (verifier) side ----------------------------------------------------

    @ecall
    def ingest_genomes(self, member_id: str, frame: bytes) -> None:
        raw = self._channels[member_id].open(frame, kind=b"genomes")
        payload = serialization.decode(raw)
        matrix = np.asarray(payload["genomes"], dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[1] != self._config()["snp_count"]:
            raise ProtocolError(f"bad genome matrix from {member_id}")
        self._pooled[member_id] = matrix
        self.meter.register_buffer(f"pooled/{member_id}", matrix.nbytes)

    @ecall
    def load_reference_matrix(self, raw: bytes, num_rows: int) -> None:
        num_snps = self._config()["snp_count"]
        if num_rows <= 0 or len(raw) != num_rows * num_snps:
            raise ProtocolError("reference matrix has inconsistent size")
        self._reference = (
            np.frombuffer(raw, dtype=np.uint8).reshape(num_rows, num_snps).copy()
        )
        self.meter.register_buffer("reference", self._reference.nbytes)

    @ecall
    def pool(self) -> int:
        """Stack member matrices (sorted member order); returns row count."""
        if not self._pooled:
            raise PhaseOrderError("no genomes ingested")
        self._case = np.vstack(
            [self._pooled[m] for m in sorted(self._pooled)]
        )
        self.meter.register_buffer("pooled/all", self._case.nbytes)
        return int(self._case.shape[0])

    @ecall
    def run_phase(self, phase: str) -> List[int]:
        """Run one verification phase over the pooled data.

        Phases must run in order ("maf", "ld", "lr"); each returns its
        retained SNP list.  Splitting per-phase lets the harness time
        them separately, as the paper's figures do.
        """
        if self._reference is None:
            raise PhaseOrderError("reference population not loaded")
        if not hasattr(self, "_case"):
            raise PhaseOrderError("genomes not pooled")
        config = self._config()
        if phase == "maf":
            from ..stats import maf as maf_stats

            case_counts = self._case.sum(axis=0, dtype=np.int64)
            ref_counts = self._reference.sum(axis=0, dtype=np.int64)
            frequencies = maf_stats.allele_frequencies(
                maf_stats.aggregate_counts([case_counts, ref_counts]),
                self._case.shape[0] + self._reference.shape[0],
            )
            self._case_counts = case_counts
            self._ref_counts = ref_counts
            self._l_prime = maf_stats.maf_filter(
                frequencies, config["maf_cutoff"]
            )
            return list(self._l_prime)
        if phase == "ld":
            if not hasattr(self, "_l_prime"):
                raise PhaseOrderError("MAF phase has not run")
            from ..stats import chisq

            self._ranking = chisq.rank_pvalues(
                self._case_counts,
                self._ref_counts,
                self._case.shape[0],
                self._reference.shape[0],
            )
            self._l_double_prime = pipeline.ld_prune(
                self._l_prime,
                self._ranking,
                pipeline.matrix_moment_source(self._case, self._reference),
                config["ld_cutoff"],
            )
            return list(self._l_double_prime)
        if phase == "lr":
            if not hasattr(self, "_l_double_prime"):
                raise PhaseOrderError("LD phase has not run")
            from ..stats import lr_test

            columns = self._l_double_prime
            if not columns:
                self._l_safe: List[int] = []
                self._release_power = 0.0
                return []
            n_case = self._case.shape[0]
            n_ref = self._reference.shape[0]
            case_freqs = self._case_counts[columns].astype(np.float64) / n_case
            ref_freqs = self._ref_counts[columns].astype(np.float64) / n_ref
            case_lr = lr_test.lr_matrix(
                self._case[:, columns], case_freqs, ref_freqs
            )
            ref_lr = lr_test.lr_matrix(
                self._reference[:, columns], case_freqs, ref_freqs
            )
            order = pipeline.lr_ranking_order(columns, self._ranking)
            selection = lr_test.select_safe_subset(
                case_lr, ref_lr, order, alpha=config["alpha"], beta=config["beta"]
            )
            self._l_safe = sorted(
                columns[c] for c in selection.selected_columns
            )
            self._release_power = selection.power
            return list(self._l_safe)
        raise ProtocolError(f"unknown phase {phase!r}")

    @ecall
    def release_power(self) -> float:
        if not hasattr(self, "_release_power"):
            raise PhaseOrderError("LR phase has not run")
        return float(self._release_power)

    @ecall
    def export_audit_log(self) -> List[Dict[str, Any]]:
        return [dict(entry) for entry in self._audit_log]


class CentralizedVerifier:
    """Orchestrates the centralized baseline end-to-end."""

    def __init__(
        self,
        config: StudyConfig,
        datasets: List[LocalDataset],
        cohort: Cohort,
        *,
        network: Optional[SimulatedNetwork] = None,
    ):
        if not datasets:
            raise ProtocolError("need at least one data owner")
        self._config = config
        self._datasets = sorted(datasets, key=lambda d: d.gdo_id)
        self._cohort = cohort
        self._network = network or SimulatedNetwork()
        self._build()

    def _build(self) -> None:
        rng = DeterministicRng(
            f"centralized/{self._config.study_id}/{self._config.seed}"
        )
        attestation = AttestationService(master_secret=rng.bytes(32))
        data_auth_key = rng.bytes(32)
        signer = MacSigner(data_auth_key, purpose="vcf-dataset")
        params = {
            "snp_count": self._config.snp_count,
            "maf_cutoff": self._config.thresholds.maf_cutoff,
            "ld_cutoff": self._config.thresholds.ld_cutoff,
            "alpha": self._config.thresholds.false_positive_rate,
            "beta": self._config.thresholds.power_threshold,
        }

        center_platform = attestation.register_platform("platform/center")
        self.center = CentralizedEnclave(
            center_platform.root_key,
            _CENTER_ID,
            data_auth_key,
            rng=rng.fork("enclave/center"),
        )
        self.center.ecall("configure", params, label="setup")
        self._network.register(_CENTER_ID)

        self.members: Dict[str, CentralizedEnclave] = {}
        self.stores: Dict[str, SealedColumnStore] = {}
        verifier = attestation.verifier()
        for dataset in self._datasets:
            platform = attestation.register_platform(
                f"platform/{dataset.gdo_id}"
            )
            member = CentralizedEnclave(
                platform.root_key,
                dataset.gdo_id,
                data_auth_key,
                rng=rng.fork(f"enclave/{dataset.gdo_id}"),
            )
            member.ecall("configure", params, label="setup")
            self._network.register(dataset.gdo_id)
            center_end, member_end, _ = establish_channel(
                self.center,
                center_platform,
                member,
                platform,
                verifier,
                rng=rng.fork(f"channel/{dataset.gdo_id}"),
            )
            self.center.install_channel(center_end)
            member.install_channel(member_end)
            signed = SignedMatrix.create(dataset.case, signer)
            self.stores[dataset.gdo_id] = member.ecall(
                "load_local_dataset", signed, label="setup"
            )
            self.members[dataset.gdo_id] = member

    def run(self) -> StudyResult:
        """Ship genomes to the center, pool, verify; return the result."""
        timings = PhaseTimings()
        clock = PhaseClock(timings)

        with clock.task(DATA_AGGREGATION):
            for gdo_id, member in self.members.items():
                frame = member.ecall(
                    "export_genomes", self.stores[gdo_id], label="export"
                )
                self._network.send(
                    Envelope(
                        sender=gdo_id,
                        receiver=_CENTER_ID,
                        tag="genomes",
                        body=frame,
                    )
                )
                inbound = self._network.receive(_CENTER_ID, "genomes")
                self.center.ecall(
                    "ingest_genomes", gdo_id, inbound.body, label="ingest"
                )
            self.center.ecall(
                "load_reference_matrix",
                self._cohort.reference.to_bytes(),
                self._cohort.reference.num_individuals,
                label="ingest",
            )
            self.center.ecall("pool", label="ingest")

        with clock.task(INDEXING):
            l_prime = self.center.ecall("run_phase", "maf", label="maf")
        with clock.task(LD_ANALYSIS):
            l_double_prime = self.center.ecall("run_phase", "ld", label="ld")
        with clock.task(LR_ANALYSIS):
            l_safe = self.center.ecall("run_phase", "lr", label="lr")

        totals = self._network.total_stats()
        return StudyResult(
            study_id=self._config.study_id,
            leader_id=_CENTER_ID,
            num_members=len(self.members),
            l_des=self._config.snp_count,
            l_prime=list(l_prime),
            l_double_prime=list(l_double_prime),
            l_safe=list(l_safe),
            timings=timings,
            network_bytes=totals.wire_bytes,
            network_messages=totals.messages,
            enclave_peak_memory={
                _CENTER_ID: self.center.meter.report().peak_memory_bytes
            },
            enclave_cpu_utilization={
                _CENTER_ID: self.center.meter.report().cpu_utilization
            },
            release_power=float(self.center.ecall("release_power", label="report")),
        )


def run_centralized_study(
    cohort: Cohort,
    config: StudyConfig,
    num_members: int,
    *,
    network: Optional[SimulatedNetwork] = None,
) -> StudyResult:
    """Partition + provision + run the centralized baseline in one call."""
    from ..genomics.partition import partition_cohort

    datasets = partition_cohort(cohort, num_members)
    return CentralizedVerifier(config, datasets, cohort, network=network).run()
