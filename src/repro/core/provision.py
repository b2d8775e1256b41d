"""One code path for provisioning a study's federation.

:class:`ProvisionedFederation` is the context manager behind every way
a study gets run — the one-shot :func:`~repro.core.protocol.run_study`
API, the CLI's ``run`` command, and the long-lived service
(:mod:`repro.serve`), which binds studies to warm substrates instead of
provisioning from scratch.  Centralizing the block here means the
validation, partitioning, tracer activation and teardown semantics can
never drift apart between entry points.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..config import StudyConfig
from ..errors import ProtocolError
from ..genomics.partition import partition_cohort
from ..genomics.population import Cohort
from ..net.network import SimulatedNetwork
from ..obs.tracer import TRACER
from .federation import (
    Federation,
    FederationSubstrate,
    bind_study,
    build_federation,
)
from .phases import StudyResult
from .protocol import GenDPRProtocol


class ProvisionedFederation:
    """Owns one study's federation and protocol for the span of a run.

    ``__enter__`` validates the config against the cohort, partitions
    the case population, provisions a fresh federation (or binds the
    study to a warm ``substrate``), and exposes ``.federation`` and
    ``.protocol``.  ``__exit__`` releases the protocol's thread pool
    and deactivates the tracer scope it opened.

    When observability is enabled and no collector is active yet, a
    collector is activated *around provisioning too*, so leader
    election and attestation land in the same trace as the phases
    (:meth:`GenDPRProtocol.run` joins the active collector).

    Args:
        cohort: full study cohort (cases + reference panel).
        config: study parameters.
        num_members: federation size to partition the cases across.
        network: optional pre-configured router (fresh provisioning
            only).
        shuffle_seed: optional cohort shuffle before partitioning.
        substrate: optional warm
            :class:`~repro.core.federation.FederationSubstrate` to bind
            instead of provisioning; mutually exclusive with
            ``network``.
    """

    def __init__(
        self,
        cohort: Cohort,
        config: StudyConfig,
        num_members: int,
        *,
        network: Optional[SimulatedNetwork] = None,
        shuffle_seed: Optional[int] = None,
        substrate: Optional[FederationSubstrate] = None,
    ):
        if config.snp_count != cohort.num_snps:
            raise ProtocolError(
                f"config covers {config.snp_count} SNPs, cohort has "
                f"{cohort.num_snps}"
            )
        if substrate is not None and network is not None:
            raise ProtocolError(
                "a warm substrate already carries its network"
            )
        if substrate is not None and num_members != len(substrate.member_ids):
            raise ProtocolError(
                f"study wants {num_members} members, substrate has "
                f"{len(substrate.member_ids)}"
            )
        self._cohort = cohort
        self._config = config
        self._num_members = num_members
        self._network = network
        self._shuffle_seed = shuffle_seed
        self._substrate = substrate
        self._tracer_scope = None
        self.federation: Optional[Federation] = None
        self.protocol: Optional[GenDPRProtocol] = None

    def __enter__(self) -> "ProvisionedFederation":
        datasets = partition_cohort(
            self._cohort, self._num_members, shuffle_seed=self._shuffle_seed
        )
        if self._config.observability.enabled and not TRACER.enabled:
            self._tracer_scope = TRACER.activated()
            self._tracer_scope.__enter__()
        try:
            if self._substrate is not None:
                self.federation = bind_study(
                    self._substrate, self._config, datasets, self._cohort
                )
            else:
                self.federation = build_federation(
                    self._config, datasets, self._cohort, network=self._network
                )
            self.protocol = GenDPRProtocol(self.federation)
        except BaseException:
            self._close_tracer(*sys.exc_info())
            raise
        return self

    def run(self) -> StudyResult:
        """Execute the study on the provisioned federation."""
        if self.protocol is None:
            raise ProtocolError(
                "ProvisionedFederation must be entered before running"
            )
        return self.protocol.run()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.protocol is not None:
            self.protocol.close()
        self._close_tracer(exc_type, exc, tb)
        return False

    def _close_tracer(self, exc_type, exc, tb) -> None:
        if self._tracer_scope is not None:
            self._tracer_scope.__exit__(exc_type, exc, tb)
            self._tracer_scope = None
