"""repro.serve — the long-lived federation service.

Instead of provisioning a federation per study (:func:`~repro.core.protocol.run_study`),
the service provisions warm substrates once — attested enclaves, DH key
agreement, channel meshes — and binds each submitted study to a warm
slot, amortizing attestation across the service's lifetime:

* :class:`~repro.serve.service.FederationService` — submit / status /
  result / cancel over a bounded admission queue; classified
  backpressure (:class:`~repro.errors.ServiceOverloadedError`),
  failure isolation per session.
* :class:`~repro.serve.pool.EnclavePool` — warm substrates in per-slot
  network namespaces; unhealthy slots (crash / failover / quarantine)
  are retired and re-provisioned.
* :class:`~repro.serve.scheduler.FairRoundGate` — FIFO-fair, bounded
  interleaving of protocol rounds across concurrent sessions; round
  boundaries double as cancellation points.
* :class:`~repro.serve.session.StudySession` — one study's isolated
  lifecycle and accounting.

Architecture and semantics are documented in ``docs/SERVICE.md``.
"""

# perfbench/ imports these by package path.
from .config import ServiceConfig
from .service import FederationService

__all__ = ["FederationService", "ServiceConfig"]
