"""Warm enclave-pool management.

Each pool slot is a fully provisioned
:class:`~repro.core.federation.FederationSubstrate` — platforms,
attested enclaves and a pairwise channel mesh — living in its own
namespace (:meth:`~repro.net.network.SimulatedNetwork.scope`) of the service's
shared router.  Provisioning (attestation + DH key agreement + channel
establishment) is paid once per slot; every study bound to the slot
afterwards reuses the substrate and pays only ``configure`` + dataset
sealing, which is the warm-vs-cold amortization the serve benchmark
measures.

Slots are meshes, not stars: different studies elect different leaders
(the election is a pure function of ``study_id``/``seed``), so every
pair of enclaves needs a channel up front.  A slot whose federation
failed over, crashed an enclave, quarantined a member or had its study
cancelled mid-run is retired — its scope is torn off the router and a
fresh generation is provisioned in its place — because a replacement
leader enclave only re-attests the star its own study needed, and a
cancelled study may strand asymmetric channel sequence state.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.federation import FederationSubstrate, provision_substrate
from ..crypto.rng import DeterministicRng
from ..errors import ServiceError
from ..net.network import ScopedNetwork, SimulatedNetwork
from .config import ServiceConfig


class PoolSlot:
    """One warm substrate plus its router scope and usage accounting."""

    def __init__(
        self,
        index: int,
        generation: int,
        namespace: str,
        scope: ScopedNetwork,
        substrate: FederationSubstrate,
    ):
        self.index = index
        self.generation = generation
        self.namespace = namespace
        self.scope = scope
        self.substrate = substrate
        self.studies_served = 0

    def current_memory_bytes(self) -> int:
        """Trusted memory currently registered across the slot's enclaves."""
        return sum(
            enclave.meter.current_memory_bytes
            for enclave in self.substrate.enclaves.values()
        )


class EnclavePool:
    """A fixed-size pool of warm substrates over one shared router."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        router: Optional[SimulatedNetwork] = None,
    ):
        self._config = config
        self.router = router if router is not None else SimulatedNetwork()
        self.member_ids: List[str] = [
            f"gdo-{index}" for index in range(config.num_members)
        ]
        self._slots_lock = threading.Condition()
        self._free: Deque[PoolSlot] = deque()
        self._all: List[PoolSlot] = []
        self._generations = 0
        self._closed = False
        self._warm_hits = 0
        self._cold_provisions = 0
        self._retired = 0
        for index in range(config.pool_size):
            slot = self._provision_slot(index)
            self._all.append(slot)
            self._free.append(slot)

    def _provision_slot(self, index: int) -> PoolSlot:
        self._generations += 1
        generation = self._generations
        namespace = (
            f"{self._config.service_id}/slot-{index}-gen{generation}"
        )
        scope = self.router.scope(namespace)
        substrate = provision_substrate(
            self.member_ids,
            rng=DeterministicRng(
                f"service/{self._config.service_id}/{self._config.seed}"
                f"/{namespace}"
            ),
            network=scope,
            topology="mesh",
        )
        self._cold_provisions += 1
        return PoolSlot(index, generation, namespace, scope, substrate)

    # -- slot lifecycle --------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> PoolSlot:
        """Take a warm slot, blocking until one frees up."""
        with self._slots_lock:
            while not self._free:
                if self._closed:
                    raise ServiceError("the enclave pool is closed")
                if not self._slots_lock.wait(timeout=timeout):
                    raise ServiceError(
                        "timed out waiting for a warm enclave slot"
                    )
            if self._closed:
                raise ServiceError("the enclave pool is closed")
            slot = self._free.popleft()
            if slot.studies_served > 0:
                self._warm_hits += 1
            return slot

    def release(self, slot: PoolSlot, *, healthy: bool = True) -> None:
        """Return a slot; an unhealthy one is retired and replaced.

        Unhealthy means the session's federation mutated the substrate
        beyond what ``configure`` can reset — a crashed enclave, a
        leader failover (star re-attestation over a mesh slot), or a
        Byzantine quarantine.  The scope is torn off the router and a
        fresh generation provisioned so queued studies never inherit
        poisoned state.
        """
        with self._slots_lock:
            if self._closed:
                self._retire(slot)
            elif healthy:
                slot.studies_served += 1
                self._free.append(slot)
            else:
                self._retire(slot)
                replacement = self._provision_slot(slot.index)
                self._all.append(replacement)
                self._free.append(replacement)
            self._slots_lock.notify_all()

    def _retire(self, slot: PoolSlot) -> None:
        self.router.release_scope(slot.scope)
        self._all.remove(slot)
        self._retired += 1

    def close(self) -> None:
        """Tear every idle slot down and refuse further acquisition."""
        with self._slots_lock:
            self._closed = True
            while self._free:
                self._retire(self._free.popleft())
            self._slots_lock.notify_all()

    # -- accounting ------------------------------------------------------------

    def current_memory_bytes(self) -> int:
        """Trusted memory registered across every slot (in use or idle)."""
        with self._slots_lock:
            slots = list(self._all)
        return sum(slot.current_memory_bytes() for slot in slots)

    def stats(self) -> Dict[str, float]:
        with self._slots_lock:
            return {
                "pool_slots": len(self._all),
                "warm_hits": self._warm_hits,
                "cold_provisions": self._cold_provisions,
                "retired_slots": self._retired,
                "pool_memory_bytes": sum(
                    slot.current_memory_bytes() for slot in self._all
                ),
            }
