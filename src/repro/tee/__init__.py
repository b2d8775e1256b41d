"""Trusted Execution Environment simulation.

A faithful software model of the SGX facilities GenDPR builds on:

* :mod:`~repro.tee.measurement` — enclave code identity (MRENCLAVE).
* :mod:`~repro.tee.enclave` — the ECALL trust boundary and resource
  metering.
* :mod:`~repro.tee.sealing` — MRENCLAVE-policy sealed storage.
* :mod:`~repro.tee.attestation` — platforms, quotes and the attestation
  service.
* :mod:`~repro.tee.channel` — mutually attested encrypted channels.

See DESIGN.md for why simulation (rather than Gramine-wrapped hardware
enclaves) is the right substrate for this reproduction.
"""
