"""GenDPR — the paper's primary contribution.

* :mod:`~repro.core.enclave_logic` — the trusted module (member and
  leader roles of Figure 2).
* :mod:`~repro.core.federation` — provisioning: attestation, channels,
  signed datasets, untrusted host routers.
* :mod:`~repro.core.protocol` — study orchestration and results.
* :mod:`~repro.core.pipeline` — the three-phase decision logic as pure
  functions shared by every deployment.
* :mod:`~repro.core.baseline` — the centralized SecureGenome-in-a-TEE
  comparator.
* :mod:`~repro.core.naive` — the naive per-member comparator.
* :mod:`~repro.core.release` / :mod:`~repro.core.dp` — exact and hybrid
  DP releases.
* :mod:`~repro.core.audit` — genome-egress auditing.
"""
