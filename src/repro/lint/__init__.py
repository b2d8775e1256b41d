"""Domain-aware static analysis for the GenDPR reproduction.

The chaos and equivalence suites *test* the repo's trust invariants;
this package *proves the easy half statically*, on every commit:

* **R1 enclave-purity** — attested enclave code may not reach ambient
  nondeterminism or I/O (clocks, ``random``, ``os.urandom``, files,
  sockets, stdout); randomness must come from :mod:`repro.crypto.rng`.
* **R2 determinism** — protocol/statistics code may not let set
  iteration order, ``id()`` or the wall clock into decisions, which
  would break the bit-identical sequential/parallel and
  fault-free/faulted guarantees.
* **R3 crypto-misuse** — digests/MACs/measurements compare via
  ``hmac.compare_digest``; no literal keys/nonces; no digest
  truncation.
* **R4 lock-discipline** — the ``with``-nesting acquisition graph over
  the network/resilience layers must stay acyclic (deadlock freedom of
  the ThreadPoolExecutor fan-out); :mod:`repro.lint.runtime` extends
  the check to dynamically observed orders.
* **R5 error-taxonomy** — every ``raise`` in protocol/net/TEE code is
  a :mod:`repro.errors` subclass, keeping supervisor failure
  classification total.

Entry points: ``repro lint [paths]`` (human/JSON reports, baseline,
``lint.toml`` scope map) and the :func:`~repro.lint.engine.run_lint`
library API.
"""
