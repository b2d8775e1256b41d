"""Cryptographic substrate of the GenDPR reproduction.

Everything the TEE and protocol layers need, implemented from scratch on
the standard library (plus numpy for bulk XOR):

* :mod:`~repro.crypto.stream` — fast SHA-256 counter-mode stream cipher.
* :mod:`~repro.crypto.authenticated` — the encrypt-then-MAC AEAD that
  protects every channel frame and sealed blob.
* :mod:`~repro.crypto.kdf` — HKDF and labelled subkey derivation.
* :mod:`~repro.crypto.signing` — HMAC signing for datasets and quotes.
* :mod:`~repro.crypto.dh` — Diffie-Hellman key agreement for attested
  channels.
* :mod:`~repro.crypto.rng` — deterministic DRBG for reproducible runs.
"""
