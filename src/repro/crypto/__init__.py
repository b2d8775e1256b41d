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

from .authenticated import AEAD_OVERHEAD, StreamAead
from .dh import KeyPair, derive_channel_key, generate_keypair, shared_secret
from .kdf import derive_subkey, hkdf
from .rng import DeterministicRng, system_random_bytes
from .signing import SIGNATURE_SIZE, KeyedVerifier, MacSigner, digest
from .stream import NONCE_SIZE, StreamCipher

__all__ = [
    "AEAD_OVERHEAD",
    "StreamAead",
    "KeyPair",
    "derive_channel_key",
    "generate_keypair",
    "shared_secret",
    "derive_subkey",
    "hkdf",
    "DeterministicRng",
    "system_random_bytes",
    "SIGNATURE_SIZE",
    "KeyedVerifier",
    "MacSigner",
    "digest",
    "NONCE_SIZE",
    "StreamCipher",
]
