"""Finite-field Diffie-Hellman key agreement.

During remote attestation, GenDPR enclaves "agree on keys and other
credentials ... to connect the trust-chain from boot to communication"
(Section 5.1).  This module supplies that key agreement: classic DH over a
fixed safe-prime group, with the shared secret fed through HKDF to derive
the channel keys.

The group is a 768-bit safe prime generated deterministically for this
project (seed 2022).  The test suite re-verifies p and (p - 1) / 2 with
Miller-Rabin (``_is_probable_prime``), so a transcription error cannot
silently weaken the group; the constant cannot change at run time, so
the check is not repeated on every import.
768 bits keeps handshakes fast in pure Python; the simulation's security
argument rests on the TEE trust model, not on this group's concrete
hardness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError
from .kdf import hkdf
from .rng import DeterministicRng, system_random_bytes

#: 768-bit safe prime p = 2q + 1 (generator of the full group below).
SAFE_PRIME = int(
    "f0fa2d246b24b9fe7a9b4f7d4144acc4158517de87ec559dae15f097a838f0e3"
    "cb6b85445ea7d45474650c2993fc2e0f793c67c5d85f82ec21d22b4af159d9b0"
    "912c9151d2a31b6292a0bde829d7ebe4c078763abbb778451e1a577acb8eacfb",
    16,
)
GENERATOR = 2
_SECRET_BYTES = 48


def _is_probable_prime(n: int, rounds: int = 30) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = DeterministicRng(b"dh-primality")
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class KeyPair:
    """A DH private/public key pair."""

    private: int
    public: int


def generate_keypair(rng: DeterministicRng | None = None) -> KeyPair:
    """Generate a key pair; deterministic when given an explicit RNG."""
    raw = rng.bytes(_SECRET_BYTES) if rng is not None else system_random_bytes(
        _SECRET_BYTES
    )
    private = (int.from_bytes(raw, "big") % (SAFE_PRIME - 3)) + 2
    return KeyPair(private=private, public=pow(GENERATOR, private, SAFE_PRIME))


def validate_public_key(public: int) -> None:
    """Reject degenerate peer values (1, 0, p-1, out of range)."""
    if not 2 <= public <= SAFE_PRIME - 2:
        raise CryptoError("peer DH public key is out of range")


def shared_secret(own: KeyPair, peer_public: int) -> bytes:
    """Raw DH shared secret as fixed-width big-endian bytes."""
    validate_public_key(peer_public)
    secret = pow(peer_public, own.private, SAFE_PRIME)
    width = (SAFE_PRIME.bit_length() + 7) // 8
    return secret.to_bytes(width, "big")


def derive_channel_key(
    own: KeyPair, peer_public: int, *, context: bytes, length: int = 32
) -> bytes:
    """Agree on a symmetric channel key bound to ``context``.

    ``context`` must encode both endpoints' identities (and the attestation
    transcript) so a key negotiated for one pairing can never be replayed
    for another.
    """
    return hkdf(
        shared_secret(own, peer_public),
        salt=b"repro.dh.channel",
        info=context,
        length=length,
    )
