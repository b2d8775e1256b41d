"""Authenticated encryption (encrypt-then-MAC AEAD).

:class:`StreamAead` protects every channel frame and sealed blob: the
SHA-256-keyed counter-mode stream of :mod:`repro.crypto.stream` with an
HMAC-SHA256 tag (see that module for why it stands in for the paper's
hardware AES).  Its wire format is::

    nonce (16) || ciphertext || tag (32)

Independent encryption and MAC subkeys derive from the caller's key via
HKDF; the tag authenticates the nonce and optional associated data and
is verified in constant time.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from ..errors import AuthenticationError, DecryptionError
from .kdf import derive_subkey
from .stream import NONCE_SIZE, StreamCipher

TAG_SIZE = 32
#: Total bytes an AEAD frame adds over its plaintext.
AEAD_OVERHEAD = NONCE_SIZE + TAG_SIZE


class StreamAead:
    """Bulk AEAD: SHA-256 counter-mode stream with HMAC-SHA256."""

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("AEAD key must be at least 16 bytes")
        self._mac_key = derive_subkey(key, "stream-hmac/mac")
        self._cipher = StreamCipher(derive_subkey(key, "stream-hmac/enc"))

    def _tag(self, nonce: bytes, ciphertext: bytes, associated_data: bytes) -> bytes:
        mac = hmac.new(self._mac_key, digestmod=hashlib.sha256)
        mac.update(len(associated_data).to_bytes(8, "big"))
        mac.update(associated_data)
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def encrypt(
        self,
        plaintext: bytes,
        associated_data: bytes = b"",
        *,
        nonce: bytes | None = None,
    ) -> bytes:
        """Encrypt and authenticate; returns a self-contained frame.

        A random nonce is drawn unless the caller supplies one (callers
        doing so are responsible for uniqueness per key).
        """
        if nonce is None:
            nonce = os.urandom(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        ciphertext = self._cipher.process(nonce, plaintext)
        return nonce + ciphertext + self._tag(nonce, ciphertext, associated_data)

    def decrypt(self, frame: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a frame produced by :meth:`encrypt`."""
        if len(frame) < AEAD_OVERHEAD:
            raise DecryptionError("AEAD frame is too short")
        nonce = frame[:NONCE_SIZE]
        ciphertext = frame[NONCE_SIZE:-TAG_SIZE]
        tag = frame[-TAG_SIZE:]
        expected = self._tag(nonce, ciphertext, associated_data)
        if not hmac.compare_digest(tag, expected):
            raise AuthenticationError("AEAD tag verification failed")
        return self._cipher.process(nonce, ciphertext)
