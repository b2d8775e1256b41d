"""Authenticated encryption: round trips, tamper rejection, a pinned frame."""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.authenticated import AEAD_OVERHEAD, StreamAead
from repro.crypto.rng import DeterministicRng
from repro.errors import AuthenticationError, DecryptionError

_KEY = bytes(range(32))


@pytest.mark.parametrize("scheme", [StreamAead])
class TestAeadCommon:
    def test_roundtrip(self, scheme):
        aead = scheme(_KEY)
        rng = DeterministicRng(scheme.__name__)
        for length in (0, 1, 64, 1000):
            data = rng.bytes(length)
            assert aead.decrypt(aead.encrypt(data)) == data

    def test_roundtrip_with_associated_data(self, scheme):
        aead = scheme(_KEY)
        frame = aead.encrypt(b"payload", b"header")
        assert aead.decrypt(frame, b"header") == b"payload"

    def test_wrong_associated_data_rejected(self, scheme):
        aead = scheme(_KEY)
        frame = aead.encrypt(b"payload", b"header")
        with pytest.raises(AuthenticationError):
            aead.decrypt(frame, b"other")

    def test_tampered_ciphertext_rejected(self, scheme):
        aead = scheme(_KEY)
        frame = bytearray(aead.encrypt(bytes(100)))
        frame[20] ^= 0x01
        with pytest.raises(AuthenticationError):
            aead.decrypt(bytes(frame))

    def test_tampered_tag_rejected(self, scheme):
        aead = scheme(_KEY)
        frame = bytearray(aead.encrypt(b"payload"))
        frame[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            aead.decrypt(bytes(frame))

    def test_tampered_nonce_rejected(self, scheme):
        aead = scheme(_KEY)
        frame = bytearray(aead.encrypt(b"payload"))
        frame[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            aead.decrypt(bytes(frame))

    def test_truncated_frame_rejected(self, scheme):
        aead = scheme(_KEY)
        with pytest.raises(DecryptionError):
            aead.decrypt(aead.encrypt(b"")[: AEAD_OVERHEAD - 1])

    def test_wrong_key_rejected(self, scheme):
        frame = scheme(_KEY).encrypt(b"payload")
        with pytest.raises(AuthenticationError):
            scheme(bytes(32)).decrypt(frame)

    def test_fresh_nonce_per_encryption(self, scheme):
        aead = scheme(_KEY)
        assert aead.encrypt(b"same") != aead.encrypt(b"same")

    def test_explicit_nonce_is_deterministic(self, scheme):
        aead = scheme(_KEY)
        nonce = bytes(16)
        assert aead.encrypt(b"x", nonce=nonce) == aead.encrypt(b"x", nonce=nonce)

    def test_overhead_constant(self, scheme):
        aead = scheme(_KEY)
        for length in (0, 10, 1000):
            assert len(aead.encrypt(bytes(length))) == length + AEAD_OVERHEAD

    def test_short_key_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme(b"short")


def test_known_answer_frame():
    """Pins the subkey labels and the nonce || ciphertext || tag layout.

    Round trips cannot notice a change to either, because both ends
    change together.
    """
    aead = StreamAead(_KEY)
    plaintext = b"GenDPR known answer" * 10
    frame = aead.encrypt(plaintext, b"ad", nonce=bytes(range(16)))
    assert len(frame) == len(plaintext) + AEAD_OVERHEAD == 238
    assert frame[:16] == bytes(range(16))
    assert hashlib.sha256(frame).hexdigest() == (
        "503101b143036ad5187f66fc5a198093b393bf33becf6ae8368f454171cc0e31"
    )
    assert aead.decrypt(frame, b"ad") == plaintext
