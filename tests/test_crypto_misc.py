"""Stream cipher, signing, DH and deterministic RNG."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dh
from repro.crypto.rng import DeterministicRng, system_random_bytes
from repro.crypto.signing import SIGNATURE_SIZE, MacSigner, digest
from repro.crypto.stream import NONCE_SIZE, StreamCipher
from repro.errors import AuthenticationError, CryptoError

_KEY = bytes(range(32))


class TestStreamCipher:
    def test_involution(self):
        cipher = StreamCipher(_KEY)
        nonce = bytes(NONCE_SIZE)
        data = bytes(range(256)) * 10
        assert cipher.process(nonce, cipher.process(nonce, data)) == data

    def test_keystream_deterministic_and_nonce_sensitive(self):
        cipher = StreamCipher(_KEY)
        n1, n2 = bytes(16), b"\x01" + bytes(15)
        assert cipher.keystream(n1, 64) == cipher.keystream(n1, 64)
        assert cipher.keystream(n1, 64) != cipher.keystream(n2, 64)

    def test_key_sensitive(self):
        nonce = bytes(16)
        assert StreamCipher(_KEY).keystream(nonce, 32) != StreamCipher(
            bytes(32)
        ).keystream(nonce, 32)

    def test_empty_payload(self):
        cipher = StreamCipher(_KEY)
        assert cipher.process(bytes(16), b"") == b""
        assert cipher.keystream(bytes(16), 0) == b""

    def test_bad_nonce_rejected_even_for_empty(self):
        cipher = StreamCipher(_KEY)
        with pytest.raises(ValueError):
            cipher.process(bytes(8), b"")
        with pytest.raises(ValueError):
            cipher.keystream(bytes(8), 16)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(b"tiny")

    @given(st.binary(min_size=0, max_size=2048))
    @settings(max_examples=30, deadline=None)
    def test_involution_property(self, data):
        cipher = StreamCipher(_KEY)
        nonce = bytes(16)
        assert cipher.process(nonce, cipher.process(nonce, data)) == data

    @pytest.mark.parametrize(
        "length, sha256",
        [
            (1, "380918b946a526640a40df5dced6516794f3d97bbd9e6bb553d037c4439f31c3"),
            (7, "dd278beb0d48699bf38676d9c2dd04c8213130e0f0e2223d64abd787fe9daca1"),
            (8, "162778205d2dc4fa37f3bc208184c611da154ea4ffd2b4e7a03ab0ecd7dbf5f1"),
            (9, "059c4024047b4e49c10658f5699d5aafb1d67f8186856d21744b1f5627bd276d"),
            (4166, "54c85d3ea842701072b391e69b05194c1bc2510f13e2c74454d064698119f531"),
            (
                2**20 + 3,
                "6538121ec01774ac1b3781546edb8a8d0263714b8e681812ca8991c5fa1d12e1",
            ),
        ],
    )
    def test_keystream_pinned(self, length, sha256):
        """Known-answer keystreams, across 8-byte word boundaries: every
        sealed blob and channel frame depends on these exact bytes."""
        stream = StreamCipher(_KEY).keystream(bytes(range(NONCE_SIZE)), length)
        assert len(stream) == length
        assert hashlib.sha256(stream).hexdigest() == sha256


class TestSigning:
    def test_sign_verify_roundtrip(self):
        signer = MacSigner(_KEY, purpose="test")
        sig = signer.sign(b"message")
        assert len(sig) == SIGNATURE_SIZE
        signer.verify(b"message", sig)  # no raise

    def test_wrong_message_rejected(self):
        signer = MacSigner(_KEY, purpose="test")
        sig = signer.sign(b"message")
        with pytest.raises(AuthenticationError):
            signer.verify(b"other", sig)

    def test_purpose_domain_separation(self):
        sig = MacSigner(_KEY, purpose="a").sign(b"m")
        with pytest.raises(AuthenticationError):
            MacSigner(_KEY, purpose="b").verify(b"m", sig)

    def test_verifier_facade_verifies_but_cannot_sign(self):
        signer = MacSigner(_KEY, purpose="test")
        verifier = signer.verifier()
        verifier.verify(b"m", signer.sign(b"m"))
        assert not hasattr(verifier, "sign")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MacSigner(b"short", purpose="p")
        with pytest.raises(ValueError):
            MacSigner(_KEY, purpose="")

    def test_digest_is_sha256(self):
        assert digest(b"") == bytes.fromhex(
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


class TestDiffieHellman:
    def test_key_agreement(self):
        rng = DeterministicRng("dh-test")
        alice = dh.generate_keypair(rng.fork("a"))
        bob = dh.generate_keypair(rng.fork("b"))
        assert dh.shared_secret(alice, bob.public) == dh.shared_secret(
            bob, alice.public
        )

    def test_deterministic_with_rng(self):
        one = dh.generate_keypair(DeterministicRng("seed"))
        two = dh.generate_keypair(DeterministicRng("seed"))
        assert one == two

    def test_system_randomness_differs(self):
        assert dh.generate_keypair() != dh.generate_keypair()

    @pytest.mark.parametrize("bad", [0, 1, dh.SAFE_PRIME - 1, dh.SAFE_PRIME])
    def test_degenerate_public_keys_rejected(self, bad):
        own = dh.generate_keypair(DeterministicRng("x"))
        with pytest.raises(CryptoError):
            dh.shared_secret(own, bad)

    def test_channel_key_binds_context(self):
        rng = DeterministicRng("dh-ctx")
        alice = dh.generate_keypair(rng.fork("a"))
        bob = dh.generate_keypair(rng.fork("b"))
        key1 = dh.derive_channel_key(alice, bob.public, context=b"ctx-1")
        key2 = dh.derive_channel_key(alice, bob.public, context=b"ctx-2")
        assert key1 != key2
        assert key1 == dh.derive_channel_key(bob, alice.public, context=b"ctx-1")

    def test_group_is_safe_prime(self):
        assert dh._is_probable_prime(dh.SAFE_PRIME)
        assert dh._is_probable_prime((dh.SAFE_PRIME - 1) // 2)


class TestDeterministicRng:
    def test_reproducible(self):
        assert DeterministicRng(42).bytes(64) == DeterministicRng(42).bytes(64)

    def test_seed_types(self):
        for seed in (0, b"bytes", "string"):
            assert len(DeterministicRng(seed).bytes(16)) == 16

    def test_stream_continuity(self):
        rng = DeterministicRng("x")
        first = rng.bytes(10)
        ref = DeterministicRng("x")
        assert ref.bytes(10) == first
        assert ref.bytes(5) == rng.bytes(5)

    def test_randbelow_range_and_coverage(self):
        rng = DeterministicRng("below")
        values = {rng.randbelow(7) for _ in range(300)}
        assert values == set(range(7))

    def test_randbelow_validation(self):
        with pytest.raises(ValueError):
            DeterministicRng("x").randbelow(0)

    def test_randrange(self):
        rng = DeterministicRng("range")
        for _ in range(100):
            assert 5 <= rng.randrange(5, 9) < 9
        with pytest.raises(ValueError):
            rng.randrange(3, 3)

    def test_choice_and_shuffle(self):
        rng = DeterministicRng("choice")
        items = list(range(20))
        assert rng.choice(items) in items
        with pytest.raises(IndexError):
            rng.choice([])
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # 1/20! chance of false failure

    def test_fork_independence(self):
        rng = DeterministicRng("parent")
        a = rng.fork("a").bytes(32)
        b = rng.fork("b").bytes(32)
        assert a != b
        assert rng.fork("a").bytes(32) == a

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng("x").bytes(-1)

    def test_system_random_bytes(self):
        assert len(system_random_bytes(32)) == 32
        assert system_random_bytes(16) != system_random_bytes(16)
