"""Decoder robustness: adversarial bytes must fail cleanly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.net.serialization import decode, encode


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_random_bytes_never_crash(data):
    """decode() either succeeds or raises SerializationError — nothing else."""
    try:
        decode(data)
    except SerializationError:
        pass


@given(st.binary(min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_truncated_valid_payloads_fail_cleanly(data):
    encoded = encode({"payload": data, "n": len(data)})
    for cut in (1, len(encoded) // 2, len(encoded) - 1):
        with pytest.raises(SerializationError):
            decode(encoded[:cut])


@given(
    st.binary(min_size=8, max_size=80),
    st.integers(min_value=0, max_value=79),
)
@settings(max_examples=100, deadline=None)
def test_bitflipped_payloads_never_crash(data, position):
    encoded = bytearray(encode([data.decode("latin1"), 12, None]))
    if position < len(encoded):
        encoded[position] ^= 0xFF
    try:
        decoded = decode(bytes(encoded))
    except SerializationError:
        return
    # A flip can land in the payload body and still decode; that's fine
    # because the AEAD layer above rejects modified frames — the codec
    # only has to avoid crashing or looping.
    assert decoded is not None or decoded is None


def test_huge_declared_length_rejected():
    # Tag 's' followed by an absurd length must not allocate.
    with pytest.raises(SerializationError):
        decode(b"s" + (2**63).to_bytes(8, "big"))


def test_huge_array_dims_rejected():
    bad = (
        b"a"
        + (3).to_bytes(8, "big")
        + b"<f8"
        + (100).to_bytes(8, "big")  # 100 dimensions
    )
    with pytest.raises(SerializationError):
        decode(bad)


def test_bad_utf8_string_rejected():
    payload = b"\xff\xfe"
    bad = b"s" + len(payload).to_bytes(8, "big") + payload
    with pytest.raises(SerializationError):
        decode(bad)


def test_bad_dtype_rejected():
    name = b"bogus-dtype"
    bad = (
        b"a"
        + len(name).to_bytes(8, "big")
        + name
        + (0).to_bytes(8, "big")
        + (0).to_bytes(8, "big")
    )
    with pytest.raises(SerializationError):
        decode(bad)


def test_non_string_dict_key_payload_rejected():
    # Hand-craft a dict whose key decodes to an int.
    bad = b"d" + (1).to_bytes(8, "big") + encode(5) + encode("value")
    with pytest.raises(SerializationError):
        decode(bad)
