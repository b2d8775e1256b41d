"""Fast stream cipher for bulk payloads.

The paper's enclaves encrypt everything with AES-256 backed by AES-NI
hardware.  A pure-Python AES keystream would throttle the benchmarks to
a few hundred kilobytes per second, distorting the running-time *shape*
the reproduction must preserve (encryption is not the bottleneck in the
paper).  This module therefore provides a keyed keystream generator
whose hot path runs in C:

* the (key, nonce) pair is absorbed by SHA-256 into a 256-bit block, and
* that block keys a **Philox 4x64 counter-based generator** (numpy's
  implementation) which expands it into the keystream at memory speed.

Philox is a counter-mode PRF family from the random123 suite — the
right *shape* for a stream cipher — but it is not a vetted cipher and
this construction must not be used outside simulation.  The substitution
is recorded in DESIGN.md.  :class:`~repro.crypto.authenticated.StreamAead`
wraps this cipher for all exchanged and sealed data, as the paper's
enclaves use AES-256 for all of theirs.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

NONCE_SIZE = 16

_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


class StreamCipher:
    """SHA-256-keyed Philox counter-mode stream cipher (encrypt == decrypt).

    The key schedule is computed once per instance: the absorbed key's
    SHA-256 state is kept as a reusable partial hash (per frame only the
    nonce is absorbed into a copy), and one Philox bit generator is
    re-keyed in place per frame instead of being constructed from
    scratch.  Re-keying restores the exact state a fresh
    ``Philox(key=...)`` would have, so the keystream is bit-identical to
    the original per-frame construction.  Instances are thread-safe;
    channel endpoints hold one cipher for their lifetime.
    """

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("stream key must be at least 16 bytes")
        self._key = hashlib.sha256(b"repro.stream:" + key).digest()
        #: Partial SHA-256 over the derived key; per frame a copy absorbs
        #: the nonce, saving the key-prefix compression per frame.
        self._hasher = hashlib.sha256(self._key)
        self._bitgen = np.random.Philox()
        self._state_template = self._bitgen.state
        self._lock = threading.Lock()

    def _validate_nonce(self, nonce: bytes) -> None:
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")

    def _rekey(self, nonce: bytes) -> np.random.Philox:
        """Re-key the cached bit generator for ``(key, nonce)``.

        Caller must hold ``self._lock`` until the keystream is drawn.
        """
        self._validate_nonce(nonce)
        hasher = self._hasher.copy()
        hasher.update(nonce)
        words = np.frombuffer(hasher.digest(), dtype=np.uint64)
        # Philox-4x64 takes a 128-bit key; fold the 256-bit block onto it
        # so every seed bit influences the keystream.
        state = self._state_template
        state["state"]["counter"] = _ZERO_COUNTER
        state["state"]["key"] = words[:2] ^ words[2:]
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._bitgen

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes for ``(key, nonce)``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            self._validate_nonce(nonce)
            return b""
        # The raw 64-bit words, little-endian, are the bytes
        # ``Generator.bytes(length)`` returns without its uint32 detour.
        with self._lock:
            words = self._rekey(nonce).random_raw(-(-length // 8))
        return words.astype("<u8", copy=False).tobytes()[:length]

    def process(self, nonce: bytes, data: bytes) -> bytes:
        """XOR ``data`` with the keystream (involution)."""
        if not data:
            self._validate_nonce(nonce)
            return b""
        stream = self.keystream(nonce, len(data))
        data_arr = np.frombuffer(data, dtype=np.uint8)
        stream_arr = np.frombuffer(stream, dtype=np.uint8)
        return (data_arr ^ stream_arr).tobytes()
