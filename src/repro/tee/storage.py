"""Sealed, chunked genotype storage.

SGX enclaves have scarce protected memory (the paper discusses the
128 MB EPC limit), so GenDPR keeps genome datasets *sealed outside* the
enclave and streams them through in bounded pieces; Table 3's ~2 MB
enclave footprints are only possible because the enclave never holds a
full genotype matrix.

:class:`SealedColumnStore` reproduces that design: a genotype matrix is
sealed into column-range chunks that live with the untrusted host, and
the enclave unseals only the chunks a computation touches, registering
the transient working set with its resource meter.  Each chunk is
independently sealed under a label that binds the store's shape
``(num_rows, num_cols, chunk_width)`` and the chunk index as
associated data, so the host can neither substitute, reorder nor
truncate chunks, nor misstate the shape, without detection.

A genome is a binary vector, so a chunk's plaintext holds one bit per
genotype: each column is ``W = ceil(N / 64)`` little-endian uint64
words, individual ``r`` at bit ``r % 64`` of word ``r // 64``, with
every padding bit zero, and a chunk of ``k`` columns is the ``W x k``
word matrix.  Only this module knows that layout
(:func:`pack_columns`, :func:`unpack_columns`).  The LD kernel takes
the words from :meth:`ColumnReader.packed_columns` and only counts set
bits; every other read unpacks to the ``N x k`` uint8 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import SealingError
from .enclave import Enclave
from .sealing import SealedBlob, seal, unseal

#: Target genotype cells (rows x columns) per sealed chunk; it fixes
#: the chunk width, and a chunk's plaintext holds one bit per cell.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: One storage word: 64 individuals of one column, little-endian.
_WORD = np.dtype("<u8")
_WORD_BITS = 64


def _num_words(num_rows: int) -> int:
    return -(-num_rows // _WORD_BITS)


def pack_columns(matrix: np.ndarray) -> np.ndarray:
    """Pack an ``N x K`` 0/1 matrix into its ``W x K`` storage words.

    Any nonzero entry packs as a set bit, so callers pass binary input
    (:func:`seal_matrix` checks).
    """
    data = np.asarray(matrix)
    num_rows, num_cols = data.shape
    # One row per column, zero-padded to whole words, so that packbits
    # and the word view both run along contiguous memory.
    columns = np.zeros((num_cols, _num_words(num_rows) * _WORD_BITS), np.uint8)
    columns[:, :num_rows] = data.T
    bits = np.packbits(columns, axis=1, bitorder="little")
    return np.ascontiguousarray(bits.view(_WORD).T)


def unpack_columns(words: np.ndarray, num_rows: int) -> np.ndarray:
    """The ``N x K`` uint8 matrix of ``W x K`` storage words."""
    columns = np.ascontiguousarray(np.asarray(words, dtype=_WORD).T)
    bits = np.unpackbits(
        columns.view(np.uint8), axis=1, count=num_rows, bitorder="little"
    )
    return np.ascontiguousarray(bits.T)


def _chunk_label(
    label: str, num_rows: int, num_cols: int, chunk_width: int, chunk_index: int
) -> str:
    """The label a chunk is sealed under: the store's label and shape and
    the chunk's position, so a host that misstates the shape or moves a
    chunk cannot have it unsealed."""
    return f"{label}/{num_rows}x{num_cols}/w{chunk_width}/chunk-{chunk_index}"


@dataclass(frozen=True)
class SealedColumnStore:
    """A matrix sealed as column chunks, held on untrusted storage.

    The fields are the host's copy of the shape; a reader trusts them
    only as far as the chunk labels they re-derive authenticate them.
    """

    num_rows: int
    num_cols: int
    chunk_width: int
    chunks: Tuple[SealedBlob, ...]
    label: str

    def __post_init__(self) -> None:
        expected = (self.num_cols + self.chunk_width - 1) // self.chunk_width
        if expected != len(self.chunks):
            raise SealingError(
                f"store has {len(self.chunks)} chunks, expected {expected}"
            )

    @property
    def sealed_bytes(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def chunk_of_column(self, column: int) -> int:
        if not 0 <= column < self.num_cols:
            raise SealingError(f"column {column} out of range")
        return column // self.chunk_width


def chunk_width_for(num_rows: int, target_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
    """Columns per chunk so one chunk is roughly ``target_bytes`` cells."""
    if num_rows <= 0:
        raise SealingError("num_rows must be positive")
    return max(1, target_bytes // num_rows)


def seal_matrix(
    enclave: Enclave,
    matrix: np.ndarray,
    label: str,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> SealedColumnStore:
    """Seal a binary ``matrix`` (one row per individual) into a
    bit-packed, column-chunked store.

    Runs inside the enclave that will later read the store; the sealing
    key binds the chunks to this enclave's measurement and platform.
    Packing keeps one bit per entry, so a matrix with any entry other
    than 0 or 1 is refused rather than silently changed.
    """
    data = np.asarray(matrix)
    if data.ndim != 2:
        raise SealingError("only 2-D matrices can be sealed")
    if data.dtype.kind not in "biu" or (
        data.size and (data.min() < 0 or data.max() > 1)
    ):
        raise SealingError("only binary integer matrices can be sealed")
    num_rows, num_cols = data.shape
    width = chunk_width_for(num_rows, chunk_bytes)
    words = pack_columns(data)
    chunks: List[SealedBlob] = []
    for start in range(0, num_cols, width):
        piece = np.ascontiguousarray(words[:, start : start + width])
        chunk_label = _chunk_label(label, num_rows, num_cols, width, start // width)
        chunks.append(seal(enclave, piece.tobytes(), chunk_label))
    return SealedColumnStore(
        num_rows=num_rows,
        num_cols=num_cols,
        chunk_width=width,
        chunks=tuple(chunks),
        label=label,
    )


class ColumnReader:
    """Enclave-side streaming reader over a sealed column store.

    Unseals chunks on demand, keeps at most ``max_cached_chunks`` of
    them resident (bit-packed), and registers the resident set with the
    enclave's resource meter so the benchmarks see the true trusted
    working set.
    """

    def __init__(
        self,
        enclave: Enclave,
        store: SealedColumnStore,
        *,
        max_cached_chunks: int = 4,
    ):
        if max_cached_chunks < 1:
            raise SealingError("must cache at least one chunk")
        self._enclave = enclave
        self._store = store
        self._words = _num_words(store.num_rows)
        self._max_cached = max_cached_chunks
        self._cache: Dict[int, np.ndarray] = {}

    def _buffer_name(self, chunk_index: int) -> str:
        return f"reader/{self._store.label}/chunk-{chunk_index}"

    def _load_chunk(self, chunk_index: int) -> np.ndarray:
        """Chunk ``chunk_index`` as its ``W x width`` storage words."""
        if chunk_index in self._cache:
            return self._cache[chunk_index]
        while len(self._cache) >= self._max_cached:
            evicted = next(iter(self._cache))
            del self._cache[evicted]
            self._enclave.meter.release_buffer(self._buffer_name(evicted))
        store = self._store
        blob = store.chunks[chunk_index]
        # Re-derive the expected label from the store's shape and the
        # chunk's *position*: a host that reorders sealed chunks (each
        # blob carries its own label) or edits the shape fields must not
        # be able to serve column data under the wrong range or size.
        expected = SealedBlob(
            data=blob.data,
            label=_chunk_label(
                store.label,
                store.num_rows,
                store.num_cols,
                store.chunk_width,
                chunk_index,
            ),
        )
        raw = unseal(self._enclave, expected)
        start = chunk_index * store.chunk_width
        width = min(store.chunk_width, store.num_cols - start)
        chunk = np.frombuffer(raw, dtype=_WORD).reshape(self._words, width)
        self._cache[chunk_index] = chunk
        self._enclave.meter.register_buffer(
            self._buffer_name(chunk_index), chunk.nbytes
        )
        return chunk

    @property
    def num_rows(self) -> int:
        return self._store.num_rows

    @property
    def num_cols(self) -> int:
        return self._store.num_cols

    def column(self, index: int) -> np.ndarray:
        """One column as a uint8 vector."""
        chunk_index = self._store.chunk_of_column(index)
        chunk = self._load_chunk(chunk_index)
        offset = index - chunk_index * self._store.chunk_width
        return unpack_columns(chunk[:, offset : offset + 1], self.num_rows)[:, 0]

    def packed_columns(self, indices: Sequence[int]) -> np.ndarray:
        """Gather several columns as their ``W x len(indices)`` storage
        words, the input of :func:`repro.stats.ld.pair_moments_kernel`.

        Chunks are visited in sorted order so each is unsealed once per
        call even when indices interleave chunk boundaries; the copy out
        of each chunk is a single fancy-index operation.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        out = np.empty((self._words, index_array.size), dtype=_WORD)
        if index_array.size == 0:
            return out
        if index_array.min() < 0 or index_array.max() >= self._store.num_cols:
            raise SealingError("column index out of range")
        chunk_ids = index_array // self._store.chunk_width
        # A count per chunk finds the touched chunks, ascending, without
        # np.unique's hash path.
        for chunk_index in np.flatnonzero(np.bincount(chunk_ids)):
            chunk = self._load_chunk(int(chunk_index))
            mask = chunk_ids == chunk_index
            offsets = index_array[mask] - int(chunk_index) * self._store.chunk_width
            out[:, np.nonzero(mask)[0]] = chunk[:, offsets]
        return out

    def columns(self, indices: Sequence[int]) -> np.ndarray:
        """Gather several columns into an ``N x len(indices)`` uint8 matrix."""
        return unpack_columns(self.packed_columns(indices), self.num_rows)

    def iter_chunks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream ``(start_column, N x width uint8 chunk)`` pairs across
        the whole store."""
        for chunk_index in range(len(self._store.chunks)):
            start = chunk_index * self._store.chunk_width
            yield start, unpack_columns(self._load_chunk(chunk_index), self.num_rows)

    def column_sums(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Minor-allele counts per column over ``[start, stop)``: the set
        bits of each column's words.

        Streamed chunk by chunk, so the transient trusted working set is
        one chunk regardless of the range width — this is what keeps a
        shard enclave's leaf computation O(chunk) even for wide shards.
        The default range covers the whole store.
        """
        if stop is None:
            stop = self._store.num_cols
        if not 0 <= start <= stop <= self._store.num_cols:
            raise SealingError(
                f"column range [{start}, {stop}) outside "
                f"[0, {self._store.num_cols})"
            )
        sums = np.empty(stop - start, dtype=np.int64)
        if start == stop:
            return sums
        width = self._store.chunk_width
        for chunk_index in range(start // width, (stop - 1) // width + 1):
            chunk = self._load_chunk(chunk_index)
            chunk_start = chunk_index * width
            lo = max(start, chunk_start)
            hi = min(stop, chunk_start + chunk.shape[1])
            sums[lo - start : hi - start] = np.bitwise_count(
                chunk[:, lo - chunk_start : hi - chunk_start]
            ).sum(axis=0, dtype=np.int64)
        return sums

    def close(self) -> None:
        """Drop all cached chunks and their meter registrations."""
        for chunk_index in list(self._cache):
            self._enclave.meter.release_buffer(self._buffer_name(chunk_index))
        self._cache.clear()

    def __enter__(self) -> "ColumnReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
