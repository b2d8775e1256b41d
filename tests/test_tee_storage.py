"""Sealed column stores and streaming readers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SealingError
from repro.tee.enclave import Enclave, ecall
from repro.tee.sealing import SealedBlob
from repro.tee.storage import (
    ColumnReader,
    SealedColumnStore,
    chunk_width_for,
    pack_columns,
    seal_matrix,
)

_KEY = bytes(range(32))


class DataEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        return None


@pytest.fixture()
def enclave():
    return DataEnclave(_KEY, "storage-test")


def _matrix(rows=37, cols=53, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random((rows, cols)) < 0.3).astype(np.uint8)


class TestSealMatrix:
    def test_chunking_dimensions(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=37 * 10)
        assert store.num_rows == 37
        assert store.num_cols == 53
        assert store.chunk_width == 10
        assert len(store.chunks) == 6

    def test_chunk_width_for(self):
        assert chunk_width_for(100, 1000) == 10
        assert chunk_width_for(10_000_000, 1000) == 1  # never zero
        with pytest.raises(SealingError):
            chunk_width_for(0)

    def test_only_2d_accepted(self, enclave):
        with pytest.raises(SealingError):
            seal_matrix(enclave, np.zeros(5, dtype=np.uint8), "t")

    def test_only_binary_accepted(self, enclave):
        """One bit per genotype: a 2 cannot be packed, so it is refused."""
        data = _matrix()
        data[5, 7] = 2
        with pytest.raises(SealingError):
            seal_matrix(enclave, data, "t")

    def test_store_consistency_validated(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with pytest.raises(SealingError):
            SealedColumnStore(
                num_rows=store.num_rows,
                num_cols=store.num_cols,
                chunk_width=store.chunk_width,
                chunks=store.chunks[:-1],
                label="t",
            )

    def test_sealed_bytes_exceed_plaintext(self, enclave):
        """Every chunk carries its AEAD overhead over the packed words."""
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=37 * 10)
        words = pack_columns(data)
        for index, chunk in enumerate(store.chunks):
            plaintext = words[:, index * 10 : (index + 1) * 10]
            assert len(chunk) > plaintext.nbytes
        assert store.sealed_bytes > words.nbytes


class TestColumnReader:
    def test_single_columns(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=37 * 7)
        with ColumnReader(enclave, store) as reader:
            for col in (0, 7, 13, 52):
                assert np.array_equal(reader.column(col), data[:, col])

    def test_gather_columns_in_any_order(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=37 * 5)
        indices = [50, 3, 27, 3, 0, 49]
        with ColumnReader(enclave, store) as reader:
            gathered = reader.columns(indices)
        assert np.array_equal(gathered, data[:, indices])

    def test_gather_empty(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with ColumnReader(enclave, store) as reader:
            assert reader.columns([]).shape == (37, 0)

    def test_column_sums(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "t", chunk_bytes=37 * 4)
        with ColumnReader(enclave, store) as reader:
            assert np.array_equal(
                reader.column_sums(), data.sum(axis=0, dtype=np.int64)
            )

    def test_out_of_range_column(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with ColumnReader(enclave, store) as reader:
            with pytest.raises(SealingError):
                reader.column(53)
            with pytest.raises(SealingError):
                reader.columns([0, 99])

    def test_cache_eviction_registers_memory(self, enclave):
        data = _matrix(rows=64, cols=64)
        store = seal_matrix(enclave, data, "evict", chunk_bytes=64 * 4)
        reader = ColumnReader(enclave, store, max_cached_chunks=2)
        baseline = enclave.meter.current_memory_bytes
        for col in range(0, 64, 4):  # touch every chunk
            reader.column(col)
        cached = enclave.meter.current_memory_bytes - baseline
        assert cached <= 2 * 64 * 4  # at most two chunks resident
        reader.close()
        assert enclave.meter.current_memory_bytes == baseline

    def test_reader_rejects_zero_cache(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        with pytest.raises(SealingError):
            ColumnReader(enclave, store, max_cached_chunks=0)

    def test_tampered_chunk_rejected(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t", chunk_bytes=37 * 10)
        raw = bytearray(store.chunks[2].data)
        raw[-1] ^= 1
        tampered = SealedColumnStore(
            num_rows=store.num_rows,
            num_cols=store.num_cols,
            chunk_width=store.chunk_width,
            chunks=store.chunks[:2]
            + (SealedBlob(data=bytes(raw), label=store.chunks[2].label),)
            + store.chunks[3:],
            label=store.label,
        )
        with ColumnReader(enclave, tampered) as reader:
            reader.column(0)  # chunk 0 untouched
            with pytest.raises(SealingError):
                reader.column(25)  # lands in tampered chunk 2

    def test_chunk_swap_rejected(self, enclave):
        """Reordering sealed chunks must fail (index bound as label)."""
        store = seal_matrix(enclave, _matrix(), "t", chunk_bytes=37 * 10)
        swapped = SealedColumnStore(
            num_rows=store.num_rows,
            num_cols=store.num_cols,
            chunk_width=store.chunk_width,
            chunks=(store.chunks[1], store.chunks[0]) + store.chunks[2:],
            label=store.label,
        )
        with ColumnReader(enclave, swapped) as reader:
            with pytest.raises(SealingError):
                reader.column(0)

    @pytest.mark.parametrize(
        "chunk_bytes, forged",
        [
            (297 * 100, {"num_rows": 594, "num_cols": 50, "chunk_width": 50}),
            (297 * 50, {"num_rows": 300}),
            (297 * 100, {"num_rows": 257}),
        ],
        ids=["same-chunk-count", "two-chunks", "same-word-count"],
    )
    def test_forged_shape_rejected(self, enclave, chunk_bytes, forged):
        """The host holds the shape fields; every chunk label binds them."""
        data = _matrix(rows=297, cols=100)
        store = seal_matrix(enclave, data, "t", chunk_bytes=chunk_bytes)
        forgery = dataclasses.replace(store, **forged)
        with ColumnReader(enclave, forgery) as reader:
            with pytest.raises(SealingError):
                reader.column_sums()
            with pytest.raises(SealingError):
                reader.packed_columns([0])

    def test_wrong_enclave_cannot_read(self, enclave):
        store = seal_matrix(enclave, _matrix(), "t")
        other = DataEnclave(bytes(32), "other-platform")
        with ColumnReader(other, store) as reader:
            with pytest.raises(SealingError):
                reader.column(0)

    @given(
        rows=st.integers(min_value=1, max_value=140),
        cols=st.integers(min_value=1, max_value=60),
        chunk_bytes=st.integers(min_value=8, max_value=600),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, rows, cols, chunk_bytes):
        enclave = DataEnclave(_KEY, "prop")
        rng = np.random.Generator(np.random.PCG64(rows * 1000 + cols))
        data = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        store = seal_matrix(enclave, data, "p", chunk_bytes=chunk_bytes)
        with ColumnReader(enclave, store) as reader:
            gathered = reader.columns(list(range(cols)))
        assert np.array_equal(gathered, data)
