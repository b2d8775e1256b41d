"""Genotype matrices.

The paper encodes each genome over ``L`` SNPs as a binary vector: 0 when
only the major allele is present, 1 when the minor allele is (Table 1).
:class:`GenotypeMatrix` stores a population as an ``N x L`` ``uint8``
numpy array under that encoding and offers the allele counts the
protocol phases consume, plus the row/column slicing used to partition
cohorts across federation members.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import GenomicsError


class GenotypeMatrix:
    """An immutable ``N x L`` binary genotype matrix."""

    def __init__(self, data: np.ndarray):
        array = np.asarray(data)
        if array.ndim != 2:
            raise GenomicsError(
                f"genotype data must be 2-dimensional, got {array.ndim}"
            )
        if array.dtype != np.uint8:
            if not np.issubdtype(array.dtype, np.integer):
                raise GenomicsError("genotype data must be integer-typed")
            array = array.astype(np.uint8)
        if array.size and array.max(initial=0) > 1:
            raise GenomicsError("genotypes must be binary (0 or 1)")
        self._data = array.copy()
        self._data.setflags(write=False)

    # -- Shape -------------------------------------------------------------------

    @property
    def num_individuals(self) -> int:
        return self._data.shape[0]

    @property
    def num_snps(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self._data.shape

    @property
    def nbytes(self) -> int:
        """Raw storage footprint (1 byte per genotype)."""
        return self._data.nbytes

    def __len__(self) -> int:
        return self.num_individuals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenotypeMatrix):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:  # immutable, so hashing by content is sound
        return hash((self._data.shape, self._data.tobytes()))

    # -- Raw access ----------------------------------------------------------------

    def array(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._data

    def row(self, index: int) -> np.ndarray:
        """One individual's genotype vector (read-only view)."""
        return self._data[index]

    # -- Aggregates consumed by the protocol phases --------------------------------

    def allele_counts(self, snp_indices: Sequence[int] | None = None) -> np.ndarray:
        """Minor-allele counts per SNP (the ``caseLocalCounts`` vector).

        Returned as ``int64`` so sums across federation members cannot
        overflow.
        """
        data = self._data if snp_indices is None else self._data[:, snp_indices]
        return data.sum(axis=0, dtype=np.int64)

    # -- Slicing ----------------------------------------------------------------

    def select_snps(self, snp_indices: Sequence[int]) -> "GenotypeMatrix":
        """Column subset (new matrix over the given SNP indices)."""
        indices = np.asarray(list(snp_indices), dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_snps):
            raise GenomicsError("SNP index out of range")
        return GenotypeMatrix(self._data[:, indices])

    def select_individuals(self, rows: Sequence[int]) -> "GenotypeMatrix":
        """Row subset (new matrix over the given individuals)."""
        indices = np.asarray(list(rows), dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_individuals
        ):
            raise GenomicsError("individual index out of range")
        return GenotypeMatrix(self._data[indices, :])

    def split_rows(self, sizes: Sequence[int]) -> Tuple["GenotypeMatrix", ...]:
        """Split individuals into consecutive groups of the given sizes."""
        if sum(sizes) != self.num_individuals:
            raise GenomicsError(
                f"split sizes sum to {sum(sizes)}, expected {self.num_individuals}"
            )
        if any(size < 0 for size in sizes):
            raise GenomicsError("split sizes must be non-negative")
        parts = []
        offset = 0
        for size in sizes:
            parts.append(GenotypeMatrix(self._data[offset : offset + size]))
            offset += size
        return tuple(parts)

    @classmethod
    def vstack(cls, parts: Iterable["GenotypeMatrix"]) -> "GenotypeMatrix":
        """Concatenate populations (inverse of :meth:`split_rows`)."""
        arrays = [part.array() for part in parts]
        if not arrays:
            raise GenomicsError("cannot stack zero matrices")
        widths = {a.shape[1] for a in arrays}
        if len(widths) != 1:
            raise GenomicsError("matrices cover different SNP panels")
        return cls(np.vstack(arrays))

    # -- Serialization helpers ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Packed row-major byte string (1 byte per genotype)."""
        return self._data.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, num_snps: int) -> "GenotypeMatrix":
        if num_snps <= 0:
            raise GenomicsError("num_snps must be positive")
        if len(raw) % num_snps:
            raise GenomicsError("byte length is not a multiple of num_snps")
        array = np.frombuffer(raw, dtype=np.uint8).reshape(-1, num_snps)
        return cls(array)
