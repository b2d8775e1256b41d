"""SNP panels, genotype matrices, cohorts and partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import equal_partition_sizes
from repro.errors import GenomicsError, PartitionError
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.partition import partition_cohort
from repro.genomics.population import Cohort
from repro.genomics.snp import SnpInfo, SnpPanel


def _matrix(rows=20, cols=12, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    return GenotypeMatrix((rng.random((rows, cols)) < 0.4).astype(np.uint8))


class TestSnpPanel:
    def test_synthetic_panel(self):
        panel = SnpPanel.synthetic(10)
        assert len(panel) == 10
        assert len(set(panel.ids())) == 10
        assert panel.index_of(panel[3].snp_id) == 3

    def test_subset(self):
        panel = SnpPanel.synthetic(10)
        sub = panel.subset([2, 5, 7])
        assert sub.ids() == [panel[2].snp_id, panel[5].snp_id, panel[7].snp_id]

    def test_subset_out_of_range(self):
        with pytest.raises(GenomicsError):
            SnpPanel.synthetic(3).subset([5])

    def test_duplicate_ids_rejected(self):
        snp = SnpInfo(snp_id="rs1", chromosome=1, position=5)
        with pytest.raises(GenomicsError):
            SnpPanel([snp, snp])

    def test_unknown_id(self):
        with pytest.raises(GenomicsError):
            SnpPanel.synthetic(3).index_of("rs-nope")

    def test_snp_info_validation(self):
        with pytest.raises(GenomicsError):
            SnpInfo(snp_id="", chromosome=1, position=0)
        with pytest.raises(GenomicsError):
            SnpInfo(snp_id="rs1", chromosome=0, position=0)
        with pytest.raises(GenomicsError):
            SnpInfo(
                snp_id="rs1",
                chromosome=1,
                position=0,
                major_allele="A",
                minor_allele="A",
            )


class TestGenotypeMatrix:
    def test_shape_and_bytes(self):
        matrix = _matrix()
        assert matrix.shape == (20, 12)
        assert matrix.num_individuals == 20
        assert matrix.num_snps == 12
        assert matrix.nbytes == 240
        assert len(matrix) == 20

    def test_rejects_non_binary(self):
        with pytest.raises(GenomicsError):
            GenotypeMatrix(np.full((2, 2), 3, dtype=np.uint8))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(GenomicsError):
            GenotypeMatrix(np.zeros(5, dtype=np.uint8))

    def test_rejects_float(self):
        with pytest.raises(GenomicsError):
            GenotypeMatrix(np.zeros((2, 2), dtype=np.float64))

    def test_accepts_other_int_dtypes(self):
        matrix = GenotypeMatrix(np.ones((2, 2), dtype=np.int32))
        assert matrix.array().dtype == np.uint8

    def test_immutability(self):
        matrix = _matrix()
        with pytest.raises(ValueError):
            matrix.array()[0, 0] = 1

    def test_source_mutation_does_not_leak(self):
        data = np.zeros((2, 2), dtype=np.uint8)
        matrix = GenotypeMatrix(data)
        data[0, 0] = 1
        assert matrix.array()[0, 0] == 0

    def test_equality_and_hash(self):
        a, b = _matrix(seed=5), _matrix(seed=5)
        assert a == b and hash(a) == hash(b)
        assert a != _matrix(seed=6)

    def test_allele_counts(self):
        matrix = _matrix()
        expected = matrix.array().sum(axis=0)
        assert np.array_equal(matrix.allele_counts(), expected)
        assert np.array_equal(matrix.allele_counts([3, 5]), expected[[3, 5]])
        assert matrix.allele_counts().dtype == np.int64

    def test_select_and_split(self):
        matrix = _matrix()
        selected = matrix.select_snps([1, 4])
        assert np.array_equal(selected.array(), matrix.array()[:, [1, 4]])
        rows = matrix.select_individuals([0, 19, 5])
        assert np.array_equal(rows.array(), matrix.array()[[0, 19, 5]])
        with pytest.raises(GenomicsError):
            matrix.select_snps([99])
        with pytest.raises(GenomicsError):
            matrix.select_individuals([99])

    def test_split_stack_roundtrip(self):
        matrix = _matrix()
        parts = matrix.split_rows([7, 6, 7])
        assert [p.num_individuals for p in parts] == [7, 6, 7]
        assert GenotypeMatrix.vstack(parts) == matrix

    def test_split_validation(self):
        matrix = _matrix()
        with pytest.raises(GenomicsError):
            matrix.split_rows([10, 5])
        with pytest.raises(GenomicsError):
            matrix.split_rows([25, -5])

    def test_vstack_validation(self):
        with pytest.raises(GenomicsError):
            GenotypeMatrix.vstack([])
        with pytest.raises(GenomicsError):
            GenotypeMatrix.vstack([_matrix(cols=5), _matrix(cols=6)])

    def test_bytes_roundtrip(self):
        matrix = _matrix()
        assert GenotypeMatrix.from_bytes(matrix.to_bytes(), 12) == matrix
        with pytest.raises(GenomicsError):
            GenotypeMatrix.from_bytes(b"\x00" * 10, 3)
        with pytest.raises(GenomicsError):
            GenotypeMatrix.from_bytes(b"", 0)

    @given(
        rows=st.integers(min_value=1, max_value=30),
        cols=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_invariants_property(self, rows, cols, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        matrix = GenotypeMatrix((rng.random((rows, cols)) < 0.5).astype(np.uint8))
        counts = matrix.allele_counts()
        assert np.all(counts >= 0) and np.all(counts <= rows)
        # Splitting then summing counts equals pooled counts.
        if rows >= 2:
            half = rows // 2
            a, b = matrix.split_rows([half, rows - half])
            assert np.array_equal(
                a.allele_counts() + b.allele_counts(), counts
            )


class TestCohort:
    def test_validation(self):
        panel = SnpPanel.synthetic(12)
        case, control = _matrix(), _matrix(seed=2)
        cohort = Cohort.control_as_reference(panel, case, control)
        assert cohort.reference is control
        assert "Cohort(" in cohort.describe()

    def test_mismatched_panel_rejected(self):
        panel = SnpPanel.synthetic(10)
        with pytest.raises(GenomicsError):
            Cohort.control_as_reference(panel, _matrix(), _matrix())

    def test_empty_case_rejected(self):
        panel = SnpPanel.synthetic(12)
        empty = GenotypeMatrix(np.zeros((0, 12), dtype=np.uint8))
        with pytest.raises(GenomicsError):
            Cohort.control_as_reference(panel, empty, _matrix())


class TestPartition:
    def _cohort(self):
        panel = SnpPanel.synthetic(12)
        return Cohort.control_as_reference(panel, _matrix(rows=21), _matrix(seed=9))

    def test_equal_partition(self):
        datasets = partition_cohort(self._cohort(), 3)
        assert [d.num_case for d in datasets] == [7, 7, 7]
        assert [d.gdo_id for d in datasets] == ["gdo-0", "gdo-1", "gdo-2"]

    def test_uneven_partition(self):
        datasets = partition_cohort(self._cohort(), 4)
        assert sorted(d.num_case for d in datasets) == [5, 5, 5, 6]

    def test_explicit_sizes(self):
        datasets = partition_cohort(self._cohort(), 2, sizes=[20, 1])
        assert [d.num_case for d in datasets] == [20, 1]

    def test_partition_preserves_rows(self):
        cohort = self._cohort()
        datasets = partition_cohort(cohort, 3)
        stacked = GenotypeMatrix.vstack([d.case for d in datasets])
        assert stacked == cohort.case

    def test_shuffle_seed_changes_assignment_not_content(self):
        cohort = self._cohort()
        plain = partition_cohort(cohort, 3)
        shuffled = partition_cohort(cohort, 3, shuffle_seed=1)
        assert plain[0].case != shuffled[0].case
        pooled = GenotypeMatrix.vstack([d.case for d in shuffled])
        assert np.array_equal(
            np.sort(pooled.array().sum(axis=1)),
            np.sort(cohort.case.array().sum(axis=1)),
        )

    def test_validation(self):
        cohort = self._cohort()
        with pytest.raises(PartitionError):
            partition_cohort(cohort, 0)
        with pytest.raises(PartitionError):
            partition_cohort(cohort, 2, sizes=[10, 10])
        with pytest.raises(PartitionError):
            partition_cohort(cohort, 2, sizes=[21, 0])
        with pytest.raises(PartitionError):
            partition_cohort(cohort, 3, sizes=[7, 14])

    def test_equal_partition_sizes_helper(self):
        assert equal_partition_sizes(10, 3) == [4, 3, 3]
        assert equal_partition_sizes(9, 3) == [3, 3, 3]
        assert sum(equal_partition_sizes(17, 5)) == 17
