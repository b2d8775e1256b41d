"""Runtime taint-tag cross-check against the static flow analysis.

The dynamic half of R6-R8: genotype columns leaving sealed storage are
tagged at the source, release/observation points are instrumented, and
every observed escape must map onto a statically-known declassification
site (R8's inventory).  The acceptance bar is **zero** statically
unknown escapes over a real sealed-storage workload.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.lint.config import load_config
from repro.lint.engine import run_lint
from repro.lint.flow.runtime import (
    EscapeRecord,
    TaintMonitor,
    TaintedArray,
    TaintedColumnReader,
    taint_array,
    taint_of,
    unknown_escapes,
)
from repro.tee.enclave import Enclave, ecall
from repro.tee.storage import ColumnReader, seal_matrix

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_KEY = bytes(range(32))


class DataEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        return None


@pytest.fixture()
def enclave():
    return DataEnclave(_KEY, "flow-runtime-test")


@pytest.fixture(scope="module")
def inventory():
    """The real declassification inventory from the static analysis."""
    config = load_config(REPO_ROOT / "lint.toml").with_flow(True)
    result = run_lint([REPO_ROOT / "src" / "repro"], config)
    entries = result.artifacts["declassifications"]
    assert entries, "static inventory must not be empty"
    return entries


def _matrix(rows=20, cols=12, seed=7):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random((rows, cols)) < 0.3).astype(np.uint8)


class TestTaintedArray:
    def test_tag_survives_views_and_slices(self):
        arr = taint_array(np.arange(12), ["genotype"], "test")
        assert isinstance(arr, TaintedArray)
        assert taint_of(arr) == {"genotype"}
        assert taint_of(arr[3:7]) == {"genotype"}
        assert taint_of(arr.reshape(3, 4)) == {"genotype"}

    def test_tag_survives_ufuncs(self):
        arr = taint_array(np.arange(6, dtype=np.float64), ["key"], "test")
        assert taint_of(arr + 1.0) == {"key"}
        assert taint_of(arr * arr) == {"key"}
        assert taint_of(np.sqrt(arr)) == {"key"}

    def test_untagged_arrays_are_clean(self):
        assert taint_of(np.arange(4)) == frozenset()
        assert taint_of(np.arange(4).view(TaintedArray)) == frozenset()

    def test_taint_of_recurses_containers(self):
        arr = taint_array(np.arange(3), ["sealed"], "test")
        assert taint_of([arr, np.arange(2)]) == {"sealed"}
        assert taint_of({"a": (arr,)}) == {"sealed"}
        assert taint_of([1, "x", None]) == frozenset()


class TestTaintMonitor:
    def test_probe_records_only_tagged_values(self):
        monitor = TaintMonitor()
        tagged = taint_array(np.arange(3), ["genotype"], "store")
        monitor.probe("stdout", np.arange(3))
        monitor.probe("stdout", tagged)
        escapes = monitor.escapes()
        assert len(escapes) == 1
        assert escapes[0].sink == "stdout"
        assert escapes[0].kinds == {"genotype"}
        assert escapes[0].origin == "store"
        assert monitor.probe_counts() == {"stdout": 2}

    def test_instrument_wraps_and_restores(self):
        class Sink:
            def emit(self, value):
                return "emitted"

        monitor = TaintMonitor()
        restore = monitor.instrument(Sink, "emit", sink="report")
        sink = Sink()
        tagged = taint_array(np.arange(3), ["phenotype"], "panel")
        assert sink.emit(tagged) == "emitted"
        assert sink.emit(np.arange(3)) == "emitted"
        restore()
        sink.emit(tagged)  # after restore: not recorded
        escapes = monitor.escapes()
        assert len(escapes) == 1
        assert escapes[0].sink == "report"
        assert monitor.probe_counts() == {"report": 2}

    def test_reset_clears_state(self):
        monitor = TaintMonitor()
        monitor.probe("x", taint_array(np.arange(2), ["key"], "k"))
        monitor.reset()
        assert monitor.escapes() == []
        assert monitor.probe_counts() == {}


class TestTaintedColumnReader:
    def test_columns_leave_storage_tagged(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "flowtag", chunk_bytes=20 * 4)
        with TaintedColumnReader(ColumnReader(enclave, store)) as reader:
            assert reader.num_rows == 20
            assert reader.num_cols == 12
            col = reader.column(3)
            assert isinstance(col, TaintedArray)
            assert taint_of(col) == {"genotype", "sealed"}
            np.testing.assert_array_equal(np.asarray(col), data[:, 3])
            sums = reader.column_sums()
            assert taint_of(sums) == {"genotype", "sealed"}
            for _start, chunk in reader.iter_chunks():
                assert taint_of(chunk) == {"genotype", "sealed"}

    def test_packed_gather_leaves_storage_tagged(self, enclave):
        """The LD kernel's bit-packed gather is a genotype source too."""
        data = _matrix()
        store = seal_matrix(enclave, data, "flowtag-packed", chunk_bytes=20 * 4)
        with TaintedColumnReader(ColumnReader(enclave, store)) as reader:
            words = reader.packed_columns([3, 0, 11])
            assert isinstance(words, TaintedArray)
            assert taint_of(words) == {"genotype", "sealed"}

    def test_derived_values_stay_tagged(self, enclave):
        data = _matrix()
        store = seal_matrix(enclave, data, "flowtag2")
        with TaintedColumnReader(ColumnReader(enclave, store)) as reader:
            counts = reader.column(0).astype(np.float64)
            maf = counts.sum() / (2.0 * len(counts))
            # Scalar reductions on tagged arrays keep the provenance.
            assert taint_of(np.asarray(maf)) in (
                {"genotype", "sealed"},
                frozenset(),  # numpy may return a plain scalar
            )


class TestCrossCheck:
    """Observed escapes vs. the statically-known release surface."""

    def test_sanctioned_workload_has_zero_unknown_escapes(
        self, enclave, inventory
    ):
        monitor = TaintMonitor()
        data = _matrix()
        store = seal_matrix(enclave, data, "workload")
        with TaintedColumnReader(
            ColumnReader(enclave, store), monitor
        ) as reader:
            total = np.asarray(reader.column_sums()).sum()
            # The only release: sealed back up (a sanctioned sink) —
            # sealing takes bytes, which drop the tag by construction.
            from repro.tee.sealing import seal

            restore = monitor.instrument(
                type(enclave), "noop", sink="release"
            )
            try:
                seal(enclave, bytes([int(total) % 256]), "result")
                enclave.noop()
            finally:
                restore()
        assert monitor.escapes() == []
        assert unknown_escapes(monitor.escapes(), inventory) == []

    def test_escape_at_inventoried_site_is_known(self, inventory):
        entry = inventory[0]
        known = EscapeRecord(
            sink="release",
            kinds=frozenset({"genotype"}),
            origin="store",
            stack=(
                (str(entry["path"]), int(entry["line"]), "run"),
            ),
        )
        assert unknown_escapes([known], inventory) == []

    def test_injected_leak_is_reported_unknown(self, inventory):
        monitor = TaintMonitor()
        tagged = taint_array(np.arange(4), ["genotype"], "store")
        monitor.probe("stdout", tagged)
        unknown = unknown_escapes(monitor.escapes(), inventory)
        assert len(unknown) == 1
        assert unknown[0].kinds == {"genotype"}

    def test_unknown_escapes_matches_by_basename_and_line(self):
        inventory = [{"path": "src/repro/core/protocol.py", "line": 42}]
        hit = EscapeRecord(
            sink="s",
            kinds=frozenset({"key"}),
            origin="o",
            stack=(("/abs/elsewhere/protocol.py", 42, "f"),),
        )
        miss = EscapeRecord(
            sink="s",
            kinds=frozenset({"key"}),
            origin="o",
            stack=(("/abs/elsewhere/protocol.py", 43, "f"),),
        )
        assert unknown_escapes([hit, miss], inventory) == [miss]
