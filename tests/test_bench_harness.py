"""Benchmark harness: workloads, runners and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import (
    render_collusion_table,
    render_resource_table,
    render_runtime_figure,
    render_selection_table,
    render_table,
)
from repro.bench.runner import centralized_row, collusion_row, gendpr_row, naive_row
from repro.bench.workloads import (
    PAPER_THRESHOLDS,
    bench_scale,
    paper_cohort,
    paper_config,
    scaled,
)
from repro.core.timing import ALL_LABELS


@pytest.fixture(scope="module")
def tiny_cohort():
    # A very small "paper" cohort: scale chosen so tests stay fast.
    cohort, truth = paper_cohort(7_430, 200, scale=0.04, seed=5)
    return cohort


class TestWorkloads:
    def test_scaled_floors_at_fifty(self):
        assert scaled(10, 0.001) == 50
        assert scaled(14_860, 0.1) == 1486

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25

    def test_cohort_cached(self):
        one, _ = paper_cohort(7_430, 200, scale=0.04, seed=5)
        two, _ = paper_cohort(7_430, 200, scale=0.04, seed=5)
        assert one is two

    def test_cohort_cache_keys_on_seed(self):
        five, _ = paper_cohort(7_430, 200, scale=0.04, seed=5)
        six, _ = paper_cohort(7_430, 200, scale=0.04, seed=6)
        assert six is not five
        assert not np.array_equal(six.case.array(), five.case.array())
        assert paper_cohort(7_430, 200, scale=0.04, seed=6)[0] is six
        assert paper_cohort(7_430, 200, scale=0.04, seed=5)[0] is five

    def test_paper_config_thresholds(self):
        config = paper_config(200, study_id="x")
        assert config.thresholds == PAPER_THRESHOLDS


class TestRunners:
    def test_gendpr_row_fields(self, tiny_cohort):
        row = gendpr_row(tiny_cohort, 200, 2)
        assert row["system"] == "GenDPR"
        assert row["maf"] >= row["ld"] >= row["lr"] >= 0
        assert row["model_ms"] > 0
        assert row["network_bytes"] > 0
        for label in ALL_LABELS:
            assert row[label] >= 0

    def test_centralized_row_fields(self, tiny_cohort):
        row = centralized_row(tiny_cohort, 200, 2)
        assert row["system"] == "Centralized"
        assert row["network_bytes"] >= tiny_cohort.case.nbytes

    def test_rows_agree_on_selection(self, tiny_cohort):
        gendpr = gendpr_row(tiny_cohort, 200, 2)
        central = centralized_row(tiny_cohort, 200, 2)
        assert (gendpr["maf"], gendpr["ld"], gendpr["lr"]) == (
            central["maf"],
            central["ld"],
            central["lr"],
        )

    def test_naive_row_fields(self, tiny_cohort):
        row = naive_row(tiny_cohort, 200, 2)
        assert row["system"] == "Naive distributed"
        assert row["maf"] >= row["ld"]

    def test_collusion_row_fields(self, tiny_cohort):
        row = collusion_row(tiny_cohort, 200, 3, [1])
        assert row["setting"] == "G = 3, f=1"
        assert row["combinations"] == 3
        assert 0 <= row["vulnerable_pct"] <= 100 or row["f0_safe"] == 0


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["A", "Bee"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        assert set(lines[1]) <= {"-", " "}

    def test_render_resource_table(self, tiny_cohort):
        rows = [gendpr_row(tiny_cohort, 200, 2)]
        text = render_resource_table(rows)
        assert "Table 3" in text and "2 GDOs / 200 SNPs" in text

    def test_render_runtime_figure(self, tiny_cohort):
        rows = [centralized_row(tiny_cohort, 200, 2), gendpr_row(tiny_cohort, 200, 2)]
        text = render_runtime_figure(rows, "Figure X")
        assert "Centralized" in text and "2 GDOs" in text

    def test_render_selection_table(self, tiny_cohort):
        rows = [
            centralized_row(tiny_cohort, 200, 2),
            gendpr_row(tiny_cohort, 200, 2),
            naive_row(tiny_cohort, 200, 2),
        ]
        text = render_selection_table(rows)
        assert "Table 4" in text
        assert "MAF" in text and "Naive distributed" in text

    def test_render_collusion_table(self, tiny_cohort):
        rows = [collusion_row(tiny_cohort, 200, 3, [1])]
        text = render_collusion_table(rows)
        assert "Table 5" in text and "G = 3, f=1" in text
