"""Figures 5a/5b — running time comparison at 1,000 SNPs.

Paper: per-task running time (Data Aggregation, Indexing/Sorting/
AlleleFreq., LD analysis, LR-test analysis) of the centralized baseline
vs GenDPR with 2/3/5/7 GDOs, for 7,430 (5a) and 14,860 (5b) case
genomes over 1,000 SNPs.  Expected shape: GenDPR is comparable to (and
with more GDOs faster than) the centralized run, the LR-test dominates,
and doubling the genomes roughly doubles the time.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import render_runtime_figure
from repro.bench.runner import centralized_row, gendpr_row
from repro.bench.workloads import (
    PAPER_CASE_FULL,
    PAPER_CASE_HALF,
    PAPER_GDO_COUNTS,
    bench_scale,
    paper_cohort,
)

SNPS = 1_000


@pytest.mark.parametrize(
    "figure,case_size",
    [("fig5a", PAPER_CASE_HALF), ("fig5b", PAPER_CASE_FULL)],
)
def test_fig5_running_time(benchmark, save_result, results_dir, figure, case_size):
    cohort, _ = paper_cohort(case_size, SNPS)
    # One configuration per figure also runs traced, leaving the
    # machine-readable RunReport next to the rendered table; the row
    # contents (and therefore the printed figure) are unchanged.
    report_path = str(results_dir / f"{figure}_gendpr3_runreport.json")

    def run_all():
        rows = [centralized_row(cohort, SNPS, 3)]
        rows += [
            gendpr_row(
                cohort, SNPS, g,
                report_path=report_path if g == 3 else None,
            )
            for g in PAPER_GDO_COUNTS
        ]
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    caption = (
        f"Figure {figure[-2:]}: {cohort.case.num_individuals:,} genomes / "
        f"{SNPS:,} SNPs (scale={bench_scale()})"
    )
    save_result(figure, render_runtime_figure(rows, caption))

    central = rows[0]
    for row in rows[1:]:
        # Paper shape: the distributed protocol stays within a small
        # factor of the centralized baseline despite coordinating many
        # enclaves over encrypted channels.
        assert row["model_ms"] < 25 * max(central["model_ms"], 1.0)
    benchmark.extra_info["rows"] = rows
