"""Figures 6a/6b — running time comparison at 10,000 SNPs.

Same deployments as Figure 5 but with a 10x larger SNP panel; the paper
observes roughly proportional growth (LD/LR work scales with the number
of retained SNPs) while GenDPR remains usable and benefits from work
distribution as GDOs are added.
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

SNPS = 10_000


@pytest.mark.parametrize(
    "figure,case_size",
    [("fig6a", PAPER_CASE_HALF), ("fig6b", PAPER_CASE_FULL)],
)
def test_fig6_running_time(benchmark, save_result, figure, case_size):
    cohort, _ = paper_cohort(case_size, SNPS)

    def run_all():
        rows = [centralized_row(cohort, SNPS, 3)]
        rows += [gendpr_row(cohort, SNPS, g) for g in PAPER_GDO_COUNTS]
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    caption = (
        f"Figure {figure[-2:]}: {cohort.case.num_individuals:,} genomes / "
        f"{SNPS:,} SNPs (scale={bench_scale()})"
    )
    save_result(figure, render_runtime_figure(rows, caption))
    benchmark.extra_info["rows"] = rows
