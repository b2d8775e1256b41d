"""Table 4 — correctness and effectiveness of the SNP selection.

Paper: for {7,430, 14,860} genomes x {1,000, 2,500, 5,000, 10,000}
SNPs, GenDPR retains *exactly* the same SNPs as the centralized
SecureGenome baseline after every phase, while the naive distributed
scheme matches only the MAF phase and then selects smaller, partly
disjoint LD/LR sets (the bold rows of the paper's table).

This bench reproduces all eight rows for the three systems and asserts
the two headline properties.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import render_selection_table
from repro.bench.runner import centralized_row, gendpr_row, naive_row
from repro.bench.workloads import (
    PAPER_CASE_FULL,
    PAPER_CASE_HALF,
    bench_scale,
    paper_cohort,
)

SNP_COUNTS = (1_000, 2_500, 5_000, 10_000)


@pytest.mark.parametrize("case_size", [PAPER_CASE_HALF, PAPER_CASE_FULL])
def test_table4_selection(benchmark, save_result, case_size):
    def run_all():
        rows = []
        for snps in SNP_COUNTS:
            cohort, _ = paper_cohort(case_size, snps)
            rows.append(centralized_row(cohort, snps, 3))
            rows.append(gendpr_row(cohort, snps, 3))
            rows.append(naive_row(cohort, snps, 3))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    name = f"table4_{case_size}genomes"
    save_result(
        name,
        render_selection_table(rows)
        + f"\n(case genomes: {rows[0]['genomes']:,}, scale={bench_scale()})",
    )

    by_snps = {}
    for row in rows:
        by_snps.setdefault(row["snps"], {})[row["system"]] = row
    for snps, systems in by_snps.items():
        central, gendpr = systems["Centralized"], systems["GenDPR"]
        naive = systems["Naive distributed"]
        # Headline claim: GenDPR == centralized at every phase.
        assert (central["maf"], central["ld"], central["lr"]) == (
            gendpr["maf"],
            gendpr["ld"],
            gendpr["lr"],
        ), f"GenDPR diverged from centralized at {snps} SNPs"
        # Naive matches MAF but under-selects once LD/LR need global data.
        assert naive["ld"] <= gendpr["ld"]
    benchmark.extra_info["rows"] = rows
