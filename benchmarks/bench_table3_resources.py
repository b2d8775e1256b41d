"""Table 3 — GenDPR's average resource utilization.

Paper: for {2, 3, 5, 7} GDOs x {1,000, 10,000} SNPs, every
configuration uses < 1% CPU and ~2 MB of enclave memory, and members
exchange 4 * L_des bytes of counts (+ ~30% encryption overhead) instead
of full genomes.

This bench runs the same eight configurations (full 14,860-genome
cohort, scaled by REPRO_BENCH_SCALE) and reports the metered enclave
CPU utilization, peak trusted memory, and actual network traffic.
"""

from __future__ import annotations

from repro.bench.reporting import render_resource_table
from repro.bench.runner import gendpr_row
from repro.bench.workloads import PAPER_CASE_FULL, bench_scale, paper_cohort

CONFIGS = [(gdos, snps) for gdos in (2, 3, 5, 7) for snps in (1_000, 10_000)]


def test_table3_resource_utilization(benchmark, save_result):
    def run_all():
        rows = []
        for gdos, snps in CONFIGS:
            cohort, _ = paper_cohort(PAPER_CASE_FULL, snps)
            rows.append(gendpr_row(cohort, snps, gdos))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    caption = (
        f"(scale={bench_scale()}; paper: <1% CPU, ~2,100 KB for every "
        f"configuration)"
    )
    save_result("table3_resources", render_resource_table(rows) + "\n" + caption)

    for row in rows:
        # Paper shape: enclave memory stays in the low-megabyte range and
        # does not grow with the SNP-panel size the way pooled genomes
        # would (genome pooling would need genomes x SNPs bytes).
        pooled_bytes = row["genomes"] * row["snps"]
        assert row["peak_memory_kib"] * 1024 < max(
            pooled_bytes, 64 * 1024 * 1024
        ), "enclave memory must stay below genome-pooling scale"
    benchmark.extra_info["rows"] = [
        {k: v for k, v in row.items() if not isinstance(v, dict)} for row in rows
    ]
