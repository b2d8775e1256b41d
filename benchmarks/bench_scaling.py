"""Scaling — running time vs cohort size (paper Section 7.2's claim).

"We claim that GenDPR is scalable since doubling the number of genomes
considered at first (7,430) or considering 10 times more SNPs in a
study have not rendered GenDPR unusable."

This bench sweeps the genome count at a fixed panel and reports total
running time; the expected shape is (sub-)linear growth — the phase
work is dominated by count/moment/matrix operations linear in
genomes × retained SNPs.
"""

from __future__ import annotations

from repro.bench.reporting import render_table
from repro.bench.workloads import paper_cohort, paper_config
from repro.core.protocol import run_study

SNPS = 2_000
#: Paper-scale genome counts to sweep (scaled by REPRO_BENCH_SCALE).
GENOME_SWEEP = (3_715, 7_430, 14_860, 29_720)


def test_scaling_in_genomes(benchmark, save_result):
    def run_all():
        rows = []
        for genomes in GENOME_SWEEP:
            cohort, _ = paper_cohort(genomes, SNPS)
            result = run_study(
                cohort,
                paper_config(SNPS, study_id=f"scale-{genomes}"),
                3,
            )
            rows.append(
                (
                    cohort.case.num_individuals,
                    result.retained_after_ld,
                    result.timings.total_seconds * 1000.0,
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = render_table(
        ["Case genomes", "LD retained", "Total (ms)"],
        [[f"{g:,}", ld, f"{ms:,.1f}"] for g, ld, ms in rows],
    )
    save_result(
        "scaling_genomes",
        f"Scaling: running time vs cohort size ({SNPS:,} SNPs, 3 GDOs).\n"
        + table,
    )
    # Shape: 8x more genomes must not cost more than ~20x the time
    # (the paper observes near-proportional growth).
    smallest, largest = rows[0][2], rows[-1][2]
    assert largest < 20 * max(smallest, 1.0)
