"""Ablation — cost of data-oblivious execution (paper's future work).

The paper defers an oblivious GenDPR to future work, noting that
"data-oblivious approaches have a significant performance overhead".
This ablation quantifies that overhead on the LR-test selection — the
protocol's most access-pattern-revealing step — by running the plain
greedy and the oblivious fixed-pass variant on the same inputs and
asserting identical decisions.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import render_table
from repro.bench.workloads import PAPER_CASE_FULL, paper_cohort
from repro.core.pipeline import lr_ranking_order, run_local_pipeline
from repro.stats.chisq import rank_pvalues
from repro.stats.lr_test import lr_matrix, select_safe_subset
from repro.tee.oblivious import oblivious_prefix_selection

SNPS = 2_000
ALPHA, BETA = 0.1, 0.9


def test_ablation_oblivious_selection(benchmark, save_result):
    cohort, _ = paper_cohort(PAPER_CASE_FULL, SNPS)
    case = cohort.case.array()
    reference = cohort.reference.array()
    outcome = run_local_pipeline(
        case, reference, maf_cutoff=0.05, ld_cutoff=1e-5, alpha=ALPHA, beta=BETA
    )
    columns = outcome.l_double_prime
    case_freqs = case[:, columns].mean(axis=0)
    ref_freqs = reference[:, columns].mean(axis=0)
    case_lr = lr_matrix(case[:, columns], case_freqs, ref_freqs)
    ref_lr = lr_matrix(reference[:, columns], case_freqs, ref_freqs)
    ranking = rank_pvalues(
        case.sum(axis=0, dtype=np.int64),
        reference.sum(axis=0, dtype=np.int64),
        case.shape[0],
        reference.shape[0],
    )
    order = lr_ranking_order(columns, ranking)

    def run_both():
        begin = time.perf_counter()
        plain = select_safe_subset(case_lr, ref_lr, order, alpha=ALPHA, beta=BETA)
        plain_s = time.perf_counter() - begin
        begin = time.perf_counter()
        mask, power = oblivious_prefix_selection(
            case_lr, ref_lr, np.array(order), alpha=ALPHA, beta=BETA
        )
        oblivious_s = time.perf_counter() - begin
        return plain, mask, power, plain_s, oblivious_s

    plain, mask, power, plain_s, oblivious_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert sorted(np.nonzero(mask)[0].tolist()) == sorted(
        plain.selected_columns
    ), "oblivious execution must not change decisions"
    assert power == plain.power

    slowdown = oblivious_s / max(plain_s, 1e-9)
    table = render_table(
        ["Variant", "Selected", "Seconds", "Slowdown"],
        [
            ["Greedy (protocol)", len(plain.selected_columns), f"{plain_s:.3f}", "1.0x"],
            ["Oblivious fixed-pass", int(mask.sum()), f"{oblivious_s:.3f}", f"{slowdown:.1f}x"],
        ],
    )
    save_result(
        "ablation_oblivious",
        f"Ablation: oblivious LR-test selection (L''={len(columns)}).\n"
        + table
        + "\n(the paper anticipates a significant oblivious-execution "
        "overhead; this measures it)",
    )
