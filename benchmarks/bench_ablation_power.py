"""Ablation — empirical vs analytical LR-test power.

GenDPR (like SecureGenome) selects the safe subset with an *empirical*
power estimate: LR scores of actual case/reference individuals.  A
cheaper design would use the closed-form normal approximation of
:mod:`repro.stats.power` over the frequency vectors alone.  This
ablation compares the two selectors' outputs and cost on the paper's
largest scenario, quantifying what the empirical search buys: the
analytical selector needs no LR-matrix exchange at all but trusts the
CLT on exactly the borderline subsets where decisions matter.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import render_table
from repro.bench.workloads import PAPER_CASE_FULL, paper_cohort
from repro.core.pipeline import lr_ranking_order, run_local_pipeline
from repro.stats.chisq import rank_pvalues
from repro.stats.lr_test import lr_matrix, select_safe_subset
from repro.stats.power import select_safe_subset_analytical

SNPS = 5_000
ALPHA, BETA = 0.1, 0.9


def test_ablation_empirical_vs_analytical_power(benchmark, save_result):
    cohort, _ = paper_cohort(PAPER_CASE_FULL, SNPS)
    case = cohort.case.array()
    reference = cohort.reference.array()
    outcome = run_local_pipeline(
        case, reference, maf_cutoff=0.05, ld_cutoff=1e-5, alpha=ALPHA, beta=BETA
    )
    columns = outcome.l_double_prime
    n_case, n_ref = case.shape[0], reference.shape[0]
    case_freqs = case[:, columns].sum(axis=0) / n_case
    ref_freqs = reference[:, columns].sum(axis=0) / n_ref
    ranking = rank_pvalues(
        case.sum(axis=0, dtype=np.int64),
        reference.sum(axis=0, dtype=np.int64),
        n_case,
        n_ref,
    )
    order = lr_ranking_order(columns, ranking)

    def run_both():
        begin = time.perf_counter()
        case_lr = lr_matrix(case[:, columns], case_freqs, ref_freqs)
        ref_lr = lr_matrix(reference[:, columns], case_freqs, ref_freqs)
        empirical = select_safe_subset(
            case_lr, ref_lr, order, alpha=ALPHA, beta=BETA
        )
        empirical_s = time.perf_counter() - begin
        begin = time.perf_counter()
        analytical = select_safe_subset_analytical(
            case_freqs, ref_freqs, order, alpha=ALPHA, beta=BETA
        )
        analytical_s = time.perf_counter() - begin
        return empirical, analytical, empirical_s, analytical_s

    empirical, analytical, emp_s, ana_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    emp_set = {columns[c] for c in empirical.selected_columns}
    ana_set = {columns[c] for c in analytical}
    overlap = len(emp_set & ana_set)
    table = render_table(
        ["Selector", "Selected", "Overlap", "Seconds"],
        [
            ["Empirical (protocol)", len(emp_set), overlap, f"{emp_s:.3f}"],
            ["Analytical (ablation)", len(ana_set), overlap, f"{ana_s:.3f}"],
        ],
    )
    save_result(
        "ablation_power",
        "Ablation: empirical vs analytical LR-test selection "
        f"(L''={len(columns)}).\n" + table,
    )
    assert emp_set, "empirical selector must retain something"
    # The analytical approximation must agree on the clear majority.
    assert overlap >= 0.5 * min(len(emp_set), len(ana_set))
