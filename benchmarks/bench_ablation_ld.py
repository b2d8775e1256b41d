"""Ablation — LD-phase communication batching.

The paper's Algorithm 1 exchanges correlation moments per walk
comparison: one request/response round for each (candidate, next)
pair the greedy walk tests.  This implementation fetches every pair
any walk can reach in one round, padded to a public bound of 16 pairs
per walked SNP, and then walks over the leader's moment table.  The
ablation runs the LD-heavy scenario traced, with and without collusion
tolerance, and reports both exchanges:

* per-pair (paper): one single-pair round per pooled lookup the walks
  made, which is the leader's ``ld_pairs_requested`` counter;
* one padded round (measured): ``ld`` rounds, LD wire bytes split
  into the leader's requests and the members' answers, and the padded
  pair rows members computed.

A request carries the walks and their stack depths (8 bytes per walk
and walked SNP), from which members rebuild the pairs; an answer
carries 4 bytes per padded pair row, 16 per walked SNP.  So requests
must total at most half of the answers: explicit pair rows (8 bytes
each) would make them twice the answers.  Decisions must equal the
pooled pipeline's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import (
    PAPER_CASE_FULL,
    PAPER_THRESHOLDS,
    paper_cohort,
    paper_config,
    render_table,
)
from repro.config import CollusionPolicy, ObservabilityConfig
from repro.core.pipeline import run_local_pipeline
from repro.core.protocol import run_study

SNPS = 2_500
MEMBERS = 3
POLICIES = {"f=0": CollusionPolicy.none(), "f=1": CollusionPolicy((1,))}


def _run(cohort, label: str, policy: CollusionPolicy):
    config = paper_config(SNPS, study_id=f"ld-ablation-{label}", collusion=policy)
    config = replace(config, observability=ObservabilityConfig.tracing())
    return run_study(cohort, config, num_members=MEMBERS)


def _ld_bytes(result):
    """LD wire bytes as ``(leader requests, member answers)``."""
    sent = [
        span.attributes
        for span in result.observability.spans
        if span.name == "net.send" and span.attributes["tag"] == "ld"
    ]
    requests = sum(
        s["wire_bytes"] for s in sent if s["sender"] == result.leader_id
    )
    answers = sum(
        s["wire_bytes"] for s in sent if s["sender"] != result.leader_id
    )
    return requests, answers


def test_ablation_ld_batching(benchmark, save_result):
    cohort, _ = paper_cohort(PAPER_CASE_FULL, SNPS)

    def run_all():
        return {
            label: _run(cohort, label, policy) for label, policy in POLICIES.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for label, result in results.items():
        counters = result.observability.metrics["counters"]
        comparisons = counters["enclave.ld_pairs_requested"]
        rounds = result.ocall_rounds.get("ld", 0)
        requests, answers = _ld_bytes(result)
        rows.append(
            [label, "per-pair (paper)", comparisons, "-", "-", "-", comparisons]
        )
        rows.append(
            [
                label,
                "one padded round",
                rounds,
                requests + answers,
                requests,
                answers,
                counters["enclave.ld_pairs_fetched"],
            ]
        )
        # One planned round, plus any a union beyond the bound took.
        assert rounds == 1 + counters["enclave.ld_overflow_rounds"]
        assert comparisons > rounds
        # Walks and depths on the wire, not pair lists.
        assert 2 * requests <= answers, (label, requests, answers)
    save_result(
        "ablation_ld",
        "Ablation: LD-phase exchange, per-pair rounds vs one padded round "
        f"({SNPS} SNPs, {MEMBERS} GDOs; decisions identical).\n"
        + render_table(
            [
                "Policy",
                "Exchange",
                "LD rounds",
                "LD bytes",
                "Requests",
                "Answers",
                "Pairs sent",
            ],
            rows,
        ),
    )
    pooled = run_local_pipeline(
        cohort.case.array(),
        cohort.reference.array(),
        maf_cutoff=PAPER_THRESHOLDS.maf_cutoff,
        ld_cutoff=PAPER_THRESHOLDS.ld_cutoff,
        alpha=PAPER_THRESHOLDS.false_positive_rate,
        beta=PAPER_THRESHOLDS.power_threshold,
    )
    assert results["f=0"].l_double_prime == pooled.l_double_prime
