"""What the host sees of a study, as a checked property.

The untrusted hosts route every frame: they cannot read one, but they
see its sender, receiver, tag and size.  The LD phase fetches every
pair the greedy walk can reach, and that set is shaped by the private
chi-squared ranking, so its frames are padded to a bound computed from
the released retained sets alone.

A neighbouring cohort is the same cohort with one case individual
replaced by the control individual of the same index.  Whenever a
neighbour's released sets equal the original's, the host must see the
same multiset of ``(tag, sender, receiver, wire_bytes)`` over every
``net.send`` frame of the study, whatever its tag.  Multisets, because
parallel fan-out may reorder sends.  The configurations cover flat and
sharded studies, f = 0 and f = 1, sequential and parallel fan-out, and
the hardened deployment (sharded, parallel, supervised, integrity on).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    CollusionPolicy,
    ExecutionConfig,
    IntegrityConfig,
    ObservabilityConfig,
    ResilienceConfig,
    ShardingConfig,
    StudyConfig,
)
from repro.core.pipeline import run_local_pipeline
from repro.core.protocol import run_study
from repro.genomics.genotype import GenotypeMatrix
from repro.genomics.synthetic import SyntheticSpec, generate_cohort
from repro.stats import chisq, ld

SNPS = 300
MEMBERS = 4
COHORT_SEEDS = (1, 2)
#: Neighbours per cohort: the first rows whose swap keeps the pooled
#: pipeline's release (the distributed premise is asserted separately).
NEIGHBOURS = 2
CONFIGS = {
    "flat-f0": {},
    "flat-f1": {"collusion": CollusionPolicy((1,))},
    "flat-f1-parallel": {
        "collusion": CollusionPolicy((1,)),
        "execution": ExecutionConfig.parallel(max_workers=2),
    },
    "sharded-f1": {
        "collusion": CollusionPolicy((1,)),
        "sharding": ShardingConfig.over(2),
    },
    "hardened-f1": {
        "collusion": CollusionPolicy((1,)),
        "sharding": ShardingConfig.over(2),
        "execution": ExecutionConfig.parallel(max_workers=2),
        "resilience": ResilienceConfig.supervised(),
        "integrity": IntegrityConfig.on(),
    },
}
THRESHOLDS = StudyConfig(snp_count=SNPS).thresholds


def _local(cohort):
    return run_local_pipeline(
        cohort.case.array(),
        cohort.reference.array(),
        maf_cutoff=THRESHOLDS.maf_cutoff,
        ld_cutoff=THRESHOLDS.ld_cutoff,
        alpha=THRESHOLDS.false_positive_rate,
        beta=THRESHOLDS.power_threshold,
    )


def _neighbour(cohort, row: int):
    case = cohort.case.array().copy()
    case[row] = cohort.control.array()[row]
    return replace(cohort, case=GenotypeMatrix(case))


def _host_view(result) -> Counter:
    return Counter(
        (
            span.attributes["tag"],
            span.attributes["sender"],
            span.attributes["receiver"],
            span.attributes["wire_bytes"],
        )
        for span in result.observability.spans
        if span.name == "net.send"
    )


def _sets(outcome):
    return (
        list(outcome.l_prime),
        list(outcome.l_double_prime),
        list(outcome.l_safe),
    )


def _released(result, local):
    """Every set the study publishes, plus the plain track's L'."""
    return _sets(result) + (list(local.l_prime),)


def _unpadded_pairs(cohort, result, local) -> int:
    """Size of the reachable pair union the LD frames would carry
    without padding."""
    case, reference = cohort.case.array(), cohort.reference.array()
    ranking = chisq.rank_pvalues(
        case.sum(axis=0), reference.sum(axis=0), case.shape[0], reference.shape[0]
    )
    walks = (result.l_prime, local.l_prime)
    pairs = np.concatenate([ld.reachable_pairs(w, ranking) for w in walks])
    return len(np.unique(pairs, axis=0))


@pytest.fixture(scope="module")
def cohorts():
    """``(original, [neighbours])`` per cohort seed."""
    out = []
    for seed in COHORT_SEEDS:
        base, _truth = generate_cohort(
            SyntheticSpec(
                num_snps=SNPS, num_case=240, num_control=200, seed=seed
            )
        )
        released = _sets(_local(base))
        neighbours = []
        for row in range(base.case.num_individuals):
            candidate = _neighbour(base, row)
            if _sets(_local(candidate)) == released:
                neighbours.append(candidate)
            if len(neighbours) == NEIGHBOURS:
                break
        out.append((base, neighbours))
    return out


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def runs(request, cohorts):
    """``(config name, [(original, neighbour)])``; each side is
    ``(cohort, study result, pooled pipeline outcome)``."""
    config = StudyConfig(
        snp_count=SNPS,
        seed=5,
        study_id="host-view",
        observability=ObservabilityConfig.tracing(),
        **CONFIGS[request.param],
    )

    def run(cohort):
        return cohort, run_study(cohort, config, MEMBERS), _local(cohort)

    pairs = []
    for base, neighbours in cohorts:
        original = run(base)
        pairs.extend((original, run(neighbour)) for neighbour in neighbours)
    return request.param, pairs


def _premise_pairs(pairs):
    return [
        (a, b)
        for a, b in pairs
        if _released(a[1], a[2]) == _released(b[1], b[2])
    ]


def test_equal_release_means_equal_host_view(runs):
    name, pairs = runs
    equal = _premise_pairs(pairs)
    assert equal, f"{name}: no neighbour kept the released sets"
    for (_, original, _), (_, neighbour, _) in equal:
        view = _host_view(original)
        assert {"ld", "shard-task"} & {tag for tag, *_ in view}, (
            f"{name}: no LD frames traced"
        )
        assert _host_view(neighbour) == view


def test_padding_is_load_bearing(runs):
    """Unpadded, the LD frames would differ between some neighbours
    with equal releases: the reachable pair count tracks the ranking."""
    name, pairs = runs
    sizes = {
        (_unpadded_pairs(*a), _unpadded_pairs(*b)) for a, b in _premise_pairs(pairs)
    }
    assert any(left != right for left, right in sizes), name


def test_ld_takes_one_flat_round_or_none_when_sharded(runs):
    name, pairs = runs
    expected = 0 if "sharding" in CONFIGS[name] else 1
    for pair in pairs:
        for _cohort, result, _local_outcome in pair:
            assert result.ocall_rounds.get("ld", 0) == expected
