"""LD request frames carry the walks, not the pairs, so their sizes
follow public lengths.

Every ``ld`` request and every moments shard task carries each walked
SNP list and its candidate-stack depths, padded to ``m = max(|L'|,
|L'_plain|)``: one size per study, growing by 8 bytes per walk and per
unit of ``m`` (two int32 vectors per walk), whatever the private
ranking made of the reachable pair set.
"""

from __future__ import annotations

import pytest

from repro.config import (
    CollusionPolicy,
    ObservabilityConfig,
    ShardingConfig,
    StudyConfig,
)
from repro.core.pipeline import run_local_pipeline
from repro.core.protocol import run_study
from repro.genomics.synthetic import SyntheticSpec, generate_cohort

SNPS = 300
MEMBERS = 4
COHORT_SEEDS = (1, 2)


def _plain_l_prime(cohort, thresholds) -> int:
    """``m``: the plain track's ``L'`` contains the intersected one."""
    return len(
        run_local_pipeline(
            cohort.case.array(),
            cohort.reference.array(),
            maf_cutoff=thresholds.maf_cutoff,
            ld_cutoff=thresholds.ld_cutoff,
            alpha=thresholds.false_positive_rate,
            beta=thresholds.power_threshold,
        ).l_prime
    )


def _leader_frames(result, tag: str) -> set:
    return {
        span.attributes["wire_bytes"]
        for span in result.observability.spans
        if span.name == "net.send"
        and span.attributes["tag"] == tag
        and span.attributes["sender"] == result.leader_id
    }


@pytest.mark.parametrize("f", [0, 1])
@pytest.mark.parametrize("shards", [1, 4])
def test_one_frame_size_fixed_by_m_and_walk_count(f, shards):
    config = StudyConfig(
        snp_count=SNPS,
        seed=5,
        study_id="ld-walk-frames",
        collusion=CollusionPolicy((f,)) if f else CollusionPolicy.none(),
        sharding=ShardingConfig.over(shards),
        observability=ObservabilityConfig.tracing(),
    )
    walks = 2 if f else 1
    offsets = set()
    widths = set()
    for seed in COHORT_SEEDS:
        cohort, _truth = generate_cohort(
            SyntheticSpec(num_snps=SNPS, num_case=240, num_control=200, seed=seed)
        )
        result = run_study(cohort, config, MEMBERS)
        if shards == 1:
            sizes = _leader_frames(result, "ld")
            assert len(sizes) == 1, sizes
        else:
            # Counts tasks carry no walks; every moments task carries
            # the same walks, whichever shard it opens.
            assert not _leader_frames(result, "ld")
            sizes = _leader_frames(result, "shard-task")
            assert len(sizes) == 2, sizes
        width = _plain_l_prime(cohort, config.thresholds)
        widths.add(width)
        offsets.add(max(sizes) - 8 * walks * width)
    assert len(widths) == 2, "the cohorts should differ in m"
    assert len(offsets) == 1, offsets
