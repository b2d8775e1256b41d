"""Property-based whole-protocol equivalence.

The single most important invariant of the reproduction — the
distributed protocol computes exactly the centralized verdict — checked
over *randomly generated* cohorts and federation shapes, not just the
fixtures.  Cohort sizes are kept small so the property suite stays
fast; the structure being tested is size-independent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StudyConfig, run_study
from repro.core.pipeline import run_local_pipeline
from repro.fuzz.oracle import study_decisions
from repro.genomics import SyntheticSpec, generate_cohort
from repro.serve import FederationService, ServiceConfig

_THRESHOLD_KWARGS = dict(
    maf_cutoff=0.05, ld_cutoff=1e-5, alpha=0.1, beta=0.9
)


@st.composite
def cohort_shapes(draw):
    return dict(
        num_snps=draw(st.integers(min_value=12, max_value=60)),
        num_case=draw(st.integers(min_value=20, max_value=90)),
        num_control=draw(st.integers(min_value=20, max_value=90)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        ld_block_mean_length=draw(st.sampled_from([2.0, 6.0, 12.0])),
        case_drift_sd=draw(st.sampled_from([0.0, 0.05, 0.15])),
        num_members=draw(st.integers(min_value=2, max_value=4)),
    )


@given(cohort_shapes())
@settings(max_examples=12, deadline=None)
def test_distributed_equals_centralized_property(shape):
    num_members = shape.pop("num_members")
    if shape["num_case"] < num_members:
        num_members = shape["num_case"]
    cohort, _ = generate_cohort(SyntheticSpec(**shape))
    config = StudyConfig(
        snp_count=shape["num_snps"],
        seed=shape["seed"],
        study_id=f"prop-{shape['seed']}",
    )
    result = run_study(cohort, config, num_members)
    oracle = run_local_pipeline(
        cohort.case.array(), cohort.reference.array(), **_THRESHOLD_KWARGS
    )
    assert result.l_prime == oracle.l_prime
    assert result.l_double_prime == oracle.l_double_prime
    assert result.l_safe == oracle.l_safe
    # Monotonicity and bounds always hold.
    assert set(result.l_safe) <= set(result.l_double_prime)
    assert set(result.l_double_prime) <= set(result.l_prime)


@given(cohort_shapes())
@settings(max_examples=3, deadline=None)
def test_concurrent_service_equals_solo_property(shape):
    """Studies served concurrently over warm substrates decide exactly
    as one-shot ``run_study`` federations do — scheduling, slot reuse
    and network namespacing are invisible to the verdict."""
    num_members = shape.pop("num_members")
    if shape["num_case"] < num_members:
        num_members = shape["num_case"]
    cohort, _ = generate_cohort(SyntheticSpec(**shape))
    configs = [
        StudyConfig(
            snp_count=shape["num_snps"],
            seed=shape["seed"] + index,
            study_id=f"svc-prop-{shape['seed']}-{index}",
        )
        for index in range(2)
    ]
    solo = {c.study_id: run_study(cohort, c, num_members) for c in configs}
    service_config = ServiceConfig(
        num_members=num_members, pool_size=2, max_active=2
    )
    with FederationService(service_config) as service:
        for config in configs:
            service.submit(cohort, config)
        served = {
            c.study_id: service.result(c.study_id, timeout=120)
            for c in configs
        }
    for study_id, result in served.items():
        expected = solo[study_id]
        assert study_decisions(result) == study_decisions(expected)
        assert result.leader_id == expected.leader_id


@given(cohort_shapes())
@settings(max_examples=6, deadline=None)
def test_release_power_bounded_property(shape):
    shape.pop("num_members")
    cohort, _ = generate_cohort(SyntheticSpec(**shape))
    config = StudyConfig(
        snp_count=shape["num_snps"],
        seed=shape["seed"],
        study_id=f"power-{shape['seed']}",
    )
    result = run_study(cohort, config, 2)
    if result.l_safe:
        assert result.release_power < 0.9
    assert 0.0 <= result.release_power <= 1.0
