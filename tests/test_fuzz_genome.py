"""Genome layer: canonical JSON round-trips, normalization, digests.

The load-bearing property: a ``FaultConfig`` or ``PlanGenome``
serialised to its canonical JSON and decoded back is *the same object*
— equal, same digest, and (as a ``FaultPlan``) drawing **identical
injected faults** at every coordinate.  Without that, a committed
corpus entry or a chaos-report record would not actually reproduce the
run it describes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ENVELOPE_RATE_FIELDS, FaultConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.fuzz.genome import PlanGenome, genome_config, normalize

MEMBERS = ("gdo-0", "gdo-1", "gdo-2")

_small_rate = st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.08])


@st.composite
def fault_configs(draw):
    """Valid, arbitrarily-armed fault configs (rate simplex respected)."""
    envelope = {name: draw(_small_rate) for name in ENVELOPE_RATE_FIELDS}
    flip = draw(st.sampled_from([0.0, 0.35]))
    return FaultConfig(
        enabled=True,
        seed=draw(st.integers(0, 1 << 20)),
        withhold_target=draw(st.sampled_from(["", "gdo-1"])),
        equivocate_rate=draw(st.sampled_from([0.0, 0.2, 0.35])),
        shard_flip_rate=flip,
        shard_flip_target="gdo-1" if flip else "",
        checkpoint_tamper=draw(
            st.sampled_from(["", "stale", "stale_persistent", "corrupt"])
        ),
        crash_points=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(MEMBERS), st.integers(1, 12)
                    ),
                    max_size=2,
                )
            )
        ),
        partition_windows=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(MEMBERS),
                        st.integers(1, 8),
                        st.integers(1, 3),
                    ),
                    max_size=2,
                )
            )
        ),
        **envelope,
    )


@st.composite
def genomes(draw):
    return PlanGenome(
        faults=draw(fault_configs()),
        mode=draw(st.sampled_from(["sequential", "parallel"])),
        f=draw(st.sampled_from([0, 1])),
        shards=draw(st.sampled_from([1, 2, 4])),
        supervised=draw(st.booleans()),
        integrity=draw(st.booleans()),
    )


@settings(max_examples=30, deadline=None)
@given(fault_configs())
def test_fault_config_roundtrips_canonically(config):
    decoded = FaultConfig.from_json_dict(config.to_json_dict())
    assert decoded == config
    assert decoded.to_json_dict() == config.to_json_dict()


@settings(max_examples=25, deadline=None)
@given(fault_configs())
def test_plan_roundtrip_preserves_injected_fault_draws(config):
    """Round-tripped plans are equal AND draw identical faults.

    Equality alone could hide a lossy field that only matters at draw
    time, so the property also samples the per-link action stream, the
    equivocation/shard-flip decisions and the corrupt offsets.
    """
    plan = FaultPlan(config)
    decoded = FaultPlan(FaultConfig.from_json_dict(config.to_json_dict()))
    assert decoded.config == plan.config
    assert decoded.digest() == plan.digest()
    for sender in MEMBERS[:2]:
        for link_index in range(1, 9):
            assert decoded.action_for(
                sender, "gdo-2", link_index
            ) == plan.action_for(sender, "gdo-2", link_index)
            assert decoded.corrupt_offset(
                sender, "gdo-2", link_index, 64
            ) == plan.corrupt_offset(sender, "gdo-2", link_index, 64)
    for attempt in range(1, 4):
        assert decoded.equivocate_for(
            "maf", "gdo-1", attempt
        ) == plan.equivocate_for("maf", "gdo-1", attempt)
        assert decoded.shard_flip_for(
            "counts", 0, attempt
        ) == plan.shard_flip_for("counts", 0, attempt)


@settings(max_examples=30, deadline=None)
@given(genomes())
def test_genome_roundtrips_with_stable_digest(genome):
    decoded = PlanGenome.from_json_dict(genome.to_json_dict())
    assert decoded == genome
    assert decoded.digest() == genome.digest()
    assert decoded.canonical_json() == genome.canonical_json()


@settings(max_examples=30, deadline=None)
@given(genomes())
def test_normalize_is_idempotent_and_enforces_threat_model(genome):
    normalized = normalize(genome, MEMBERS)
    again = normalize(normalized, MEMBERS)
    assert again.digest() == normalized.digest()
    faults = normalized.faults
    assert (
        sum(getattr(faults, name) for name in ENVELOPE_RATE_FIELDS) <= 1.0
    )
    if (
        faults.equivocate_rate > 0.0
        or faults.shard_flip_rate > 0.0
        or faults.checkpoint_tamper
    ):
        # Undefended module compromise trivially breaks the decision
        # invariant, which is outside the threat model: normalization
        # forces the defence on (the Byzantine tier does the same).
        assert normalized.integrity
    if faults.shard_flip_rate > 0.0:
        assert faults.shard_flip_target
    assert faults.enabled == bool(normalized.active_faults())


def test_normalize_arms_and_disarms_enabled_flag():
    armed = normalize(
        PlanGenome(faults=FaultConfig(seed=3, drop_rate=0.05)), MEMBERS
    )
    assert armed.faults.enabled
    disarmed = normalize(PlanGenome(faults=FaultConfig(seed=3)), MEMBERS)
    assert not disarmed.faults.enabled
    assert not disarmed.active_faults()


def test_malformed_documents_raise_config_error():
    with pytest.raises(ConfigError):
        FaultConfig.from_json_dict({"seed": 1})
    with pytest.raises(ConfigError):
        PlanGenome.from_json_dict({"mode": "sequential"})
    with pytest.raises(ConfigError):
        PlanGenome.from_json_dict(
            {
                "faults": FaultConfig().to_json_dict(),
                "mode": "warp",
                "f": 0,
                "shards": 1,
                "supervised": True,
                "integrity": False,
            }
        )


def test_genome_config_materialises_all_axes():
    genome = PlanGenome(
        faults=FaultConfig(enabled=True, seed=9, drop_rate=0.05),
        mode="parallel",
        f=1,
        shards=4,
        supervised=True,
        integrity=True,
    )
    config = genome_config(
        genome, snp_count=40, study_id="t", study_seed=5
    )
    assert config.execution.mode == "parallel"
    assert max(config.collusion.f_values) == 1
    assert config.sharding.num_shards == 4
    assert config.resilience.enabled
    assert config.integrity.enabled
    assert config.faults == genome.faults
    unsupervised = genome_config(
        dataclasses.replace(genome, supervised=False, shards=1),
        snp_count=40,
        study_id="t",
        study_seed=5,
    )
    assert not unsupervised.resilience.enabled


def test_sort_key_orders_simpler_genomes_first():
    plain = PlanGenome()
    armed = PlanGenome(
        faults=FaultConfig(enabled=True, seed=1, drop_rate=0.2),
        mode="parallel",
        shards=4,
    )
    assert plain.sort_key() < armed.sort_key()
