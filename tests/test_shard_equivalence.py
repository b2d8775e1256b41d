"""Sharded aggregation equivalence: the load-bearing invariant.

SNP-range sharding with tree aggregation must be a pure execution-plan
change: for every collusion mode, the released SNP set (and every other
decision field) is bit-identical across shard counts.  Integer allele
counts and pair moments combine associatively, so any tree grouping
sums to exactly the flat total — these tests enforce that end to end,
the same way sequential-vs-parallel equivalence is enforced.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import (
    CollusionPolicy,
    ObservabilityConfig,
    ShardingConfig,
    StudyConfig,
)
from repro.core import enclave_logic
from repro.core.protocol import run_study
from repro.core.shard import aggregation_tree
from repro.errors import ProtocolError
from repro.fuzz.oracle import study_decisions

SHARD_COUNTS = (1, 2, 4, 8)
MEMBERS = 5


@pytest.fixture(scope="module", params=(0, 1), ids=("f0", "f1"))
def sharded_results(request, small_cohort):
    """One study per shard count at this collusion setting, observed."""
    f = request.param
    collusion = CollusionPolicy((f,)) if f else CollusionPolicy.none()
    results = {}
    for shards in SHARD_COUNTS:
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=collusion,
            seed=5,
            study_id=f"shard-eq-f{f}",
            sharding=ShardingConfig.over(shards),
            observability=ObservabilityConfig(enabled=True),
        )
        results[shards] = run_study(small_cohort, config, MEMBERS)
    return results


class TestDecisionEquivalence:
    def test_bit_identical_across_shard_counts(self, sharded_results):
        baseline = study_decisions(sharded_results[1])
        for shards in SHARD_COUNTS[1:]:
            assert study_decisions(sharded_results[shards]) == baseline

    def test_sharded_run_is_nontrivial(self, sharded_results):
        result = sharded_results[max(SHARD_COUNTS)]
        assert 0 < result.retained_after_lr <= result.retained_after_maf

    def test_fingerprint_differs_but_outcome_does_not(self, sharded_results):
        """Shard count is part of the run identity, never the outcome."""
        prints = {
            s: r.observability.config_fingerprint
            for s, r in sharded_results.items()
        }
        assert len(set(prints.values())) == len(SHARD_COUNTS)


class TestShardAccounting:
    def test_report_metrics_present(self, sharded_results):
        for shards in SHARD_COUNTS[1:]:
            report = sharded_results[shards].observability
            gauges = report.metrics["gauges"]
            counters = report.metrics["counters"]
            assert gauges["shard.ranges"] == shards
            assert gauges["shard.tree_depth"] >= 1
            assert counters["shard.partials_emitted"] > 0
            assert (
                counters["shard.partials_ingested"]
                == counters["shard.partials_emitted"]
            )
            assert report.meta["sharding"]["num_shards"] == shards

    def test_flat_run_reports_no_shard_metrics(self, sharded_results):
        report = sharded_results[1].observability
        assert "shard.ranges" not in report.metrics["gauges"]
        assert "sharding" not in report.meta

    def test_partial_frames_shrink_with_shard_count(self, sharded_results):
        """Per-enclave peak partial size scales as O(L/S)."""
        peaks = {}
        for shards in SHARD_COUNTS[1:]:
            gauges = sharded_results[shards].observability.metrics["gauges"]
            peaks[shards] = max(
                value
                for name, value in gauges.items()
                if name.startswith("shard.peak_partial_bytes.")
            )
            width = gauges["shard.max_width"]
            assert width == -(-small_cohort_snps(sharded_results) // shards)
        assert peaks[2] > peaks[4] > peaks[8]

    def test_leader_fan_in_is_tree_arity(self, sharded_results):
        """The root ingests ≤2 frames per combine round, never G-1.

        Counted on the trace: every ``shard`` frame sent to the leader,
        grouped by the ``round`` span it was sent in.
        """
        for shards in SHARD_COUNTS[1:]:
            result = sharded_results[shards]
            gauges = result.observability.metrics["gauges"]
            rounds = gauges["shard.aggregation_rounds"]
            assert rounds == gauges["shard.tree_depth"]
            # 5 members → depth-2 heap: the root's two children are the
            # only nodes that ever deliver to the leader.
            assert rounds == 2
            fan_in = _leader_frames_per_round(result)
            assert fan_in, "no shard frame reached the leader"
            assert max(fan_in.values()) <= 2


@pytest.fixture(scope="module", params=(0, 1), ids=("f0", "f1"))
def received_partials(request, small_cohort):
    """Every shard partial a tree parent decoded in one S = 4 study:
    ``(f, result, [(sender, stats shape, sizes shape), ...])``."""
    f = request.param
    frames = []
    honest_open = enclave_logic.GenDPREnclave._open

    def recording_open(self, peer, kind, frame):
        payload = honest_open(self, peer, kind, frame)
        if kind == "shard":
            frames.append(
                (peer, payload["stats"].shape, payload["counts"].shape)
            )
        return payload

    config = StudyConfig(
        snp_count=small_cohort.num_snps,
        collusion=CollusionPolicy((f,)) if f else CollusionPolicy.none(),
        seed=5,
        study_id=f"shard-rows-f{f}",
        sharding=ShardingConfig.over(4),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enclave_logic.GenDPREnclave, "_open", recording_open)
        result = run_study(small_cohort, config, MEMBERS)
    return f, result, frames


class TestPartialFormat:
    def test_rows_follow_the_sender_subtree_or_pool_it(self, received_partials):
        """At f >= 1 a partial carries one row per member of its sender's
        subtree; at f = 0 its one row is the subtree's pool."""
        f, result, frames = received_partials
        members = [f"gdo-{index}" for index in range(MEMBERS)]
        tree = aggregation_tree(members, result.leader_id)
        # Four counts tasks and at least one moments task, one frame per
        # non-root member each.
        assert len(frames) >= 5 * (MEMBERS - 1)
        assert {sender for sender, _stats, _sizes in frames} == set(
            tree.nodes[1:]
        )
        for sender, stats_shape, sizes_shape in frames:
            rows = len(tree.subtree(sender)) if f else 1
            assert stats_shape[0] == rows
            assert sizes_shape == (rows,)
        # Five members: the root's first child carries its subtree of
        # three, every other sender only itself.
        assert {shape[0] for _s, shape, _z in frames} == ({1, 3} if f else {1})


def _leader_frames_per_round(result) -> Counter:
    """``shard`` frames received by the leader, per enclosing round span."""
    spans = {span.span_id: span for span in result.observability.spans}
    per_round: Counter = Counter()
    for span in spans.values():
        if not (
            span.name == "net.send"
            and span.attributes["tag"] == "shard"
            and span.attributes["receiver"] == result.leader_id
        ):
            continue
        parent = spans[span.parent_id]
        while parent.name != "round":
            parent = spans[parent.parent_id]
        per_round[parent.span_id] += 1
    return per_round


def small_cohort_snps(results):
    return results[1].l_des


class TestLdOverflow:
    """A reachable pair union beyond its padded bound costs counted
    extra rounds, never different decisions."""

    @pytest.mark.parametrize("shards", (1, 2))
    def test_overflow_rounds_keep_decisions(self, small_cohort, monkeypatch, shards):
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            collusion=CollusionPolicy((1,)),
            seed=5,
            study_id="ld-overflow",
            sharding=ShardingConfig.over(shards),
            observability=ObservabilityConfig(enabled=True),
        )
        padded = run_study(small_cohort, config, MEMBERS)
        monkeypatch.setattr(enclave_logic, "_LD_PAD_PER_SNP", 1)
        squeezed = run_study(small_cohort, config, MEMBERS)
        assert study_decisions(squeezed) == study_decisions(padded)
        counters = squeezed.observability.metrics["counters"]
        overflow = counters["enclave.ld_overflow_rounds"]
        planned = 1 if shards == 1 else 0
        assert overflow > 0
        assert squeezed.ocall_rounds["ld"] == planned + overflow
        assert padded.ocall_rounds.get("ld", 0) == planned


class TestShardGuards:
    def test_sharding_requires_mesh_capable_membership(self, small_cohort):
        """G=1 sharded studies degenerate cleanly (no tree, no peers)."""
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            seed=5,
            study_id="shard-solo",
            sharding=ShardingConfig.over(2),
        )
        result = run_study(small_cohort, config, 1)
        assert result.retained_after_lr > 0

    def test_star_substrate_rejected_for_sharded_study(self, small_cohort):
        from repro.core.federation import bind_study, provision_substrate
        from repro.crypto.rng import DeterministicRng
        from repro.genomics.partition import partition_cohort

        datasets = partition_cohort(small_cohort, 3)
        config = StudyConfig(
            snp_count=small_cohort.num_snps,
            seed=5,
            study_id="shard-star",
            sharding=ShardingConfig.over(2),
        )
        member_ids = [f"gdo-{i}" for i in range(3)]
        substrate = provision_substrate(
            member_ids,
            rng=DeterministicRng("test/shard-star"),
            topology="star",
            star_center=member_ids[0],
        )
        with pytest.raises(ProtocolError):
            bind_study(substrate, config, datasets, small_cohort)


class TestCliShards:
    def test_run_with_shards_flag(self, tmp_path, small_cohort, capsys):
        import json

        from repro.cli import main, save_cohort_bundle

        cohort_file = str(tmp_path / "cohort.npz")
        save_cohort_bundle(cohort_file, small_cohort)
        json_out = str(tmp_path / "result.json")
        flat_out = str(tmp_path / "flat.json")
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--shards", "4",
                "--json", json_out,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "run",
                "--cohort", cohort_file,
                "--members", "3",
                "--json", flat_out,
            ]
        ) == 0
        sharded = json.loads(open(json_out).read())
        flat = json.loads(open(flat_out).read())
        assert sharded["l_safe"] == flat["l_safe"]
        assert sharded["l_prime"] == flat["l_prime"]
