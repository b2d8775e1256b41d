"""SNP-range shard planner and aggregation tree (repro.core.shard)."""

from __future__ import annotations

import pytest

from repro.config import ResilienceConfig, ShardingConfig, StudyConfig
from repro.core.enclave_logic import GenDPREnclave
from repro.core.shard import (
    AggregationTree,
    aggregation_tree,
    plan_shards,
)
from repro.errors import ConfigError, ProtocolError
from repro.obs.report import config_fingerprint

MEMBERS = ("gdo-0", "gdo-1", "gdo-2", "gdo-3", "gdo-4")


class TestPlanShards:
    @pytest.mark.parametrize("snps,shards", [(10, 1), (10, 3), (97, 8), (8, 8)])
    def test_ranges_tile_the_snp_axis(self, snps, shards):
        """Contiguous, in-order, gap-free cover of [0, L)."""
        plan = plan_shards(snps, shards, MEMBERS)
        assert plan.num_shards == shards
        cursor = 0
        for index, shard in enumerate(plan.ranges):
            assert shard.index == index
            assert shard.start == cursor
            assert shard.stop > shard.start
            cursor = shard.stop
        assert cursor == snps
        covered = [c for shard in plan.ranges for c in shard.columns()]
        assert covered == list(range(snps))

    def test_widths_as_equal_as_possible(self):
        plan = plan_shards(97, 8, MEMBERS)
        widths = [shard.width for shard in plan.ranges]
        assert sum(widths) == 97
        assert max(widths) - min(widths) <= 1
        assert plan.max_width == max(widths)

    def test_owners_round_robin_over_sorted_members(self):
        plan = plan_shards(100, 7, ["b", "c", "a"])
        owners = [shard.owner for shard in plan.ranges]
        assert owners == ["a", "b", "c", "a", "b", "c", "a"]

    def test_deterministic_and_order_insensitive(self):
        one = plan_shards(64, 4, ("g1", "g0", "g2"))
        two = plan_shards(64, 4, ("g2", "g1", "g0"))
        assert one == two
        assert one.digest() == two.digest()

    def test_digest_changes_with_shard_count(self):
        assert (
            plan_shards(64, 2, MEMBERS).digest()
            != plan_shards(64, 4, MEMBERS).digest()
        )

    def test_shard_of_column(self):
        plan = plan_shards(10, 3, MEMBERS)
        for column in range(10):
            shard = plan.shard_of_column(column)
            assert shard.start <= column < shard.stop
        with pytest.raises(ProtocolError):
            plan.shard_of_column(10)
        with pytest.raises(ProtocolError):
            plan.shard_of_column(-1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            plan_shards(0, 1, MEMBERS)
        with pytest.raises(ConfigError):
            plan_shards(10, 11, MEMBERS)
        with pytest.raises(ConfigError):
            plan_shards(10, 0, MEMBERS)
        with pytest.raises(ConfigError):
            plan_shards(10, 2, [])
        with pytest.raises(ConfigError):
            plan_shards(10, 2, ["dup", "dup"])


class TestAggregationTree:
    def test_root_leads_sorted_others(self):
        tree = aggregation_tree(MEMBERS, root="gdo-2")
        assert tree.nodes[0] == "gdo-2"
        assert list(tree.nodes[1:]) == ["gdo-0", "gdo-1", "gdo-3", "gdo-4"]

    def test_root_must_be_a_member(self):
        with pytest.raises(ConfigError):
            aggregation_tree(MEMBERS, root="intruder")

    @pytest.mark.parametrize(
        "size,depth", [(1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (8, 3)]
    )
    def test_depth_is_log2(self, size, depth):
        members = [f"m{i}" for i in range(size)]
        tree = aggregation_tree(members, root="m0")
        assert tree.depth == depth

    def test_parent_child_consistency(self):
        tree = aggregation_tree(MEMBERS, root="gdo-0")
        with pytest.raises(ProtocolError):
            tree.parent("gdo-0")
        for node in tree.nodes[1:]:
            assert node in tree.children(tree.parent(node))
        for node in tree.nodes:
            assert len(tree.children(node)) <= 2
            for child in tree.children(node):
                assert tree.parent(child) == node

    def test_levels_schedule_every_non_root_once_deepest_first(self):
        tree = aggregation_tree([f"m{i}" for i in range(7)], root="m0")
        levels = tree.levels()
        assert len(levels) == tree.depth
        emitted = [child for level in levels for child, _parent in level]
        assert sorted(emitted) == sorted(tree.nodes[1:])
        # A child may only emit after its own children have emitted.
        seen = set()
        for level in levels:
            children_this_level = {child for child, _ in level}
            for child, parent in level:
                assert parent == tree.parent(child)
                for grandchild in tree.children(child):
                    assert grandchild in seen
            assert len(children_this_level) == len(level), "distinct children"
            seen |= children_this_level

    def test_single_node_tree_has_no_edges(self):
        tree = AggregationTree(root="solo", nodes=("solo",))
        assert tree.depth == 0
        assert tree.levels() == []
        assert tree.children("solo") == ()


def _determinant(matrix):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    sign, previous = 1, 1
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // previous
        previous = rows[k][k]
    return sign * rows[-1][-1] if size else 1


def _has_full_column_rank(membership):
    """Whether the 0/1 ``C x k`` matrix has rank ``k``, exactly: its
    Gram matrix is nonsingular."""
    width = len(membership[0])
    gram = [
        [sum(row[a] * row[b] for row in membership) for b in range(width)]
        for a in range(width)
    ]
    return _determinant(gram) != 0


def _subtree_memberships(size, f):
    """Every (tree, node) case over ``size`` members: the combination
    rows restricted to the node's subtree, for every root and epoch."""
    members = [f"m{i}" for i in range(size)]
    combos = GenDPREnclave._build_combinations(members, [f])
    for root in members:
        for epoch in range(size):
            tree = aggregation_tree(members, root, epoch=epoch)
            for node in tree.nodes:
                subtree = tree.subtree(node)
                yield subtree, [
                    [1 if member in pool else 0 for member in subtree]
                    for _id, _f, pool in combos
                ]


class TestPartialRows:
    """A tree partial at f >= 1 carries one row per member of its
    sender's subtree.  That adds no trust: the combination rows a parent
    received instead already determine every subtree member's sums."""

    def test_subtree_is_preorder(self):
        tree = aggregation_tree([f"m{i}" for i in range(7)], root="m3")
        # Heap over (m3, m0, m1, m2, m4, m5, m6): m0 <- (m2, m4) and
        # m1 <- (m5, m6) under the root m3.
        assert tree.subtree("m3") == ("m3", "m0", "m2", "m4", "m1", "m5", "m6")
        assert tree.subtree("m1") == ("m1", "m5", "m6")
        assert tree.subtree("m2") == ("m2",)
        assert sorted(tree.subtree(tree.root)) == sorted(tree.nodes)

    @pytest.mark.parametrize("size", range(2, 9))
    def test_combination_rows_determine_every_subtree_member(self, size):
        cases = 0
        for f in range(1, size):
            for subtree, membership in _subtree_memberships(size, f):
                assert _has_full_column_rank(membership), (size, f, subtree)
                cases += 1
        assert cases == (size - 1) * size**3

    @pytest.mark.parametrize("size", range(2, 9))
    def test_f0_pool_hides_the_members_of_a_subtree(self, size):
        for subtree, membership in _subtree_memberships(size, 0):
            assert _has_full_column_rank(membership) == (len(subtree) == 1)


class TestShardingConfig:
    def test_defaults_off(self):
        assert not ShardingConfig.off().enabled
        assert ShardingConfig.over(4).enabled
        assert not ShardingConfig.over(1).enabled

    def test_num_shards_bounded_by_snp_count(self):
        with pytest.raises(ConfigError):
            StudyConfig(
                snp_count=3,
                sharding=ShardingConfig.over(4),
                study_id="too-many-shards",
            )

    def test_sharding_composes_with_resilience(self):
        """Supervised sharding is allowed; it needs a retry budget."""
        config = StudyConfig(
            snp_count=100,
            sharding=ShardingConfig.over(2),
            resilience=ResilienceConfig.supervised(),
            study_id="shards-with-resilience",
        )
        assert config.sharding.enabled and config.resilience.enabled
        # Combine edges must be able to retry at least once before a
        # member is declared unresponsive.
        with pytest.raises(ConfigError):
            StudyConfig(
                snp_count=100,
                sharding=ShardingConfig.over(2),
                resilience=ResilienceConfig.supervised(max_attempts=1),
                study_id="shards-without-retries",
            )

    def test_shard_epoch_rotates_layout_deterministically(self):
        base = plan_shards(100, 4, MEMBERS)
        repaired = plan_shards(100, 4, MEMBERS, epoch=1)
        # Ranges (and therefore wire shapes) are epoch-invariant; only
        # the owner rotation and the digest change.
        assert [(s.start, s.stop) for s in base.ranges] == [
            (s.start, s.stop) for s in repaired.ranges
        ]
        assert [s.owner for s in base.ranges] != [
            s.owner for s in repaired.ranges
        ]
        assert base.digest() != repaired.digest()
        assert plan_shards(100, 4, MEMBERS, epoch=1).digest() == repaired.digest()
        assert plan_shards(100, 4, MEMBERS, epoch=0).digest() == base.digest()
        with pytest.raises(ConfigError):
            plan_shards(100, 4, MEMBERS, epoch=-1)

    def test_tree_epoch_keeps_root_and_reshapes_interior(self):
        base = aggregation_tree(MEMBERS, root="gdo-0")
        repaired = aggregation_tree(MEMBERS, root="gdo-0", epoch=1)
        assert repaired.root == base.root == "gdo-0"
        assert sorted(repaired.nodes) == sorted(base.nodes)
        assert repaired.nodes != base.nodes
        # Epoch rotation wraps around the non-root order.
        full_turn = aggregation_tree(
            MEMBERS, root="gdo-0", epoch=len(MEMBERS) - 1
        )
        assert full_turn.nodes == base.nodes
        with pytest.raises(ConfigError):
            aggregation_tree(MEMBERS, root="gdo-0", epoch=-1)

    def test_fingerprint_records_shard_count(self):
        """Sharding is part of the study identity, unlike execution mode."""
        flat = StudyConfig(snp_count=100, study_id="fp")
        sharded = StudyConfig(
            snp_count=100, sharding=ShardingConfig.over(4), study_id="fp"
        )
        assert config_fingerprint(flat) != config_fingerprint(sharded)
