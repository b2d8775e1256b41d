"""SNP-range sharding and tree-aggregation planning.

The paper's federation aggregates every phase flat through the leader:
``G`` members each ship an O(L) frame to one enclave, so leader ingress
and leader memory grow as O(G·L).  PP-GWAS scales multi-site GWAS to
millions of SNPs by partitioning the SNP axis and aggregating partial
statistics hierarchically; this module plans exactly that layout for
GenDPR:

* :func:`plan_shards` splits the ``L`` SNP columns into ``S`` contiguous
  ``[start, stop)`` ranges (paper-style as-equal-as-possible split) and
  deterministically assigns each range an *owner* enclave by
  round-robin over the sorted member ids.  The plan is a pure function
  of ``(snp_count, num_shards, member_ids)``; because ``num_shards``
  lives in :class:`~repro.config.ShardingConfig` — which is part of the
  config fingerprint — the range→enclave assignment is recorded with
  every run.

* :func:`aggregation_tree` lays the federation members out as a binary
  heap rooted at the leader.  Additive statistics (allele counts, LD
  pair moments) combine pairwise along the tree's edges, deepest level
  first, so the leader ingests at most two frames per shard instead of
  ``G`` and the combine depth is ⌈log₂ G⌉.

Both structures are recomputed *inside* each enclave from the attested
study parameters, so a Byzantine orchestrator cannot reroute a shard or
re-root the tree without the enclaves noticing (`ProtocolError`).
Everything here is deterministic and side-effect free — the module sits
inside the enclave trust boundary (see ``lint.toml``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigError, ProtocolError

__all__ = [
    "ShardRange",
    "ShardPlan",
    "AggregationTree",
    "plan_shards",
    "aggregation_tree",
    "equal_partition_sizes",
]


@dataclass(frozen=True)
class ShardRange:
    """One contiguous SNP-column range ``[start, stop)`` and its owner."""

    index: int
    start: int
    stop: int
    owner: str

    @property
    def width(self) -> int:
        return self.stop - self.start

    def columns(self) -> range:
        """The SNP column indices this shard covers."""
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic split of the SNP axis into owned contiguous ranges."""

    snp_count: int
    member_ids: Tuple[str, ...]
    ranges: Tuple[ShardRange, ...]

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def max_width(self) -> int:
        """The widest shard — the O(L/S) per-frame / per-buffer bound."""
        return max(shard.width for shard in self.ranges)

    def shard_of_column(self, column: int) -> ShardRange:
        """The shard whose range contains SNP ``column``."""
        if not 0 <= column < self.snp_count:
            raise ProtocolError(
                f"SNP column {column} outside [0, {self.snp_count})"
            )
        for shard in self.ranges:
            if shard.start <= column < shard.stop:
                return shard
        raise ProtocolError(f"no shard covers SNP column {column}")

    def describe(self) -> Dict[str, object]:
        """Canonical JSON-able payload (RunReport meta, plan digest)."""
        return {
            "snp_count": self.snp_count,
            "num_shards": self.num_shards,
            "ranges": [
                {
                    "index": shard.index,
                    "start": shard.start,
                    "stop": shard.stop,
                    "owner": shard.owner,
                }
                for shard in self.ranges
            ],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical plan payload."""
        encoded = json.dumps(
            self.describe(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()


def equal_partition_sizes(total: int, parts: int) -> Sequence[int]:
    """Sizes of an as-equal-as-possible split of ``total`` into ``parts``.

    The paper divides genomes equally among federation members; when the
    division is not exact the first ``total % parts`` members receive one
    extra genome.
    """
    if parts <= 0:
        raise ConfigError("parts must be positive")
    if total < 0:
        raise ConfigError("total must be non-negative")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def plan_shards(
    snp_count: int,
    num_shards: int,
    member_ids: Sequence[str],
    epoch: int = 0,
) -> ShardPlan:
    """Split ``snp_count`` columns into ``num_shards`` owned ranges.

    The split is :func:`equal_partition_sizes` (the first ``L % S``
    shards take one extra column) and owners are assigned round-robin
    over the *sorted* member ids, so every party that knows the study
    parameters derives the identical plan.

    ``epoch`` is the tree-repair generation: each repair bumps it and
    rotates the round-robin owner assignment by one, so a repaired
    layout is a *different* deterministic plan (its digest is recorded
    alongside the original) while the ranges — and therefore every
    partial's wire shape — stay epoch-invariant.  Epoch 0 is the layout
    the config fingerprint commits to.
    """
    if snp_count <= 0:
        raise ConfigError("snp_count must be positive")
    if not 1 <= num_shards <= snp_count:
        raise ConfigError(
            f"num_shards must be in [1, {snp_count}], got {num_shards}"
        )
    owners = sorted(member_ids)
    if not owners:
        raise ConfigError("sharding needs at least one member")
    if len(set(owners)) != len(owners):
        raise ConfigError("duplicate member ids in shard plan")
    if epoch < 0:
        raise ConfigError("shard plan epoch must be >= 0")
    widths = equal_partition_sizes(snp_count, num_shards)
    ranges: List[ShardRange] = []
    start = 0
    for index, width in enumerate(widths):
        ranges.append(
            ShardRange(
                index=index,
                start=start,
                stop=start + width,
                owner=owners[(index + epoch) % len(owners)],
            )
        )
        start += width
    return ShardPlan(
        snp_count=snp_count,
        member_ids=tuple(owners),
        ranges=tuple(ranges),
    )


@dataclass(frozen=True)
class AggregationTree:
    """Binary combine tree over the federation members, rooted at one node.

    The layout is a binary heap over ``[root] + sorted(others)``: the
    node at position ``i`` sends its combined partial to position
    ``(i - 1) // 2``.  Partials therefore combine *pairwise* (every
    parent ingests at most two child frames per shard) and the depth is
    ⌈log₂ G⌉, which is what drops leader fan-in from ``G`` flat frames
    to O(log G) bounded ones.
    """

    root: str
    nodes: Tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of combine levels (0 for a single-node federation)."""
        depth = 0
        position = len(self.nodes) - 1
        while position > 0:
            position = (position - 1) // 2
            depth += 1
        return depth

    def parent(self, node: str) -> str:
        """The node ``node`` sends its combined partial to."""
        position = self.nodes.index(node)
        if position == 0:
            raise ProtocolError(f"{node} is the aggregation root")
        return self.nodes[(position - 1) // 2]

    def children(self, node: str) -> Tuple[str, ...]:
        """The nodes whose partials ``node`` ingests (at most two)."""
        position = self.nodes.index(node)
        kids = []
        for child in (2 * position + 1, 2 * position + 2):
            if child < len(self.nodes):
                kids.append(self.nodes[child])
        return tuple(kids)

    def subtree(self, node: str) -> Tuple[str, ...]:
        """``node`` and every node below it, in pre-order: ``node``
        first, then each child's subtree in :meth:`children` order."""
        order = [node]
        for child in self.children(node):
            order.extend(self.subtree(child))
        return tuple(order)

    def levels(self) -> List[List[Tuple[str, str]]]:
        """Combine schedule: ``(child, parent)`` edges, deepest first.

        Edges within one level touch distinct children, so their emit
        ECALLs can run concurrently under the parallel executor.
        """
        by_depth: Dict[int, List[Tuple[str, str]]] = {}
        for position in range(1, len(self.nodes)):
            depth = 0
            cursor = position
            while cursor > 0:
                cursor = (cursor - 1) // 2
                depth += 1
            edge = (self.nodes[position], self.nodes[(position - 1) // 2])
            by_depth.setdefault(depth, []).append(edge)
        return [by_depth[depth] for depth in sorted(by_depth, reverse=True)]


def aggregation_tree(
    member_ids: Iterable[str], root: str, epoch: int = 0
) -> AggregationTree:
    """Heap-shaped combine tree over ``member_ids`` rooted at ``root``.

    ``epoch`` (the tree-repair generation) rotates the sorted non-root
    order, so each repair deterministically re-shapes the interior of
    the heap — a node that sat under a faulty parent lands on fresh
    edges — without moving the root.  Epoch 0 is the original layout.
    """
    members = sorted(member_ids)
    if root not in members:
        raise ConfigError(f"tree root {root!r} is not a federation member")
    if epoch < 0:
        raise ConfigError("aggregation tree epoch must be >= 0")
    others = [member for member in members if member != root]
    if others and epoch:
        turn = epoch % len(others)
        others = others[turn:] + others[:turn]
    ordered = (root, *others)
    return AggregationTree(root=root, nodes=ordered)
