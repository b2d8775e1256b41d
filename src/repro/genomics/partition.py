"""Horizontal partitioning of a cohort across federation members.

The paper "divided genomes equally among federation members"; only the
**case** population is split — the reference dataset is public and
available to every member, and the leader uses it directly.

:func:`partition_cohort` returns one :class:`LocalDataset` per GDO, each
carrying that member's case shard plus a handle to the shared reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.shard import equal_partition_sizes
from ..errors import PartitionError
from .genotype import GenotypeMatrix
from .population import Cohort


@dataclass(frozen=True)
class LocalDataset:
    """One federation member's on-premises data."""

    gdo_id: str
    case: GenotypeMatrix

    @property
    def num_case(self) -> int:
        return self.case.num_individuals


def partition_cohort(
    cohort: Cohort,
    num_members: int,
    *,
    sizes: Optional[Sequence[int]] = None,
    shuffle_seed: Optional[int] = None,
) -> List[LocalDataset]:
    """Split the cohort's case population across ``num_members`` GDOs.

    Args:
        cohort: the full study cohort.
        num_members: number of federation members (``G``).
        sizes: explicit shard sizes; defaults to an equal split.
        shuffle_seed: when given, individuals are shuffled before the
            split — used by the partition-invariance property tests to
            show GenDPR's outcome does not depend on *which* genomes land
            at which member.
    """
    if num_members <= 0:
        raise PartitionError("num_members must be positive")
    total = cohort.case.num_individuals
    if sizes is None:
        sizes = equal_partition_sizes(total, num_members)
    if len(sizes) != num_members:
        raise PartitionError(
            f"got {len(sizes)} sizes for {num_members} members"
        )
    if sum(sizes) != total:
        raise PartitionError(
            f"shard sizes sum to {sum(sizes)}, cohort has {total} case genomes"
        )
    if any(size <= 0 for size in sizes):
        raise PartitionError(
            "every member needs at least one case genome "
            "(empty shards cannot contribute to the study)"
        )

    case = cohort.case
    if shuffle_seed is not None:
        order = np.random.Generator(np.random.PCG64(shuffle_seed)).permutation(
            total
        )
        case = case.select_individuals(order.tolist())

    shards = case.split_rows(sizes)
    return [
        LocalDataset(gdo_id=f"gdo-{i}", case=shard)
        for i, shard in enumerate(shards)
    ]
