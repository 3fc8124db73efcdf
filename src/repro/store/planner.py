"""Batched read planning: merged per-partition prefix-cover PCR accesses.

Reading an object back from DNA costs one PCR (or one multiplexed primer
set) per accessed partition range.  The planner turns an object's extents
— or an arbitrary byte range of them — into the cheapest set of accesses:

1. group the touched blocks by partition;
2. merge adjacent/overlapping block ranges within each partition (stripes
   of the same object frequently abut after round-robin wraps);
3. cover each merged range with the minimal set of index-tree prefixes
   (Section 3.1 of the paper), each prefix yielding one elongated primer.

A range's cover and primers depend only on its partition's index tree,
forward primer and the range, so each partition memoises them per
``(start, end)`` (:meth:`repro.core.partition.Partition.range_plan`):
bounded, oldest entry dropped first, and never pickled with the
partition.  Serving traces plan the same hot ranges cycle after cycle.

The resulting :class:`BatchReadPlan` quantifies the wetlab work (primer
and reaction counts, amplified-vs-wanted blocks) and carries the concrete
:class:`ElongatedPrimer` objects for the PCR simulator.

The stages are also exposed separately so a serving layer can merge the
addressing of *many* concurrent requests before committing to primers:
:func:`block_ranges_for_read` maps one request to per-partition block
ranges, :func:`merge_partition_ranges` unions the range maps of a whole
batch (deduplicating overlap across tenants), and
:func:`plan_partition_ranges` turns the merged ranges into one shared
:class:`BatchReadPlan` (see :mod:`repro.service`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.elongation import ElongatedPrimer
from repro.core.prefix_cover import PrefixCover
from repro.exceptions import StoreError
from repro.store.objects import ObjectRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.volume import DnaVolume


@dataclass(frozen=True)
class PcrAccess:
    """One planned PCR access: a covered block range in one partition.

    Attributes:
        partition: the partition to amplify.
        start_block / end_block: covered block range (inclusive).
        primers: the multiplexed elongated forward primers of the access.
        cover: the prefix-cover analysis behind the primers.
    """

    partition: str
    start_block: int
    end_block: int
    primers: tuple[ElongatedPrimer, ...]
    cover: PrefixCover

    @property
    def block_count(self) -> int:
        """Blocks retrieved by this access."""
        return self.end_block - self.start_block + 1

    @property
    def primer_count(self) -> int:
        """Primers multiplexed into the reaction."""
        return len(self.primers)


@dataclass(frozen=True)
class BatchReadPlan:
    """The merged access plan for one object read."""

    object_name: str
    accesses: tuple[PcrAccess, ...]

    @property
    def reaction_count(self) -> int:
        """PCR reactions needed (one per partition range)."""
        return len(self.accesses)

    @property
    def primer_count(self) -> int:
        """Total elongated primers across all reactions."""
        return sum(access.primer_count for access in self.accesses)

    @property
    def block_count(self) -> int:
        """Total blocks amplified by the plan."""
        return sum(access.block_count for access in self.accesses)

    def partitions(self) -> list[str]:
        """Partitions touched by the plan, in access order."""
        names: list[str] = []
        for access in self.accesses:
            if access.partition not in names:
                names.append(access.partition)
        return names


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping or adjacent inclusive integer ranges."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def block_ranges_for_read(
    record: ObjectRecord,
    *,
    offset: int = 0,
    length: int | None = None,
) -> dict[str, list[tuple[int, int]]]:
    """Per-partition merged block ranges backing a byte range of an object.

    This is the plan's addressing stage without the primer synthesis: the
    scheduler uses it to deduplicate block ranges across concurrent
    requests before committing to PCR accesses.

    A zero-length read is a valid empty read everywhere in the store layer
    (mirroring ``ObjectStore.get(length=0) == b""``): it touches no blocks,
    so the plan is empty.

    Raises:
        StoreError: if the byte range leaves the object.
    """
    if length is None:
        length = record.size - offset
    if offset < 0 or length < 0 or offset + length > record.size:
        raise StoreError(
            f"range [{offset}, {offset + length}) outside object "
            f"{record.name!r} of {record.size} bytes"
        )
    if length == 0:
        return {}
    block_size = record.block_size
    first_logical = offset // block_size
    last_logical = (offset + length - 1) // block_size

    ranges_by_partition: dict[str, list[tuple[int, int]]] = {}
    for extent, first, last in record.extent_windows(first_logical, last_logical):
        ranges_by_partition.setdefault(extent.partition, []).append(
            (extent.start_block + first, extent.start_block + last)
        )
    return {
        name: _merge_ranges(ranges)
        for name, ranges in ranges_by_partition.items()
    }


def ranges_from_block_keys(
    keys: "list[tuple[str, int]]",
) -> dict[str, list[tuple[int, int]]]:
    """Per-partition merged block ranges from flat ``(partition, block)`` keys.

    The serving pipeline's retry cycles target exactly the blocks that
    failed to decode; this turns that flat key set back into the merged
    per-partition ranges :func:`plan_partition_ranges` consumes.  Partition
    order follows first appearance, keeping retry plans deterministic.
    """
    by_partition: dict[str, list[tuple[int, int]]] = {}
    for partition_name, block in keys:
        by_partition.setdefault(partition_name, []).append((block, block))
    return {
        name: _merge_ranges(ranges) for name, ranges in by_partition.items()
    }


def merge_partition_ranges(
    range_maps: "list[dict[str, list[tuple[int, int]]]]",
) -> dict[str, list[tuple[int, int]]]:
    """Union per-partition range maps from many requests into one.

    Overlapping and adjacent ranges — including identical ranges issued by
    different tenants — collapse into single merged ranges, which is what
    lets one PCR cycle serve every concurrent request that touches the
    same hot blocks.  Partition order follows first appearance, keeping
    the merged plan deterministic.
    """
    combined: dict[str, list[tuple[int, int]]] = {}
    for range_map in range_maps:
        for partition_name, ranges in range_map.items():
            combined.setdefault(partition_name, []).extend(ranges)
    return {name: _merge_ranges(ranges) for name, ranges in combined.items()}


def plan_partition_ranges(
    volume: "DnaVolume",
    ranges_by_partition: dict[str, list[tuple[int, int]]],
    *,
    label: str = "batch",
) -> BatchReadPlan:
    """Build the PCR accesses covering pre-computed per-partition ranges.

    Args:
        volume: the volume holding the partitions.
        ranges_by_partition: inclusive block ranges per partition (merged
            or not; overlapping ranges are merged here).
        label: name recorded on the resulting plan.
    """
    accesses: list[PcrAccess] = []
    for partition_name, ranges in ranges_by_partition.items():
        partition = volume.partition(partition_name)
        for start, end in _merge_ranges(list(ranges)):
            cover, primers = partition.range_plan(start, end)
            accesses.append(
                PcrAccess(
                    partition=partition_name,
                    start_block=start,
                    end_block=end,
                    primers=primers,
                    cover=cover,
                )
            )
    return BatchReadPlan(object_name=label, accesses=tuple(accesses))


def plan_object_read(
    volume: "DnaVolume",
    record: ObjectRecord,
    *,
    offset: int = 0,
    length: int | None = None,
    label: str | None = None,
) -> BatchReadPlan:
    """Plan the PCR accesses that retrieve a byte range of an object.

    Args:
        volume: the volume holding the object's partitions.
        record: the object's catalog record — a live record or one from a
            :class:`repro.store.snapshots.StoreSnapshot` (snapshot blocks
            are physical strands still in the pool, so historical reads
            plan like any other access).
        offset / length: byte range to retrieve (defaults to the whole
            object).
        label: name recorded on the plan (defaults to the record's name;
            the store labels time-travel plans ``name@s<epoch>``).

    Raises:
        StoreError: if the byte range leaves the object.
    """
    ranges = block_ranges_for_read(record, offset=offset, length=length)
    return plan_partition_ranges(
        volume, ranges, label=record.name if label is None else label
    )
