"""Object records and extents for the volume layer.

A stored object is described by an :class:`ObjectRecord`: its byte size
and an ordered list of :class:`Extent` — contiguous block runs inside
individual partitions.  Extents are the unit of striping: a large object
is cut into block-aligned stripes that land on different partitions, so a
batched retrieval can run one (multiplexed) PCR per partition instead of
sequencing a single huge partition end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import StoreError


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks inside one partition.

    Attributes:
        partition: name of the partition holding the blocks.
        start_block: first block number of the run.
        block_count: number of consecutive blocks.
        object_offset: byte offset of this extent within the object.
    """

    partition: str
    start_block: int
    block_count: int
    object_offset: int

    def __post_init__(self) -> None:
        if self.start_block < 0 or self.object_offset < 0:
            raise StoreError("extent offsets must be non-negative")
        if self.block_count <= 0:
            raise StoreError("extent must cover at least one block")

    @property
    def end_block(self) -> int:
        """Last block number of the run (inclusive)."""
        return self.start_block + self.block_count - 1

    def blocks(self) -> range:
        """The block numbers covered by this extent."""
        return range(self.start_block, self.start_block + self.block_count)


@dataclass
class ObjectRecord:
    """Catalog entry for one named object.

    Attributes:
        name: the object's key in the store.
        size: logical object size in bytes.
        block_size: user bytes per block of the volume that allocated it.
        extents: the object's stripes, ordered by ``object_offset``.
        version: bumped once per applied update (informational).
    """

    name: str
    size: int
    block_size: int
    extents: list[Extent] = field(default_factory=list)
    version: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise StoreError("object size must be non-negative")
        if self.block_size <= 0:
            raise StoreError("block_size must be positive")

    def clone(self) -> "ObjectRecord":
        """An independent copy of the record (snapshot/restore support).

        Extents are immutable and shared; the extent *list* and the
        mutable fields are copied, so remaps and version bumps on one
        copy never show through to the other.
        """
        return ObjectRecord(
            name=self.name,
            size=self.size,
            block_size=self.block_size,
            extents=list(self.extents),
            version=self.version,
        )

    def remap_block(
        self, object_offset: int, new_partition: str, new_block: int
    ) -> tuple[str, int]:
        """Redirect one backing block to a freshly allocated block (CoW).

        The extent covering ``object_offset`` is split so that exactly the
        one block holding that offset now lives at ``new_block`` of
        ``new_partition``; the surrounding blocks keep their addresses.
        The volume uses this when an update targets a block a live
        snapshot references: the snapshot keeps the old block, the live
        object moves on to the fresh one.

        Returns:
            The ``(partition, block)`` key the offset previously mapped
            to (the block the snapshot retains).
        """
        extent, old_block = self.locate(object_offset)
        index = self.extents.index(extent)
        delta = (object_offset - extent.object_offset) // self.block_size
        pieces: list[Extent] = []
        if delta > 0:
            pieces.append(
                Extent(
                    partition=extent.partition,
                    start_block=extent.start_block,
                    block_count=delta,
                    object_offset=extent.object_offset,
                )
            )
        pieces.append(
            Extent(
                partition=new_partition,
                start_block=new_block,
                block_count=1,
                object_offset=extent.object_offset + delta * self.block_size,
            )
        )
        tail = extent.block_count - delta - 1
        if tail > 0:
            pieces.append(
                Extent(
                    partition=extent.partition,
                    start_block=extent.start_block + delta + 1,
                    block_count=tail,
                    object_offset=extent.object_offset
                    + (delta + 1) * self.block_size,
                )
            )
        self.extents[index : index + 1] = pieces
        return (extent.partition, old_block)

    @property
    def block_count(self) -> int:
        """Number of blocks backing the object."""
        return sum(extent.block_count for extent in self.extents)

    @property
    def partition_names(self) -> list[str]:
        """Distinct partitions backing the object, in extent order."""
        names: list[str] = []
        for extent in self.extents:
            if extent.partition not in names:
                names.append(extent.partition)
        return names

    def block_length(self, block_index: int) -> int:
        """True byte length of the ``block_index``-th logical block."""
        if not 0 <= block_index < self.block_count:
            raise StoreError(f"block index {block_index} out of range")
        if block_index < self.block_count - 1:
            return self.block_size
        remainder = self.size - block_index * self.block_size
        return remainder if remainder else self.block_size

    def locate(self, offset: int) -> tuple[Extent, int]:
        """Map a byte offset to ``(extent, block number within partition)``.

        Raises:
            StoreError: if the offset is outside the object.
        """
        if not 0 <= offset < max(self.size, 1):
            raise StoreError(
                f"offset {offset} outside object {self.name!r} of {self.size} bytes"
            )
        for extent in self.extents:
            extent_bytes = extent.block_count * self.block_size
            if extent.object_offset <= offset < extent.object_offset + extent_bytes:
                block_delta = (offset - extent.object_offset) // self.block_size
                return extent, extent.start_block + block_delta
        raise StoreError(f"offset {offset} is not covered by any extent")

    def logical_blocks(self) -> list[tuple[Extent, int, int]]:
        """Every backing block as ``(extent, partition block, object offset)``."""
        return list(self.blocks_in_range(0, max(self.block_count - 1, 0)))

    def blocks_in_range(self, first_logical: int, last_logical: int):
        """Backing blocks for a window of logical block indexes (inclusive).

        Extents outside the window are skipped arithmetically, so iterating
        a small byte range of a huge object costs O(extents + window), not
        O(blocks).  Yields ``(extent, partition block, object offset)``.
        """
        for extent, first, last in self.extent_windows(first_logical, last_logical):
            for i in range(first, last + 1):
                yield (
                    extent,
                    extent.start_block + i,
                    extent.object_offset + i * self.block_size,
                )

    def extent_windows(self, first_logical: int, last_logical: int):
        """The part of each extent inside a logical block window (inclusive).

        Yields ``(extent, first, last)`` for every extent the window
        overlaps, ``first..last`` being block indexes within the extent.
        """
        logical = 0
        for extent in self.extents:
            if logical > last_logical:
                break
            first = max(first_logical - logical, 0)
            last = min(last_logical - logical, extent.block_count - 1)
            if first <= last:
                yield extent, first, last
            logical += extent.block_count
