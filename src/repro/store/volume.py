"""The DNA volume: striped block allocation across partitions.

A :class:`DnaVolume` sits between the named-object store and the
:class:`repro.core.pool_manager.DnaPoolManager`.  It owns a growing set of
partitions (each behind its own primer pair allocated from the manager's
library) and hands out :class:`Extent` runs for new objects, striping
consecutive stripes round-robin across partitions:

* striping bounds the per-partition molecule count (keeping index trees
  and PCR products small) and lets a batched retrieval amplify several
  partitions in parallel;
* allocation is append-only per partition — DNA is immutable, so deleted
  objects surrender their catalog entry but their block addresses are
  never reused (a reused address would collide with the old strands still
  in the pool).

The volume is also **snapshotable** (see :mod:`repro.store.snapshots`):
:meth:`DnaVolume.snapshot` captures a refcounted copy-on-write view.
While a snapshot is live, an update targeting a captured block is
redirected to a freshly allocated block (the snapshot keeps the old one),
:meth:`DnaVolume.release` defers reclamation of captured blocks until the
last referencing snapshot is released, and :meth:`DnaVolume.restore`
rewinds the allocation frontier to the capture point, dropping only
blocks no live snapshot still references.  Every written block carries a
*birth epoch* that cached decoded payloads are keyed by, so views from
different store generations can never alias in a block cache.

All digital I/O against the allocated blocks (write, reference read,
block-granular update patches) also lives here; the object-level catalog
is :class:`repro.store.object_store.ObjectStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.matrix_unit import UnitLayout
from repro.codec.molecule import Molecule, MoleculeLayout
from repro.core.addressing import BlockAddress
from repro.core.partition import Partition
from repro.core.pool_manager import DnaPoolManager
from repro.core.updates import FRAMED_HEADER_BYTES, UpdatePatch, diff_span
from repro.exceptions import StoreError
from repro.store.objects import Extent, ObjectRecord
from repro.store.snapshots import VolumeSnapshot


@dataclass(frozen=True)
class VolumeConfig:
    """Static configuration of a volume.

    Attributes:
        partition_leaf_count: blocks per partition (index-tree leaves).
        stripe_blocks: blocks per stripe before rotating to the next
            partition.
        stripe_width: number of partitions a large object is spread over
            before a partition is revisited.
        slots_per_block: version slots per block (1 original + updates).
        unit_layout: geometry of one encoding unit.
        molecule_layout: geometry of one DNA strand.
        partition_prefix: prefix used when naming partitions.
    """

    partition_leaf_count: int = 256
    stripe_blocks: int = 16
    stripe_width: int = 4
    slots_per_block: int = 4
    unit_layout: UnitLayout = field(default_factory=UnitLayout)
    molecule_layout: MoleculeLayout = field(default_factory=MoleculeLayout)
    partition_prefix: str = "vol"

    def __post_init__(self) -> None:
        if self.partition_leaf_count <= 0:
            raise StoreError("partition_leaf_count must be positive")
        if self.stripe_blocks <= 0:
            raise StoreError("stripe_blocks must be positive")
        if self.stripe_width <= 0:
            raise StoreError("stripe_width must be positive")
        if self.stripe_blocks > self.partition_leaf_count:
            raise StoreError("stripe_blocks cannot exceed partition_leaf_count")


class DnaVolume:
    """Striped block allocation and digital block I/O over a pool manager."""

    def __init__(
        self,
        pool: DnaPoolManager | None = None,
        *,
        config: VolumeConfig | None = None,
    ) -> None:
        self.pool = pool if pool is not None else DnaPoolManager()
        self.config = config or VolumeConfig()
        #: Next unwritten block per partition (append-only allocation).
        self._next_block: dict[str, int] = {}
        #: Round-robin cursor over the volume's partitions.
        self._cursor = 0
        #: Blocks surrendered by deleted objects (lifetime counter).
        self.retired_blocks = 0
        #: Retired blocks whose digital record was actually dropped
        #: (immediately, or deferred until the last snapshot released).
        self.reclaimed_blocks = 0
        #: Blocks copy-on-write-redirected because a live snapshot
        #: referenced the original (lifetime counter).
        self.cow_blocks = 0
        #: Store generation, bumped by snapshot() and restore(); newly
        #: written blocks are stamped with it (their *birth epoch*).
        self._epoch = 0
        #: Birth epoch per written block (missing entries mean epoch 0).
        self._block_epoch: dict[tuple[str, int], int] = {}
        #: Live snapshots by id.
        self._snapshots: dict[int, VolumeSnapshot] = {}
        #: Live-snapshot references per captured block.
        self._refcounts: dict[tuple[str, int], int] = {}
        #: Blocks released from the live catalog but still referenced by
        #: a snapshot — readable through it, reclaimed when it releases.
        self._deferred: dict[tuple[str, int], None] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """User-visible bytes per block."""
        return self.config.unit_layout.user_data_bytes

    @property
    def partition_names(self) -> list[str]:
        """Partitions created by this volume, in creation order."""
        return list(self._next_block)

    @property
    def strands_per_block_slot(self) -> int:
        """DNA strands synthesized per written block version slot.

        One block slot is one encoding unit — its data and ECC columns
        each become one strand — so a synthesis order for ``n`` new block
        slots (originals or update patches) manufactures
        ``n * strands_per_block_slot`` distinct molecules.
        """
        return self.config.unit_layout.total_molecules

    @property
    def strand_nucleotides(self) -> int:
        """Bases per synthesized strand (primers, indexes and payload)."""
        return self.config.molecule_layout.strand_length

    def synthesis_footprint(self, block_slots: int) -> tuple[int, int]:
        """(strands, nucleotides) a synthesis order for block slots costs.

        Used by the serving pipeline to charge queued writes synthesis
        work the way reads are charged PCR reactions and sequencing reads.
        """
        if block_slots < 0:
            raise StoreError("block_slots must be non-negative")
        strands = block_slots * self.strands_per_block_slot
        return strands, strands * self.strand_nucleotides

    def partition(self, name: str) -> Partition:
        """The partition registered under ``name``."""
        return self.pool.partition(name)

    def free_blocks(self, name: str) -> int:
        """Unallocated blocks remaining in one partition.

        Raises:
            StoreError: if the partition is not part of this volume.
        """
        try:
            allocated = self._next_block[name]
        except KeyError as exc:
            raise StoreError(f"unknown partition {name!r}") from exc
        return self.config.partition_leaf_count - allocated

    def allocated_blocks(self) -> int:
        """Blocks handed out across all partitions."""
        return sum(self._next_block.values())

    def block_epoch(self, name: str, block: int) -> int:
        """Birth epoch of one written block (cache-key component).

        A block keeps its birth epoch for as long as it exists; after a
        :meth:`restore`, a fresh block written at the same address gets
        the new generation's epoch, so decoded-block caches keyed by
        ``(partition, block, epoch)`` can never serve bytes from a
        previous store generation.
        """
        return self._block_epoch.get((name, block), 0)

    @property
    def epoch(self) -> int:
        """Current store generation (bumped by snapshot and restore)."""
        return self._epoch

    def live_snapshots(self) -> list[VolumeSnapshot]:
        """Snapshots not yet released, oldest first."""
        return [self._snapshots[key] for key in sorted(self._snapshots)]

    def deferred_block_count(self) -> int:
        """Released blocks still pinned by a live snapshot."""
        return len(self._deferred)

    def is_deferred(self, name: str, block: int) -> bool:
        """Whether one released block is awaiting snapshot release."""
        return (name, block) in self._deferred

    def snapshot_references(self, name: str, block: int) -> int:
        """Live snapshots referencing one block."""
        return self._refcounts.get((name, block), 0)

    # ------------------------------------------------------------------
    # Partition lifecycle
    # ------------------------------------------------------------------
    def _create_partition(self) -> str:
        name = f"{self.config.partition_prefix}-{len(self._next_block):03d}"
        if name in self.pool:
            # A partition created after a snapshot and emptied again by a
            # restore: re-adopt the existing (digitally empty) partition so
            # re-running the same workload reuses the same primers and
            # seeds deterministically.
            partition = self.pool.partition(name)
            if partition.block_count:
                raise StoreError(
                    f"partition {name!r} already exists in the pool and "
                    "holds data; it cannot be re-adopted by the volume"
                )
        else:
            self.pool.create_partition(
                name,
                leaf_count=self.config.partition_leaf_count,
                slots_per_block=self.config.slots_per_block,
                unit_layout=self.config.unit_layout,
                molecule_layout=self.config.molecule_layout,
            )
        self._next_block[name] = 0
        return name

    def _partition_with_space(self) -> str:
        """Next partition (round-robin) with at least one free block.

        The volume grows until it is ``stripe_width`` partitions wide, then
        rotates over them; further partitions are created only when every
        existing one is full.
        """
        names = self.partition_names
        if len(names) < self.config.stripe_width:
            return self._create_partition()
        for _ in range(len(names)):
            name = names[self._cursor % len(names)]
            self._cursor += 1
            if self.free_blocks(name) > 0:
                return name
        return self._create_partition()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int) -> list[Extent]:
        """Allocate extents for ``size`` bytes, striped across partitions.

        Consecutive stripes of ``config.stripe_blocks`` blocks rotate
        round-robin over the volume's partitions; new partitions (with
        fresh primer pairs from the manager's library) are created on
        demand, so objects of any size fit.
        """
        if size <= 0:
            raise StoreError("cannot allocate zero bytes")
        blocks_needed = -(-size // self.block_size)
        extents: list[Extent] = []
        object_offset = 0
        while blocks_needed > 0:
            name = self._partition_with_space()
            start = self._next_block[name]
            count = min(blocks_needed, self.config.stripe_blocks, self.free_blocks(name))
            self._next_block[name] = start + count
            extents.append(
                Extent(
                    partition=name,
                    start_block=start,
                    block_count=count,
                    object_offset=object_offset,
                )
            )
            object_offset += count * self.block_size
            blocks_needed -= count
        return extents

    def _allocate_block(self) -> tuple[str, int]:
        """Allocate a single fresh block (copy-on-write redirection)."""
        name = self._partition_with_space()
        block = self._next_block[name]
        self._next_block[name] = block + 1
        return name, block

    def release(self, extents: list[Extent]) -> None:
        """Retire extents of a deleted object (addresses are never reused).

        A retired block still referenced by a live snapshot stays readable
        through it: reclamation of its digital record is *deferred* until
        the last referencing snapshot is released.  Unreferenced blocks
        are reclaimed immediately.

        Raises:
            StoreError: if a block was already released (double free) or
                never written — either would silently corrupt a
                snapshot's view or the reclamation accounting.
        """
        for extent in extents:
            partition = self.partition(extent.partition)
            for block in extent.blocks():
                key = (extent.partition, block)
                if key in self._deferred:
                    raise StoreError(
                        f"block {block} of partition {extent.partition!r} "
                        "was already released (reclamation pending on a "
                        "live snapshot); double free"
                    )
                if not partition.has_block(block):
                    raise StoreError(
                        f"block {block} of partition {extent.partition!r} "
                        "holds no data (already reclaimed or never "
                        "written); double free"
                    )
        for extent in extents:
            for block in extent.blocks():
                self._release_block((extent.partition, block))
        self.retired_blocks += sum(extent.block_count for extent in extents)

    def _release_block(self, key: tuple[str, int]) -> None:
        """Defer (snapshot-referenced) or immediately reclaim one block."""
        if self._refcounts.get(key, 0) > 0:
            self._deferred[key] = None
        else:
            self._reclaim(key)

    def _reclaim(self, key: tuple[str, int]) -> None:
        """Drop a block's digital record (no live reference remains)."""
        self.partition(key[0]).drop_block(key[1])
        self._block_epoch.pop(key, None)
        self.reclaimed_blocks += 1

    # ------------------------------------------------------------------
    # Snapshots (copy-on-write views)
    # ------------------------------------------------------------------
    def snapshot(self) -> VolumeSnapshot:
        """Capture a refcounted point-in-time view of the volume.

        The snapshot references every currently live block (released
        blocks pending reclamation are excluded) and records each block's
        update-patch chain length.  While it is live:

        * updates targeting captured blocks are copy-on-write-redirected
          to fresh blocks (:meth:`update_record`);
        * :meth:`release` defers reclamation of captured blocks;
        * :meth:`restore` can rewind the volume to this exact state.

        Capturing is O(written blocks) and copies no data.
        """
        self._epoch += 1
        captured: dict[str, dict[int, int]] = {}
        for name in self._next_block:
            partition = self.partition(name)
            blocks: dict[int, int] = {}
            for block in partition.written_blocks():
                if (name, block) in self._deferred:
                    continue
                blocks[block] = partition.update_count(block)
            captured[name] = blocks
            for block in blocks:
                key = (name, block)
                self._refcounts[key] = self._refcounts.get(key, 0) + 1
        snapshot = VolumeSnapshot(
            snapshot_id=self._epoch,
            captured=captured,
            frontier=dict(self._next_block),
            cursor=self._cursor,
            _volume=self,
        )
        self._snapshots[snapshot.snapshot_id] = snapshot
        return snapshot

    def release_snapshot(self, snapshot: VolumeSnapshot) -> int:
        """Release a snapshot, reclaiming blocks only it still protected.

        Returns:
            The number of deferred blocks reclaimed by this release.

        Raises:
            StoreError: if the snapshot was already released or belongs
                to another volume.
        """
        snapshot.require_live()
        if self._snapshots.get(snapshot.snapshot_id) is not snapshot:
            raise StoreError(
                f"snapshot {snapshot.snapshot_id} is not a live snapshot "
                "of this volume"
            )
        del self._snapshots[snapshot.snapshot_id]
        snapshot.released = True
        reclaimed = 0
        for name, blocks in snapshot.captured.items():
            for block in blocks:
                key = (name, block)
                remaining = self._refcounts.get(key, 0) - 1
                if remaining > 0:
                    self._refcounts[key] = remaining
                    continue
                self._refcounts.pop(key, None)
                if key in self._deferred:
                    del self._deferred[key]
                    self._reclaim(key)
                    reclaimed += 1
        return reclaimed

    def restore(self, snapshot: VolumeSnapshot) -> list[str]:
        """Rewind the volume to a live snapshot's captured state.

        The allocation frontier, round-robin cursor and per-partition
        contents return to the capture point: blocks allocated after the
        capture are dropped — unless a *newer* live snapshot references
        them, in which case they are deferred (and reclaimed when that
        snapshot releases) and the frontier stays above them.  Blocks the
        snapshot captured that were released afterwards become live
        again (the restored catalog references them).

        Address-reuse safety is preserved: rewound addresses are only
        ever rewritten once no snapshot can still read their old bytes,
        and the epoch bump gives rewritten addresses fresh cache keys.

        Returns:
            Names of partitions whose digital contents changed (their
            synthesized wetlab pools must be re-synthesized).

        Raises:
            StoreError: if the snapshot is released or foreign.
        """
        snapshot.require_live()
        if self._snapshots.get(snapshot.snapshot_id) is not snapshot:
            raise StoreError(
                f"snapshot {snapshot.snapshot_id} is not a live snapshot "
                "of this volume"
            )
        self._epoch += 1
        # Frontier floor per partition: nothing a newer live snapshot
        # references may be dropped or re-allocated.
        floor: dict[str, int] = {}
        for other in self._snapshots.values():
            if other is snapshot:
                continue
            for name, next_block in other.frontier.items():
                floor[name] = max(floor.get(name, 0), next_block)
        changed: list[str] = []
        for name in list(self._next_block):
            target = snapshot.frontier.get(name, 0)
            keep_until = max(target, floor.get(name, 0))
            current = self._next_block[name]
            partition = self.partition(name)
            touched = False
            for block in range(target, current):
                key = (name, block)
                if not partition.has_block(block):
                    continue
                if block < keep_until:
                    # Referenced by a newer live snapshot: orphaned from
                    # every catalog, readable through that snapshot, and
                    # reclaimed when it releases.
                    self._deferred.setdefault(key, None)
                else:
                    self._deferred.pop(key, None)
                    self._reclaim(key)
                    touched = True
            if touched:
                changed.append(name)
            if keep_until == 0 and name not in snapshot.frontier:
                # Partition born after the capture and emptied again: the
                # volume forgets it (the pool keeps the primer pair; a
                # re-run re-adopts it under the same name).
                del self._next_block[name]
            else:
                self._next_block[name] = keep_until
        # Captured blocks released after the capture are live again.
        for key in list(self._deferred):
            if snapshot.contains(*key):
                del self._deferred[key]
        self._cursor = snapshot.cursor
        return changed

    # ------------------------------------------------------------------
    # Digital block I/O
    # ------------------------------------------------------------------
    def write_extents(self, data: bytes, extents: list[Extent]) -> None:
        """Write object bytes into their allocated extents."""
        for extent in extents:
            partition = self.partition(extent.partition)
            chunk = data[
                extent.object_offset : extent.object_offset
                + extent.block_count * self.block_size
            ]
            partition.write(chunk, start_block=extent.start_block)
            if self._epoch:
                for block in extent.blocks():
                    self._block_epoch[(extent.partition, block)] = self._epoch

    def read_record(
        self,
        record: ObjectRecord,
        *,
        offset: int = 0,
        length: int | None = None,
        block_cache=None,
        at: VolumeSnapshot | None = None,
    ) -> bytes:
        """Digitally read an object byte range (reference path).

        Only the blocks overlapping the requested range are read and have
        their update-patch chains applied, so the cost scales with the
        request, not the object.  Store-level updates are size-preserving,
        so every non-final block contributes exactly ``block_size`` bytes.

        Args:
            block_cache: optional decoded-block cache (anything with
                ``get(partition, block, epoch)`` /
                ``put(partition, block, data, epoch)``, e.g.
                :class:`repro.service.DecodedBlockCache`); cached blocks
                skip the partition read, missing blocks are inserted
                after decoding.  The epoch is the block's birth epoch, so
                entries from different store generations never alias —
                and a time-travel read of an unchanged block shares the
                live read's cache entry.
            at: optional live snapshot; ``record`` must then be that
                snapshot's catalog record, and each block applies only
                the patch-chain prefix the snapshot captured.
        """
        if at is not None:
            at.require_live()
        if length is None:
            length = record.size - offset
        if offset < 0 or length < 0 or offset + length > record.size:
            raise StoreError(
                f"range [{offset}, {offset + length}) outside object of "
                f"{record.size} bytes"
            )
        if length == 0:
            return b""
        first_block = offset // self.block_size
        last_block = (offset + length - 1) // self.block_size
        pieces: list[bytes] = []
        for extent, partition_block, _ in record.blocks_in_range(
            first_block, last_block
        ):
            patch_limit = None
            if at is not None:
                patch_limit = at.patch_count(extent.partition, partition_block)
            data = None
            epoch = self._block_epoch.get((extent.partition, partition_block), 0)
            if block_cache is not None:
                data = block_cache.get(extent.partition, partition_block, epoch)
            if data is None:
                data = self.partition(extent.partition).read_block_reference(
                    partition_block, patch_limit=patch_limit
                )
                if block_cache is not None:
                    block_cache.put(extent.partition, partition_block, data, epoch)
            pieces.append(data)
        combined = b"".join(pieces)
        start = offset - first_block * self.block_size
        return combined[start : start + length]

    def update_record(
        self, record: ObjectRecord, offset: int, new_bytes: bytes
    ) -> list[tuple[str, int]]:
        """Apply an in-place byte-range update as block-granular patches.

        A touched block normally gets one minimal :class:`UpdatePatch`
        (logged in the block's next version slot; the original DNA is
        immutable).  When the block is referenced by a live snapshot,
        patching it in place would corrupt the snapshot's view, so the
        write is **copy-on-write redirected** instead: a fresh block is
        allocated, the spliced contents are written there as a new
        original, and the record's extent map is remapped — the snapshot
        keeps the old block (now pending reclamation with it).

        The operation is all-or-nothing on the record's visible bytes:
        every in-place patch is computed and validated against its
        block's remaining version slots before anything is applied, and
        redirected blocks are written before any extent is remapped, so a
        failure never leaves the object half-updated (or burns slots on a
        retry).

        Returns:
            The written blocks as ``(partition name, block)`` pairs —
            patched blocks under their existing key (exactly the cache
            keys to invalidate), redirected blocks under their fresh key
            (nothing stale to invalidate; the key names the synthesis
            work).  Unchanged blocks are skipped.

        Raises:
            StoreError: if the range leaves the object, or a touched block
                has no free update slot / cannot hold the patch.
        """
        if not new_bytes:
            return []
        if offset < 0 or offset + len(new_bytes) > record.size:
            raise StoreError(
                f"update range [{offset}, {offset + len(new_bytes)}) outside "
                f"object of {record.size} bytes"
            )
        first_block = offset // self.block_size
        last_block = (offset + len(new_bytes) - 1) // self.block_size
        planned: list[tuple[Partition, str, int]] = []
        patches = []
        redirects: list[tuple[int, bytes]] = []  # (block offset, new bytes)
        for extent, partition_block, block_offset in record.blocks_in_range(
            first_block, last_block
        ):
            partition = self.partition(extent.partition)
            old = partition.read_block_reference(partition_block)
            # Splice the overlapping byte range into this block's bytes.
            lo = max(offset, block_offset)
            hi = min(offset + len(new_bytes), block_offset + len(old))
            if lo >= hi:
                continue
            new = (
                old[: lo - block_offset]
                + new_bytes[lo - offset : hi - offset]
                + old[hi - block_offset :]
            )
            if new == old:
                continue
            if self._refcounts.get((extent.partition, partition_block), 0) > 0:
                # Shared with a live snapshot: redirect, don't patch.
                redirects.append((block_offset, new))
                continue
            slots = partition.config.slots_per_block
            if partition.update_count(partition_block) + 1 >= slots:
                raise StoreError(
                    f"block {partition_block} of partition {extent.partition!r} "
                    f"has no free update slot (limit {slots - 1}); "
                    "no patch of this update was applied"
                )
            # Size the framed patch before building it: rewriting a whole
            # block needs a delete length the one-byte field cannot hold,
            # and such a patch could never fit the block anyway.
            start, delete_length, insert_bytes = diff_span(old, new)
            framed_size = FRAMED_HEADER_BYTES + len(insert_bytes)
            if framed_size > self.block_size:
                raise StoreError(
                    f"patch of {framed_size} bytes for block "
                    f"{partition_block} exceeds the block size; "
                    "no patch of this update was applied"
                )
            planned.append((partition, extent.partition, partition_block))
            patches.append(UpdatePatch(start, delete_length, start, insert_bytes))
        # Write every redirected block before remapping anything: an
        # allocation failure here leaves the record untouched — and the
        # blocks already written for this batch are dropped again, so a
        # failed update can never leak record-less blocks that every
        # future snapshot would capture as live.
        written: list[tuple[int, str, int]] = []
        try:
            for block_offset, new in redirects:
                name, block = self._allocate_block()
                self.partition(name).write_block(block, new)
                self._block_epoch[(name, block)] = self._epoch
                written.append((block_offset, name, block))
        except Exception:
            for _, name, block in written:
                self.partition(name).drop_block(block)
                self._block_epoch.pop((name, block), None)
            raise
        touched: list[tuple[str, int]] = []
        for block_offset, name, block in written:
            old_key = record.remap_block(block_offset, name, block)
            # The live catalog no longer references the old block; it
            # survives exactly as long as a snapshot does.
            self._release_block(old_key)
            self.cow_blocks += 1
            touched.append((name, block))
        for (partition, name, partition_block), patch in zip(planned, patches):
            partition.update_block(partition_block, patch)
            touched.append((name, partition_block))
        return touched

    # ------------------------------------------------------------------
    # Synthesis support
    # ------------------------------------------------------------------
    def molecules_for_record(
        self, record: ObjectRecord, *, include_updates: bool = True
    ) -> dict[str, list[Molecule]]:
        """Build the object's molecules, grouped by partition.

        Each partition's units go through one batched codec pass.
        """
        addresses: dict[str, list[BlockAddress]] = {}
        for extent in record.extents:
            partition = self.partition(extent.partition)
            bucket = addresses.setdefault(extent.partition, [])
            for block in extent.blocks():
                bucket.append(BlockAddress(block=block, slot=0))
                if include_updates:
                    for version in range(1, partition.update_count(block) + 1):
                        bucket.append(BlockAddress(block=block, slot=version))
        return {
            name: self.partition(name).molecules_for_addresses(address_list)
            for name, address_list in addresses.items()
        }
