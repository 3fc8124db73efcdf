"""Named-object storage on top of a :class:`DnaVolume`.

The :class:`ObjectStore` is the user-facing API of the volume layer:
``put`` stripes an object of any size across partitions, ``get`` reads it
back (reference path), ``update`` logs block-granular patches against the
immutable original DNA, and ``delete`` drops the catalog entry (retiring
— never reusing — the underlying block addresses).

Two retrieval paths exist:

* :meth:`ObjectStore.get` — the digital reference read used by tests and
  benchmarks (originals plus patch chains, no wetlab round trip);
* :meth:`ObjectStore.decode_object` — the full pipeline: per-partition
  sequencing reads are clustered, reconstructed and Reed-Solomon decoded
  through :class:`repro.pipeline.decoder.BlockDecoder`, block by block,
  with updates applied in slot order.

:meth:`ObjectStore.read_plan` exposes the batched prefix-cover planner so
callers can run the minimal set of PCR reactions for an object (or byte
range) before sequencing.

The store is **snapshotable**: :meth:`ObjectStore.snapshot` captures a
copy-on-write :class:`repro.store.snapshots.StoreSnapshot` (catalog plus
volume view), :meth:`ObjectStore.restore` rewinds the store to one, and
``get`` / ``block_ranges`` / ``read_plan`` accept ``at=snapshot`` for
time-travel reads of historical object versions.
"""

from __future__ import annotations

from repro.exceptions import StoreError
from repro.observability.tracing import maybe_wall_span
from repro.pipeline.decoder import BlockDecoder
from repro.store.objects import ObjectRecord
from repro.store.planner import (
    BatchReadPlan,
    block_ranges_for_read,
    plan_object_read,
)
from repro.store.snapshots import StoreSnapshot
from repro.store.volume import DnaVolume


#: Sentinel distinguishing "no block_cache argument" (use the attached
#: cache) from an explicit ``block_cache=None`` (bypass any cache).
_ATTACHED = object()


class ObjectStore:
    """A named put/get/update/delete API over striped DNA partitions."""

    def __init__(self, volume: DnaVolume | None = None) -> None:
        self.volume = volume if volume is not None else DnaVolume()
        self._catalog: dict[str, ObjectRecord] = {}
        #: Optional decoded-block cache consulted by ``get`` and kept
        #: coherent by ``update``/``delete`` (see ``attach_cache``).
        self.block_cache = None

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def names(self) -> list[str]:
        """Stored object names, in insertion order."""
        return list(self._catalog)

    def record(self, name: str, *, at: StoreSnapshot | None = None) -> ObjectRecord:
        """The catalog record of one object (live, or as of a snapshot)."""
        if at is not None:
            return at.record(name)
        try:
            return self._catalog[name]
        except KeyError as exc:
            raise StoreError(f"unknown object {name!r}") from exc

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> StoreSnapshot:
        """Capture a copy-on-write point-in-time view of the store.

        The snapshot pairs a copy of the object catalog with a refcounted
        :class:`repro.store.snapshots.VolumeSnapshot`; no block data is
        copied.  While it is live, writes copy-on-write around it,
        deletes defer block reclamation, ``get(name, at=snapshot)`` reads
        historical versions, and :meth:`restore` rewinds to it.  Release
        it (``snapshot.release()``) when the view is no longer needed so
        deferred blocks can be reclaimed.
        """
        return StoreSnapshot(
            volume=self.volume.snapshot(),
            catalog={name: record.clone() for name, record in self._catalog.items()},
        )

    def restore(self, snapshot: StoreSnapshot) -> list[str]:
        """Rewind the store to a live snapshot's captured state.

        The catalog and the volume's allocation frontier return to the
        capture point (see :meth:`repro.store.volume.DnaVolume.restore`);
        the snapshot stays live, so it can be restored repeatedly — the
        backbone of :meth:`repro.service.ServicePipeline.compare`, which
        serves every policy run from one restored seed store.

        Returns:
            Names of partitions whose digital contents changed (callers
            holding synthesized wetlab pools must re-synthesize exactly
            those).
        """
        changed = self.volume.restore(snapshot.volume)
        self._catalog = {
            name: record.clone() for name, record in snapshot.catalog.items()
        }
        return changed

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def put(self, name: str, data: bytes) -> ObjectRecord:
        """Store a new object, striping it across the volume's partitions.

        Raises:
            StoreError: if the name is taken or the object is empty.
        """
        if name in self._catalog:
            raise StoreError(f"object {name!r} already exists")
        if not data:
            raise StoreError("cannot store an empty object")
        extents = self.volume.allocate(len(data))
        self.volume.write_extents(data, extents)
        record = ObjectRecord(
            name=name,
            size=len(data),
            block_size=self.volume.block_size,
            extents=extents,
        )
        self._catalog[name] = record
        return record

    def attach_cache(self, cache) -> None:
        """Attach a decoded-block cache to the read path.

        ``cache`` is anything with ``get``/``put``/``invalidate`` keyed by
        ``(partition name, block)`` — in practice a
        :class:`repro.service.DecodedBlockCache`.  Once attached, ``get``
        serves hot blocks without touching the partition (no wetlab work),
        and ``update``/``delete`` invalidate stale entries.
        """
        self.block_cache = cache

    def get(
        self,
        name: str,
        *,
        offset: int = 0,
        length: int | None = None,
        block_cache=_ATTACHED,
        at: StoreSnapshot | None = None,
    ) -> bytes:
        """Read an object (or byte range) with all updates applied.

        Args:
            block_cache: decoded-block cache to consult/fill for this read.
                Omitted, it defaults to the cache attached via
                :meth:`attach_cache`; pass ``None`` explicitly to bypass
                any attached cache.
            at: optional live snapshot — a *time-travel read*: the object
                is resolved against the snapshot's catalog and each block
                applies only the update chain captured then.  Blocks
                unchanged since the capture share the live read path's
                cache entries (their birth epoch is the cache key).
        """
        record = self.record(name, at=at)
        cache = self.block_cache if block_cache is _ATTACHED else block_cache
        return self.volume.read_record(
            record,
            offset=offset,
            length=length,
            block_cache=cache,
            at=None if at is None else at.volume,
        )

    def update(self, name: str, offset: int, new_bytes: bytes) -> int:
        """Overwrite a byte range in place via block-granular patches.

        The object's size is unchanged; every touched block logs one
        minimal update patch in its next version slot (Section 5 of the
        paper) and is invalidated from the attached block cache.  Returns
        the number of blocks patched.
        """
        return len(self.update_blocks(name, offset, new_bytes))

    def update_blocks(
        self, name: str, offset: int, new_bytes: bytes
    ) -> list[tuple[str, int]]:
        """Like :meth:`update`, returning the patched block keys.

        The serving pipeline uses the ``(partition, block)`` keys to size
        the write's synthesis order and to re-synthesize exactly the
        affected wetlab pools.
        """
        record = self.record(name)
        patched = self.volume.update_record(record, offset, new_bytes)
        if patched:
            record.version += 1
        if self.block_cache is not None:
            for partition_name, block in patched:
                self.block_cache.invalidate(
                    partition_name,
                    block,
                    self.volume.block_epoch(partition_name, block),
                )
        return patched

    def delete(self, name: str) -> ObjectRecord:
        """Drop an object from the catalog and retire its extents.

        The DNA strands are immutable, so the addresses are retired rather
        than reused; blocks a live snapshot references stay readable
        through it (their reclamation is deferred), the rest reclaim
        immediately.  Physical reclamation is the next pool re-synthesis.
        """
        record = self.record(name)
        # Capture cache epochs before the release reclaims any block.
        stale = [
            (extent.partition, block, self.volume.block_epoch(extent.partition, block))
            for extent in record.extents
            for block in extent.blocks()
        ]
        del self._catalog[name]
        self.volume.release(record.extents)
        if self.block_cache is not None:
            for partition_name, block, epoch in stale:
                self.block_cache.invalidate(partition_name, block, epoch)
        return record

    # ------------------------------------------------------------------
    # Batched retrieval
    # ------------------------------------------------------------------
    def read_plan(
        self,
        name: str,
        *,
        offset: int = 0,
        length: int | None = None,
        at: StoreSnapshot | None = None,
    ) -> BatchReadPlan:
        """The merged prefix-cover PCR plan for an object (or byte range).

        With ``at=snapshot`` the plan targets the snapshot's version of
        the object — its blocks are physical strands still in the pool,
        so a historical read costs ordinary PCR accesses (labelled with
        the snapshot epoch for diagnostics).
        """
        record = self.record(name, at=at)
        label = record.name if at is None else f"{record.name}@s{at.epoch}"
        return plan_object_read(
            self.volume, record, offset=offset, length=length, label=label
        )

    def block_ranges(
        self,
        name: str,
        *,
        offset: int = 0,
        length: int | None = None,
        at: StoreSnapshot | None = None,
    ) -> dict[str, list[tuple[int, int]]]:
        """Per-partition merged block ranges backing an object byte range.

        The addressing stage of :meth:`read_plan` without the primer
        synthesis — what the serving layer's batch scheduler merges across
        concurrent requests before planning one shared PCR cycle.  With
        ``at=snapshot`` the ranges address the snapshot's version; blocks
        unchanged since the capture carry the same keys as live reads, so
        historical and current requests dedupe into the same accesses.
        """
        return block_ranges_for_read(
            self.record(name, at=at), offset=offset, length=length
        )

    def decode_blocks(
        self,
        blocks_by_partition: dict[str, list[int]],
        reads_by_partition: dict[str, list[str]],
        *,
        workers: int | None = None,
        cluster_shards: int | None = None,
        **decoder_options,
    ) -> dict[tuple[str, int], bytes]:
        """Decode exactly one set of blocks from per-partition reads.

        The range-granular counterpart of :meth:`decode_object`: the
        serving layer's batch scheduler plans block *ranges* spanning many
        objects, so the decode step must target precisely the planned block
        set — each partition's reads go through one clustering pass and one
        batched Reed-Solomon pass over only the requested blocks
        (:meth:`BlockDecoder.decode_readout`).

        Args:
            blocks_by_partition: partition-local block numbers to decode.
            reads_by_partition: raw read strings per partition name (e.g.
                the sequencing output of the plan's PCR accesses).
            workers: ignored (decode is inline); validated as >= 1 when
                set, and accepted only while ``perfbench/workloads.py``
                still passes it.
            cluster_shards: ignored and validated like ``workers``.
            decoder_options: forwarded to :class:`BlockDecoder`.

        Returns:
            The decoded current contents (updates applied, trimmed to the
            block's true stored length) keyed by ``(partition, block)``.

        Raises:
            StoreError: if reads for a required partition are missing or a
                block cannot be decoded.
        """
        payloads, failures = self.try_decode_blocks(
            blocks_by_partition,
            reads_by_partition,
            workers=workers,
            cluster_shards=cluster_shards,
            **decoder_options,
        )
        if failures:
            raise StoreError(next(iter(failures.values())))
        return payloads

    def try_decode_blocks(
        self,
        blocks_by_partition: dict[str, list[int]],
        reads_by_partition: dict[str, list[str]],
        *,
        workers: int | None = None,
        cluster_shards: int | None = None,
        **decoder_options,
    ) -> tuple[dict[tuple[str, int], bytes], dict[tuple[str, int], str]]:
        """Decode a block set, reporting per-block failures instead of raising.

        The serving pipeline's retry cycles need to know *which* blocks of
        a wetlab cycle failed (insufficient coverage, unclusterable reads)
        so only the affected requests re-enter a deeper-coverage cycle.

        Each partition's readout decodes inline, in
        ``blocks_by_partition`` order, under one ``decode:<partition>``
        wall span.  ``workers`` and ``cluster_shards`` are ignored, as in
        :meth:`decode_blocks`.

        Returns:
            ``(payloads, failures)``: decoded current contents keyed by
            ``(partition, block)``, and a human-readable failure reason
            per block that could not be decoded (missing partition reads
            fail every requested block of that partition).
        """
        for name, value in (("workers", workers), ("cluster_shards", cluster_shards)):
            if value is not None and value < 1:
                raise StoreError(f"{name} must be >= 1 when set")
        payloads: dict[tuple[str, int], bytes] = {}
        failures: dict[tuple[str, int], str] = {}
        for partition_name, blocks in blocks_by_partition.items():
            if not blocks:
                continue
            targets = sorted(set(blocks))
            if partition_name not in reads_by_partition:
                for block in targets:
                    failures[(partition_name, block)] = (
                        f"no reads provided for partition {partition_name!r}"
                    )
                continue
            partition = self.volume.partition(partition_name)
            reads = reads_by_partition[partition_name]
            with maybe_wall_span(
                f"decode:{partition_name}", blocks=len(targets), reads=len(reads)
            ):
                reports = BlockDecoder(partition, **decoder_options).decode_readout(
                    reads, targets
                )
            for block in targets:
                report = reports[block]
                if not report.success or report.data is None:
                    failures[(partition_name, block)] = (
                        f"failed to decode block {block} of partition "
                        f"{partition_name!r} ({report.reads_on_prefix} "
                        f"on-prefix reads, {report.clusters_total} clusters)"
                    )
                    continue
                # Updates are size-preserving, so the stored original's
                # length is the block's true current length; the decoded
                # unit is padded to the full block size.
                true_length = len(partition.original_block_data(block))
                payloads[(partition_name, block)] = report.data[:true_length]
        return payloads, failures

    def decode_object(
        self,
        name: str,
        reads_by_partition: dict[str, list[str]],
        *,
        workers: int | None = None,
        cluster_shards: int | None = None,
        **decoder_options,
    ) -> bytes:
        """Decode an object from per-partition sequencing reads.

        Args:
            reads_by_partition: raw read strings per partition name (e.g.
                the sequencing output of the plan's PCR accesses).
            workers / cluster_shards: ignored, as in :meth:`decode_blocks`.
            decoder_options: forwarded to :class:`BlockDecoder`.

        Returns:
            The object's bytes with all recovered updates applied.

        Raises:
            StoreError: if reads for a required partition are missing or a
                block cannot be decoded.
        """
        record = self.record(name)
        blocks_by_partition: dict[str, list[int]] = {}
        for extent, partition_block, _ in record.logical_blocks():
            blocks_by_partition.setdefault(extent.partition, []).append(
                partition_block
            )
        payloads = self.decode_blocks(
            blocks_by_partition,
            reads_by_partition,
            workers=workers,
            cluster_shards=cluster_shards,
            **decoder_options,
        )
        pieces = [
            payloads[(extent.partition, partition_block)]
            for extent, partition_block, _ in record.logical_blocks()
        ]
        return b"".join(pieces)[: record.size]
