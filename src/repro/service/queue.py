"""Operation-agnostic request queue and batch scheduler.

One PCR access amplifies a whole block range regardless of how many
tenants asked for it (Section 3.1's prefix covers are shared physics, not
per-caller state).  The read side of the scheduler exploits that: all
reads that arrive within a scheduling window are coalesced, their
per-partition block ranges merged via
:func:`repro.store.planner.merge_partition_ranges` (overlap across
tenants collapses), blocks already in the decoded-block cache are
subtracted, and a single shared :class:`BatchReadPlan` is emitted for the
cycle.  The plan's reaction/primer/block counts are the wetlab bill the
whole batch splits.

The write side mirrors it: queued ``put``/``update``/``delete``
operations are applied to the store in admission order and coalesced into
one :class:`SynthesisOrder` per dispatch, whose per-partition
:class:`PartitionSynthesisJob` s size the strands (and nucleotides) the
vendor must manufacture — the synthesis bill the batch of writes splits,
charged latency the way read cycles are charged PCR + sequencing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from repro.exceptions import DnaStorageError, ServiceError
from repro.service.cache import DecodedBlockCache
from repro.service.requests import ServiceRequest
from repro.store.object_store import ObjectStore
from repro.store.planner import BatchReadPlan, plan_partition_ranges

#: A queue entry: ``(push stamp, request)``.
QueueEntry = tuple[int, ServiceRequest]

_STAMP = itemgetter(0)


def _in_push_order(entries: list[QueueEntry]) -> list[ServiceRequest]:
    entries.sort(key=_STAMP)
    return [request for _, request in entries]


class RequestQueue:
    """Admission queue of pending requests: one FIFO of reads per tenant
    and one FIFO of writes.

    Every entry is ``(push stamp, request)``, so whatever the queue hands
    back across FIFOs comes back in push order.  The QoS admission pass
    reads the per-tenant view (:meth:`reads_by_tenant`) and removes what it
    admitted with :meth:`take_reads`; the write pump walks only the writes
    (:meth:`take`).  Costs, with ``n`` the queued requests:

    * ``push``, ``len()``, :attr:`read_count` and :meth:`reads_by_tenant`
      are O(1);
    * :meth:`take_reads` walks each named tenant's FIFO from its head to
      the last read taken: O(r log r) for ``r`` reads taken when they are
      FIFO prefixes, which is what admission takes unless a per-request
      priority or its progress guarantee reaches past a head;
    * :meth:`take` is O(queued writes);
    * :meth:`drain`, :meth:`drain_op` and :meth:`peek_op` merge FIFOs by
      stamp, O(n log n).
    """

    def __init__(self) -> None:
        self._stamp = 0
        # A tenant leaves the map with its last queued read.
        self._reads: dict[str, deque[QueueEntry]] = {}
        self._read_count = 0
        self._writes: list[QueueEntry] = []

    def __len__(self) -> int:
        return self._read_count + len(self._writes)

    @property
    def read_count(self) -> int:
        """Queued reads, over every tenant."""
        return self._read_count

    def push(self, request: ServiceRequest) -> None:
        """Admit one request at the tail of its FIFO."""
        entry = (self._stamp, request)
        self._stamp += 1
        if request.is_write:
            self._writes.append(entry)
            return
        fifo = self._reads.get(request.tenant)
        if fifo is None:
            fifo = self._reads[request.tenant] = deque()
        fifo.append(entry)
        self._read_count += 1

    def reads_by_tenant(self) -> Mapping[str, deque[QueueEntry]]:
        """Read-only view: tenant -> its queued read entries, oldest first.

        Only tenants with queued reads appear.  The view is live; callers
        must not mutate the FIFOs (remove reads with :meth:`take_reads`).
        """
        return MappingProxyType(self._reads)

    def take_reads(self, requests: Iterable[ServiceRequest]) -> list[ServiceRequest]:
        """Remove the given queued reads and return them in push order.

        Reads of other tenants are not visited, and every read left queued
        keeps its place.

        Raises:
            ServiceError: if a request is not a queued read (the queue is
                then left unchanged).
        """
        wanted: dict[str, dict[int, None]] = {}
        for request in requests:
            wanted.setdefault(request.tenant, {})[id(request)] = None
        # Find how far each tenant's walk reaches before changing anything.
        reach: dict[str, int] = {}
        for tenant, ids in wanted.items():
            found = 0
            for index, (_, queued) in enumerate(self._reads.get(tenant, ())):
                if id(queued) in ids:
                    found += 1
                    if found == len(ids):
                        reach[tenant] = index + 1
                        break
            else:
                raise ServiceError(
                    f"cannot take {len(ids) - found} read(s) of tenant "
                    f"{tenant!r}: not in the queue"
                )
        taken: list[QueueEntry] = []
        for tenant, length in reach.items():
            fifo = self._reads[tenant]
            ids = wanted[tenant]
            passed: list[QueueEntry] = []
            for _ in range(length):
                entry = fifo.popleft()
                (taken if id(entry[1]) in ids else passed).append(entry)
            fifo.extendleft(reversed(passed))
            if not fifo:
                del self._reads[tenant]
        self._read_count -= len(taken)
        return _in_push_order(taken)

    def drain(self) -> list[ServiceRequest]:
        """Remove and return every pending request, oldest first."""
        entries = [entry for fifo in self._reads.values() for entry in fifo]
        entries += self._writes
        self._reads = {}
        self._read_count = 0
        self._writes = []
        return _in_push_order(entries)

    def drain_op(self, op: str) -> list[ServiceRequest]:
        """Remove and return the pending requests of one operation, oldest
        first."""
        if op != "read":
            return self.take(lambda request: request.op == op)
        drained = self.peek_op("read")
        self._reads = {}
        self._read_count = 0
        return drained

    def peek_op(self, op: str) -> list[ServiceRequest]:
        """The pending requests of one operation, oldest first, *not* removed."""
        if op != "read":
            return [request for _, request in self._writes if request.op == op]
        return _in_push_order([entry for fifo in self._reads.values() for entry in fifo])

    def take(self, predicate: Callable[[ServiceRequest], bool]) -> list[ServiceRequest]:
        """Remove and return the queued *writes* matching ``predicate``, in
        push order.

        Reads are not visited.  Non-matching writes keep their relative
        order.  The predicate is evaluated exactly once per queued write,
        oldest first, so stateful predicates (e.g. "skip every write behind
        a blocked one") behave deterministically.
        """
        taken: list[ServiceRequest] = []
        kept: list[QueueEntry] = []
        for entry in self._writes:
            if predicate(entry[1]):
                taken.append(entry[1])
            else:
                kept.append(entry)
        self._writes = kept
        return taken


@dataclass(frozen=True)
class ScheduledBatch:
    """One scheduling cycle's merged wetlab read work.

    Attributes:
        batch_id: sequence number of the cycle.
        requests: the coalesced requests, in admission order.
        plan: the merged PCR plan covering every *uncached* block the
            batch needs (empty when the cache covers everything).
        requested_blocks: distinct ``(partition, block)`` keys the
            requests collectively asked for, in first-request order.
        pinned_payloads: key/payload pairs of the blocks found in the
            decoded-block cache at scheduling time, pinned so the batch's
            responses survive LRU evictions that happen while the cycle
            is in flight.
    """

    batch_id: int
    requests: tuple[ServiceRequest, ...]
    plan: BatchReadPlan
    requested_blocks: tuple[tuple[str, int], ...]
    pinned_payloads: tuple[tuple[tuple[str, int], bytes], ...] = ()

    @property
    def cached_blocks(self) -> tuple[tuple[str, int], ...]:
        """The blocks served from the cache at scheduling time."""
        return tuple(key for key, _ in self.pinned_payloads)

    @property
    def requested_block_count(self) -> int:
        """Distinct blocks wanted by the batch (after cross-tenant dedup)."""
        return len(self.requested_blocks)

    @property
    def amplified_block_count(self) -> int:
        """Blocks the merged plan actually amplifies."""
        return self.plan.block_count

    @property
    def reaction_count(self) -> int:
        """PCR reactions of the merged plan."""
        return self.plan.reaction_count


@dataclass(frozen=True)
class WriteOutcome:
    """How one queued write fared when its synthesis order was formed.

    Attributes:
        request: the originating write request.
        applied: whether the store accepted the operation.
        reason: rejection reason when ``applied`` is False.
        partitions: partitions whose pools the write touched (their
            wetlab pools must re-synthesize).
        block_slots: block version slots the write synthesizes (new
            originals for a ``put``, patch slots for an ``update``).
        bytes_written: payload bytes accepted.
    """

    request: ServiceRequest
    applied: bool
    reason: str | None = None
    partitions: tuple[str, ...] = ()
    block_slots: int = 0
    bytes_written: int = 0


@dataclass(frozen=True)
class PartitionSynthesisJob:
    """One partition's slice of a synthesis order.

    Vendors manufacture each partition's strands as an independent array
    job, so jobs of the same order run concurrently — the order is
    complete when its slowest job delivers.
    """

    partition: str
    block_slots: int
    strands: int
    nucleotides: int


@dataclass(frozen=True)
class SynthesisOrder:
    """One dispatch's coalesced write work.

    Attributes:
        order_id: sequence number (shared with read cycles' batch ids).
        outcomes: per-request application outcomes, admission order.
        jobs: per-partition synthesis jobs, first-touch order.
    """

    order_id: int
    outcomes: tuple[WriteOutcome, ...] = ()
    jobs: tuple[PartitionSynthesisJob, ...] = field(default=())

    @property
    def applied(self) -> tuple[WriteOutcome, ...]:
        """The outcomes the store accepted."""
        return tuple(outcome for outcome in self.outcomes if outcome.applied)

    @property
    def strand_count(self) -> int:
        """Strands the order synthesizes."""
        return sum(job.strands for job in self.jobs)

    @property
    def nucleotide_count(self) -> int:
        """Bases the order synthesizes."""
        return sum(job.nucleotides for job in self.jobs)

    @property
    def partitions(self) -> tuple[str, ...]:
        """Partitions whose pools the order rewrites."""
        return tuple(job.partition for job in self.jobs)


class BatchScheduler:
    """Coalesces concurrent requests into merged wetlab work per cycle.

    Reads become one deduplicated :class:`ScheduledBatch`; writes become
    one per-partition-coalesced :class:`SynthesisOrder`.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store

    def request_blocks(
        self, request: ServiceRequest, *, at=None
    ) -> list[tuple[str, int]]:
        """The ``(partition, block)`` keys backing one request's range.

        Args:
            at: optional :class:`repro.store.snapshots.StoreSnapshot` for
                time-travel reads — the range is resolved against the
                snapshot's catalog.  Blocks unchanged since the capture
                keep their live keys, so historical and current requests
                coalesce into the same PCR accesses.
        """
        ranges = self.store.block_ranges(
            request.object_name, offset=request.offset, length=request.length, at=at
        )
        return [
            (partition, block)
            for partition, spans in ranges.items()
            for start, end in spans
            for block in range(start, end + 1)
        ]

    def schedule(
        self,
        requests: list[ServiceRequest],
        *,
        cache: DecodedBlockCache | None = None,
        batch_id: int = 0,
        blocks_by_request: dict[int, list[tuple[str, int]]] | None = None,
    ) -> ScheduledBatch:
        """Merge a cycle's read requests into one deduplicated wetlab plan.

        Args:
            blocks_by_request: optional precomputed block keys per
                ``request_id`` (the simulator computes them once at
                admission); missing entries are resolved here.

        Raises:
            ServiceError: if the cycle contains no requests or contains a
                write (writes go through :meth:`schedule_writes`).
        """
        if not requests:
            raise ServiceError("cannot schedule an empty batch")
        if any(request.is_write for request in requests):
            raise ServiceError(
                "write operations are scheduled as synthesis orders, "
                "not read batches"
            )
        # Dicts (not sets) keep every derived ordering deterministic
        # across processes regardless of string-hash randomization.
        requested: dict[tuple[str, int], None] = {}
        for request in requests:
            keys = None
            if blocks_by_request is not None:
                keys = blocks_by_request.get(request.request_id)
            if keys is None:
                keys = self.request_blocks(request)
            for key in keys:
                requested.setdefault(key, None)
        pinned: dict[tuple[str, int], bytes] = {}
        missing: dict[str, list[tuple[int, int]]] = {}
        volume = self.store.volume
        for partition, block in requested:
            # Cache keys carry the block's birth epoch so entries from an
            # earlier store generation (pre-restore) can never be served.
            epoch = volume.block_epoch(partition, block)
            if cache is not None and cache.contains(partition, block, epoch):
                # One counted hit per distinct block (misses are counted
                # at serve time, when the fill happens); the payload is
                # pinned so in-flight evictions cannot unserve the batch.
                pinned[(partition, block)] = cache.get(partition, block, epoch)
            else:
                missing.setdefault(partition, []).append((block, block))
        plan = plan_partition_ranges(
            self.store.volume,
            missing,  # per-partition ranges are merged by the planner
            label=f"batch-{batch_id:05d}",
        )
        return ScheduledBatch(
            batch_id=batch_id,
            requests=tuple(requests),
            plan=plan,
            requested_blocks=tuple(requested),
            pinned_payloads=tuple(pinned.items()),
        )

    def schedule_writes(
        self,
        requests: list[ServiceRequest],
        *,
        order_id: int = 0,
    ) -> SynthesisOrder:
        """Apply a cycle's writes and coalesce them into one synthesis order.

        Operations are applied to the store *digitally* here, in admission
        order — that is what sizes the order exactly (a ``put``'s striped
        extents, an ``update``'s actually-patched blocks) — but callers
        acknowledge the writes only when the order's synthesis latency has
        been charged.  A request the store rejects (duplicate name,
        exhausted update slots, range outside the object) fails alone: its
        outcome records the reason and every other write still applies.

        Raises:
            ServiceError: if the cycle is empty or contains a non-write.
        """
        if not requests:
            raise ServiceError("cannot schedule an empty synthesis order")
        if any(not request.is_write for request in requests):
            raise ServiceError("schedule_writes only accepts write operations")
        volume = self.store.volume
        outcomes: list[WriteOutcome] = []
        slots_by_partition: dict[str, int] = {}
        for request in requests:
            try:
                if request.op == "put":
                    record = self.store.put(request.object_name, request.payload)
                    touched: dict[str, int] = {}
                    for extent in record.extents:
                        touched[extent.partition] = (
                            touched.get(extent.partition, 0) + extent.block_count
                        )
                    bytes_written = len(request.payload)
                elif request.op == "update":
                    patched = self.store.update_blocks(
                        request.object_name, request.offset, request.payload
                    )
                    touched = {}
                    for partition_name, _ in patched:
                        touched[partition_name] = touched.get(partition_name, 0) + 1
                    bytes_written = len(request.payload)
                else:  # delete: catalog drop, no new strands
                    self.store.delete(request.object_name)
                    touched = {}
                    bytes_written = 0
            except DnaStorageError as exc:
                outcomes.append(
                    WriteOutcome(request=request, applied=False, reason=str(exc))
                )
                continue
            for partition_name, slots in touched.items():
                slots_by_partition[partition_name] = (
                    slots_by_partition.get(partition_name, 0) + slots
                )
            outcomes.append(
                WriteOutcome(
                    request=request,
                    applied=True,
                    partitions=tuple(touched),
                    block_slots=sum(touched.values()),
                    bytes_written=bytes_written,
                )
            )
        jobs = []
        for partition_name, slots in slots_by_partition.items():
            strands, nucleotides = volume.synthesis_footprint(slots)
            jobs.append(
                PartitionSynthesisJob(
                    partition=partition_name,
                    block_slots=slots,
                    strands=strands,
                    nucleotides=nucleotides,
                )
            )
        return SynthesisOrder(
            order_id=order_id, outcomes=tuple(outcomes), jobs=tuple(jobs)
        )
