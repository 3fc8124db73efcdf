"""Event-driven pipeline simulator of the multi-tenant serving layer.

:class:`ServicePipeline` drives a request arrival trace
(:mod:`repro.workloads.service_traces`) — reads *and* writes — against an
:class:`ObjectStore` under three serving policies and charges every
wetlab cycle the latency the paper's sequencing models predict
(Section 7.4, via :class:`IlluminaRunModel` / :class:`NanoporeRunModel`):

* ``unbatched`` — every request runs its own wetlab cycle (or synthesis
  order), the one-synchronous-caller behaviour of ``ObjectStore.get``;
* ``batched`` — requests arriving within a scheduling window share one
  merged, cross-tenant-deduplicated cycle (:class:`BatchScheduler`);
* ``batched+cache`` — additionally, decoded blocks land in a
  :class:`DecodedBlockCache`, so hot blocks skip the wetlab entirely and
  fully-cached requests complete at memory speed.

**Writes** (``put`` / ``update`` / ``delete``) are queued like reads and
coalesced into per-partition :class:`SynthesisOrder` s charged synthesis
latency (array setup plus per-base manufacturing time) the way reads are
charged PCR + sequencing.

**Ordering contract.**  Per object, requests take effect in admission
order, as the paper's update log replays patches in version order
(Section 5.2):

* a read observes exactly the writes admitted before it: admitted while
  such a write is outstanding, it is held until that write commits (or
  is rejected), and a later write never applies under it;
* a write joins a synthesis order only when everything admitted before
  it on its object has reached its terminal event or is another queued
  write joining the same order — it never overtakes an earlier read or
  a write riding an uncommitted order;
* every request reaches exactly one terminal outcome (served, committed
  or failed); ``run`` raises :class:`ServiceError` if one is still
  outstanding once arrivals and event heap are exhausted.

:class:`~repro.service.barrier.ObjectBarrier` keeps that state.  Per
operation it costs O(1) to enter, leave, test whether a read must wait
and mark a write dispatched; releasing held reads costs O(reads
released), and the write-eligibility test stops at the first entry that
blocks.

**Wetlab cycles run on a shared, persistent lane pool**
(``config.wetlab_lanes``, one :class:`~repro.service.scheduler_qos.
SharedLanePool` per run): each cycle's per-partition accesses are
independent :class:`repro.wetlab.readout.ReadoutUnit` s (own PCR, own
sequencing sample) booked onto the lane that can start them earliest.
Lanes are physical stations shared by *every* cycle of the run —
overlapping cycles queue onto busy lanes instead of conjuring a fresh
pool, so a cycle completes when its slowest unit drains *including* the
time it waited for lane access, and per-lane busy time over the schedule
horizon is a true utilization ``<= 1.0``.  Unit seeding is
lane-independent: the decoded bytes are identical for any lane count.

**Tenant QoS is an optional admission layer** (``config.qos``, default
off): per-tenant token-bucket rate limits, priority/deadline classes and
weighted-fair division of a per-window block budget decide which queued
reads enter each batch (:class:`~repro.service.scheduler_qos.
QoSAdmission`); everything else stays queued for a later window.  Like
tracing, enabling QoS never changes a request's decoded bytes — the
per-object write barrier pins what every read observes — it only reshapes
when work is admitted.  The unbatched policy has no admission window and
ignores QoS.  The :class:`RequestQueue` keeps one FIFO of reads per
tenant and one of writes, so a window's admission visits only the reads
each tenant's bucket lets through (admitted, or deferred by the block
budget) plus one per throttled tenant — a throttled backlog is counted,
not walked — and the write pump visits only the queued writes.

**Decode failures retry instead of aborting.**  Under
``fidelity="wetlab"``, a block that fails to decode no longer raises out
of the batch: requests needing it re-enter a retry cycle — fresh PCR,
fresh sequencing sample, coverage deepened by
``config.retry_coverage_factor`` per attempt — and only become
:class:`FailedRequest` outcomes once ``config.retry_budget`` retry cycles
are exhausted.  Requests of the same batch that don't need the failed
blocks are served on time.  ``config.decode_failure_injector`` can force
deterministic failures (tests, resilience benchmarks) under either
fidelity.

**One run is one object.**  :meth:`ServicePipeline.run` checks its
arguments, sorts the trace and hands it to a private ``_Run``, which
holds the run's state (queue, barrier, lane pool, cache, run totals) as
attributes and has one handler per event kind: arrival, dispatch window,
synthesis commit and cycle completion.  The event heap holds only the
events the run schedules itself, each entry carrying its handler;
arrivals are merged in from the sorted trace, ahead of any heap event at
the same time.  A request's block list and time-travel view are dropped
at its terminal outcome, so that state grows with the requests in
flight, not with the trace.  The run totals are one dict keyed by
:class:`PolicyReport` field names.  Nothing refers back to the run once
arrivals and heap are exhausted, so the rest of its state is freed by
reference counting when ``run()`` returns.

The event loop is fully deterministic: simulated time only, ties broken
by admission order, no wall-clock or unseeded randomness anywhere.  Every
policy decodes byte-identical payloads (checksummed per request), so the
policies differ only in wetlab work and latency — which is exactly the
comparison reported: throughput, p50/p95/p99 latency
(:func:`repro.analysis.stats.summarize`), PCR reactions, sequenced reads,
synthesis strands, cache hit rate and amplification waste.

Two *fidelities* of the read path are supported (orthogonal to policy):

* ``fidelity="reference"`` — payload bytes come from the digital
  reference (originals plus patch chains); wetlab work is only *charged*.
* ``fidelity="wetlab"`` — every scheduled cycle physically runs its
  units through simulated PCR amplification and sequencing-read sampling
  (:class:`repro.wetlab.readout.WetlabReadout`), decodes exactly the
  planned block set through clustering, trace reconstruction and
  Reed-Solomon (:meth:`ObjectStore.try_decode_blocks`), serves responses
  from those wetlab-decoded payloads and asserts each request's checksum
  against the reference path.  Requires numpy.

Malformed requests — negative ranges, unknown objects, ranges past the
object's end, writes the store rejects — fail *individually* (recorded as
:class:`FailedRequest` outcomes); they never abort other tenants'
requests.  Zero-length reads are valid empty reads served at front-end
speed with no wetlab work.

**Time-travel reads** (``ServiceRequest(op="read", as_of=hours)``) serve
an object as of the committed store state at a historical timestamp.
When a trace carries them, the pipeline snapshots the store at run start
and after every committed synthesis order (copy-on-write — no data is
copied, see :mod:`repro.store.snapshots`); an ``as_of`` read resolves
against the latest snapshot at or before its timestamp.  Historical
state is immutable, so such reads skip the per-object write barrier in
both directions: they never wait for a pending write and never delay
one.  Their blocks are physical strands still in the pool, so under
wetlab fidelity they amplify and decode like any other access — and
blocks unchanged since the capture share cache entries (and batched PCR
accesses) with live reads of the same data.

**``compare()`` runs every policy from one snapshotted seed store.**
The store is captured once (copy-on-write) and restored before each
policy × fidelity run, so mixed read/write traces no longer force a
full store rebuild per policy: every run starts from the byte-identical
seed state — allocation frontier, round-robin cursor, primers and seeds
included — at a fraction of the setup cost.  Read-only traces reproduce
the rebuild path's report bit for bit; traces with updates deliver the
same bytes, failures and synthesis volume, but lay the updates out as
copy-on-write redirects (fresh blocks) instead of in-place patch slots,
so PCR access counts and cycle latencies can differ from an
unsnapshotted store's.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.latency_model import LatencyComparison
from repro.analysis.stats import SummaryStats, summarize
from repro.exceptions import DnaStorageError, ServiceError
from repro.observability.export import RunObservability
from repro.observability.stages import collect_stages, record_stages
from repro.observability.tracing import activate, maybe_wall_span, tracing_enabled
from repro.service.barrier import ObjectBarrier
from repro.service.cache import (
    ADMISSION_POLICIES,
    CacheStats,
    DecodedBlockCache,
    PinnedCacheView,
)
from repro.service.queue import (
    BatchScheduler,
    RequestQueue,
    ScheduledBatch,
    SynthesisOrder,
)
from repro.service.requests import CompletedRequest, FailedRequest, ServiceRequest
from repro.service.scheduler_qos import QoSAdmission, QoSConfig, SharedLanePool
from repro.service.telemetry import RunTelemetry
from repro.store.object_store import ObjectStore
from repro.store.planner import plan_partition_ranges, ranges_from_block_keys
from repro.wetlab.readout import plan_units
from repro.wetlab.sequencing import IlluminaRunModel, NanoporeRunModel
from repro.workloads.service_traces import RequestEvent

POLICIES = ("unbatched", "batched", "batched+cache")
FIDELITIES = ("reference", "wetlab")

#: Optional deterministic fault hook: ``(cycle_id, attempt, block_key) ->
#: bool`` — return True to force that block's decode to fail in that cycle.
DecodeFailureInjector = Callable[[int, int, "tuple[str, int]"], bool]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer.

    Attributes:
        window_hours: scheduling window; requests arriving within it share
            one wetlab cycle / synthesis order (ignored by the unbatched
            policy).
        pcr_hours: wall-clock hours of one PCR stage (each readout unit
            amplifies on its own lane's thermocycler).
        reads_per_block: sequencing reads budgeted per amplified block —
            coverage for the block and its update slots (the paper decodes
            a block from ~30 precise-access reads, Section 7.3).
        sequencer: ``"nanopore"`` (streaming, latency scales with reads)
            or ``"illumina"`` (fixed-run, latency quantized in runs).
        wetlab_lanes: thermocycler/flow-cell lanes of the run's *shared*
            pool; a cycle's readout units book onto the lane that can
            start them earliest, queueing behind earlier cycles' work
            (the pool is persistent hardware, not per-cycle), so the
            cycle's latency is its slowest unit's completion including
            lane-queue time.
        retry_budget: retry cycles a request may ride after its first
            cycle fails to decode a needed block (0 = fail immediately).
        retry_coverage_factor: sequencing-coverage multiplier applied per
            retry attempt (deeper coverage, fresh PCR).
        synthesis_setup_hours: fixed turnaround of one partition's
            synthesis job (array setup, QC, shipping).
        synthesis_hours_per_kilobase: marginal manufacturing time per
            1000 synthesized bases; a dispatch's per-partition jobs run in
            parallel at the vendor, so an order commits when its largest
            job delivers.
        cache_capacity_bytes: byte budget of the decoded-block cache.
        cache_admission: admission policy of the decoded-block cache
            (``"always"`` or frequency-aware ``"tinylfu"``).
        cache_service_hours: latency of a fully cache-served response
            (also the acknowledgment latency of synthesis-free writes,
            i.e. deletes).
        illumina / nanopore: the run models used to charge latency.
        wetlab_seed: base RNG seed of the default wetlab readout engine
            (synthesis skew, sequencing sampling) under
            ``fidelity="wetlab"``.
        decode_failure_injector: optional deterministic hook forcing
            block-decode failures (see :data:`DecodeFailureInjector`);
            honoured under both fidelities so retry accounting is testable
            without numpy.
        decode_workers: worker processes of the parallel decode engine
            used for wetlab-fidelity cycle decodes (``None`` defers to
            ``REPRO_DECODE_WORKERS``, then the CPU count; ``1`` = serial).
            Compute-side only: lane scheduling (wetlab time) is untouched,
            and decoded bytes are identical for any worker count.
        decode_cluster_shards: intra-partition clustering shard count of
            the decode engine (``None`` defers to ``REPRO_CLUSTER_SHARDS``,
            then 1 = unsharded).  Compute-side only, like
            ``decode_workers``: clusters and decoded bytes are
            byte-identical at any shard count.
        tracing: record the run's span tree and metrics registry
            (:mod:`repro.observability`) onto the report's
            ``observability`` field.  ``None`` defers to the
            ``REPRO_TRACING`` environment variable; the default is off
            and near-free.  Enabling tracing never changes request
            outcomes — it only observes them.
        qos: optional per-tenant QoS policy
            (:class:`~repro.service.scheduler_qos.QoSConfig`): token
            bucket rate limits, priority/deadline classes and
            weighted-fair admission of queued reads into each dispatch
            window.  Default off; like tracing, enabling it never
            changes decoded bytes — only when work is admitted.  Applies
            to the batched policies (the unbatched policy has no
            admission window); requires a positive ``window_hours``.
    """

    window_hours: float = 0.5
    pcr_hours: float = 2.0
    reads_per_block: int = 30
    sequencer: str = "nanopore"
    wetlab_lanes: int = 4
    retry_budget: int = 2
    retry_coverage_factor: float = 2.0
    synthesis_setup_hours: float = 12.0
    synthesis_hours_per_kilobase: float = 0.01
    cache_capacity_bytes: int = 1 << 20
    cache_admission: str = "always"
    cache_service_hours: float = 0.005
    illumina: IlluminaRunModel = field(default_factory=IlluminaRunModel)
    nanopore: NanoporeRunModel = field(default_factory=NanoporeRunModel)
    wetlab_seed: int = 0
    decode_failure_injector: DecodeFailureInjector | None = field(
        default=None, compare=False
    )
    decode_workers: int | None = None
    decode_cluster_shards: int | None = None
    tracing: bool | None = None
    qos: QoSConfig | None = None

    def __post_init__(self) -> None:
        if self.window_hours < 0:
            raise ServiceError("window_hours must be non-negative")
        if self.pcr_hours < 0 or self.cache_service_hours < 0:
            raise ServiceError("stage latencies must be non-negative")
        if self.reads_per_block <= 0:
            raise ServiceError("reads_per_block must be positive")
        if self.sequencer not in ("nanopore", "illumina"):
            raise ServiceError(f"unknown sequencer {self.sequencer!r}")
        if self.wetlab_lanes <= 0:
            raise ServiceError("wetlab_lanes must be positive")
        if self.retry_budget < 0:
            raise ServiceError("retry_budget must be non-negative")
        if self.retry_coverage_factor < 1.0:
            raise ServiceError("retry_coverage_factor must be >= 1")
        if self.synthesis_setup_hours < 0 or self.synthesis_hours_per_kilobase < 0:
            raise ServiceError("synthesis latencies must be non-negative")
        if self.cache_capacity_bytes <= 0:
            raise ServiceError("cache_capacity_bytes must be positive")
        if self.cache_admission not in ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown cache admission policy {self.cache_admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if self.decode_workers is not None and self.decode_workers < 1:
            raise ServiceError("decode_workers must be >= 1 when set")
        if self.decode_cluster_shards is not None and self.decode_cluster_shards < 1:
            raise ServiceError("decode_cluster_shards must be >= 1 when set")
        if self.qos is not None and self.window_hours <= 0:
            # Deferred requests re-arm the dispatch one window later; a
            # zero-width window would re-run the same admission pass at
            # the same instant forever.
            raise ServiceError("qos admission requires a positive window_hours")

    def sequencing_hours(self, reads: int) -> float:
        """Latency of producing ``reads`` reads on the configured model."""
        model = self.nanopore if self.sequencer == "nanopore" else self.illumina
        return model.latency_hours(reads)

    def retry_reads_per_block(self, attempt: int) -> int:
        """Coverage of the ``attempt``-th cycle (1 = the original cycle)."""
        if attempt <= 1:
            return self.reads_per_block
        scaled = self.reads_per_block * self.retry_coverage_factor ** (attempt - 1)
        return max(int(scaled), self.reads_per_block + attempt - 1)


@dataclass
class PolicyReport:
    """Aggregate outcome of serving one trace under one policy.

    Attributes:
        policy: the serving policy name.
        fidelity: read-path fidelity the trace was served under
            (``"reference"`` or ``"wetlab"``).
        completed: every served request — read responses and write
            acknowledgments — in completion order.
        failed: requests rejected without service (malformed range,
            unknown object, store-rejected write, retry budget exhausted),
            ordered by admission id; they are excluded from latency,
            throughput and checksum accounting.
        latency: p50/p95/p99-style summary of per-read latency, in
            **simulated hours** (see ``latency_clock``) — never host
            wall-clock.
        write_latency: the same summary over write acknowledgments
            (``None`` when the trace carried no writes).
        latency_clock: the clock every latency/makespan figure in this
            report is on (``"sim_hours"``); wall-clock compute lives only
            in ``observability`` spans/metrics, explicitly labelled.
        makespan_hours: time of the last delivery.
        throughput_per_hour: requests delivered per simulated hour.
        batches: wetlab read cycles run (retry cycles included).
        pcr_reactions: total PCR reactions across all cycles.
        amplified_blocks: total blocks amplified across all cycles.
        requested_block_accesses: per-request block needs, duplicates
            included — the work a per-request policy would amplify.
        distinct_requested_blocks: distinct blocks the whole trace
            touched — the floor any policy could amplify.
        sequenced_reads: total sequencing reads charged.
        decoded_bytes: total read payload bytes delivered.
        written_bytes: total write payload bytes acknowledged.
        synthesis_orders: synthesis orders dispatched for writes.
        synthesized_strands / synthesized_nucleotides: DNA manufacturing
            volume those orders charged.
        synthesis_hours: total synthesis latency charged across orders.
        retry_cycles: deeper-coverage retry cycles run after decode
            failures.
        retried_requests: request-retry events (one request retrying
            twice counts twice).
        decode_failures: block-decode failures observed (injected ones
            included).
        wetlab_lanes: lane-pool width the trace was served with.
        lane_busy_hours: summed busy time of all lanes (units' PCR +
            sequencing) across all cycles.
        lane_busy_hours_by_lane: the same busy time attributed to each
            individual lane (index = lane id), from the run's shared
            lane pool — busy intervals on one lane never overlap.
        lane_schedule_horizon_hours: the shared pool's last booked
            completion; the utilization denominator (equals the
            makespan except when a run's final cycle served nobody).
        qos_enabled: whether a QoS admission layer was active.
        qos_throttled: dispatch-time events where a token bucket held a
            queued read back (one request can count several times
            across consecutive windows).
        qos_deferred: dispatch-time events where the window block
            budget deferred an eligible read to a later window.
        deadline_violations: served reads that finished past their QoS
            deadline budget (request override or tenant profile);
            counted only, never dropped.  0 when QoS is off.
        checksum: order-independent digest over per-request payload CRCs;
            equal checksums across policies mean identical decoded bytes.
        cache: cache counters (``batched+cache`` only).
        payloads: per-read payload bytes (only when ``keep_data``).
        observability: the run's span tree and metrics snapshot
            (:class:`~repro.observability.export.RunObservability`);
            ``None`` unless tracing was enabled.  Excluded from report
            equality — observing a run is not part of its outcome.
    """

    policy: str
    completed: tuple[CompletedRequest, ...]
    latency: SummaryStats
    makespan_hours: float
    throughput_per_hour: float
    batches: int
    pcr_reactions: int
    amplified_blocks: int
    requested_block_accesses: int
    distinct_requested_blocks: int
    sequenced_reads: int
    decoded_bytes: int
    checksum: int
    fidelity: str = "reference"
    failed: tuple[FailedRequest, ...] = ()
    cache: CacheStats | None = None
    payloads: dict[int, bytes] | None = None
    write_latency: SummaryStats | None = None
    written_bytes: int = 0
    synthesis_orders: int = 0
    synthesized_strands: int = 0
    synthesized_nucleotides: int = 0
    synthesis_hours: float = 0.0
    retry_cycles: int = 0
    retried_requests: int = 0
    decode_failures: int = 0
    wetlab_lanes: int = 1
    lane_busy_hours: float = 0.0
    lane_busy_hours_by_lane: tuple[float, ...] = ()
    lane_schedule_horizon_hours: float = 0.0
    qos_enabled: bool = False
    qos_throttled: int = 0
    qos_deferred: int = 0
    deadline_violations: int = 0
    latency_clock: str = "sim_hours"
    observability: RunObservability | None = field(default=None, compare=False)

    @property
    def amplification_factor(self) -> float:
        """Amplified blocks per distinct requested block.

        1.0 means every block was amplified exactly once (perfect
        amortization); the unbatched policy pays this factor again for
        every duplicated request, a cache can push it below 1.0.
        """
        if self.distinct_requested_blocks == 0:
            return 0.0
        return self.amplified_blocks / self.distinct_requested_blocks

    @property
    def _lane_horizon(self) -> float:
        """Utilization denominator: the schedule horizon, never shorter
        than the makespan (pre-shared-pool reports carry horizon 0.0)."""
        return max(self.makespan_hours, self.lane_schedule_horizon_hours)

    @property
    def lane_utilization(self) -> float:
        """True pool-wide lane utilization, in ``[0, 1]``.

        Lanes are one shared, persistent pool: every busy interval on a
        lane is disjoint, so summed busy hours over ``lanes x horizon``
        can never exceed 1.0.  (It equals the mean of
        :attr:`lane_utilization_by_lane` exactly — the old >1.0
        "pressure" reading is gone; sustained values near 1.0 with
        growing latencies are now the signal to widen the pool.)
        """
        horizon = self._lane_horizon
        if horizon <= 0 or self.wetlab_lanes <= 0:
            return 0.0
        return self.lane_busy_hours / (horizon * self.wetlab_lanes)

    @property
    def lane_utilization_by_lane(self) -> tuple[float, ...]:
        """Busy-time fraction of each physical lane over the horizon.

        Computed from the shared pool's actual bookings (simulated
        clock).  A lane is one station: its busy intervals never
        overlap, so every entry is a true duty factor in ``[0, 1]`` and
        the tuple's mean equals :attr:`lane_utilization`.
        """
        horizon = self._lane_horizon
        if horizon <= 0:
            return tuple(0.0 for _ in self.lane_busy_hours_by_lane)
        return tuple(busy / horizon for busy in self.lane_busy_hours_by_lane)

    def latency_by_tenant(self) -> dict[str, SummaryStats]:
        """Per-tenant read-latency summaries (tenants in sorted order).

        The raw material of QoS isolation claims: a well-behaved
        tenant's p99 here is what the admission layer protects.
        """
        by_tenant: dict[str, list[float]] = {}
        for item in self.completed:
            if item.request.op == "read":
                by_tenant.setdefault(item.request.tenant, []).append(
                    item.latency_hours
                )
        return {
            tenant: summarize(latencies)
            for tenant, latencies in sorted(by_tenant.items())
        }


class _BatchScratch:
    """Per-batch decode memo for cache-less serving (block_cache protocol).

    Keys are ``(partition, block)``: a block's birth epoch cannot change
    within a run (epochs only move on snapshot/restore), so the scratch
    needs no epoch discrimination — it only spans one batch anyway.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[str, int], bytes] = {}

    def get(self, partition: str, block: int, epoch: int = 0) -> bytes | None:
        return self._blocks.get((partition, block))

    def put(self, partition: str, block: int, data: bytes, epoch: int = 0) -> None:
        self._blocks[(partition, block)] = data


class _InvalidationFanout:
    """Store attachment shim used while a run replaces a user's cache.

    Serve-path traffic goes to the run's cache, but invalidations from
    writes applied during the run must also reach the cache the caller
    had attached — otherwise it would keep serving pre-write bytes after
    the run restores it.
    """

    def __init__(self, run_cache, user_cache) -> None:
        self._run = run_cache
        self._user = user_cache

    def get(self, partition: str, block: int, epoch: int = 0):
        return self._run.get(partition, block, epoch)

    def put(self, partition: str, block: int, data: bytes, epoch: int = 0) -> None:
        self._run.put(partition, block, data, epoch)

    def invalidate(self, partition: str, block: int, epoch: int | None = None) -> bool:
        dropped = self._run.invalidate(partition, block, epoch)
        self._user.invalidate(partition, block, epoch)
        return dropped


def _arrival_order(event: RequestEvent) -> float:
    """Sort key of a trace event: its time, with a NaN time last.

    NaN compares false both ways, so sorting on it could leave the rest
    of the trace out of time order, and the loop merges arrivals in list
    order.  Last, such an event fails alone at request validation.
    """
    time = event.time_hours
    return time if time == time else math.inf


def policy_latency_comparison(
    baseline: PolicyReport, improved: PolicyReport
) -> LatencyComparison:
    """Mean-latency comparison between two policies (Section 7.4 framing)."""
    return LatencyComparison(
        baseline_hours=baseline.latency.mean,
        precise_hours=improved.latency.mean,
    )


class ServicePipeline:
    """Deterministic event-driven loop over a mixed read/write trace.

    Args:
        store: the object store requests operate on.  Traces with writes
            mutate it; rerun such traces against a freshly built store.
        config: serving tunables (window, latency models, lanes, retries,
            cache budget).
        readout: optional pre-built :class:`repro.wetlab.readout.WetlabReadout`
            used under ``fidelity="wetlab"`` (e.g. with a custom error
            model or PCR protocol); a default is built lazily from the
            config's ``reads_per_block`` and ``wetlab_seed``.  Synthesized
            pools are cached on the engine; committed writes re-synthesize
            exactly the touched partitions.
    """

    def __init__(
        self,
        store: ObjectStore,
        *,
        config: ServiceConfig | None = None,
        readout=None,
    ):
        self.store = store
        self.config = config or ServiceConfig()
        self.scheduler = BatchScheduler(store)
        self.readout = readout

    def _wetlab_readout(self):
        """The wetlab readout engine, built on first use (needs numpy)."""
        if self.readout is None:
            try:
                # The wetlab modules import without numpy (their entry
                # points are gated), so probe numpy itself: sampling
                # needs it from the very first cycle.
                import numpy  # noqa: F401
                from repro.wetlab.readout import WetlabReadout
            except ImportError as exc:  # pragma: no cover - no-numpy envs
                raise ServiceError(
                    "fidelity='wetlab' requires numpy (synthesis and "
                    "sequencing sampling); install numpy or use "
                    "fidelity='reference'"
                ) from exc
            self.readout = WetlabReadout(
                self.store.volume,
                reads_per_block=self.config.reads_per_block,
                seed=self.config.wetlab_seed,
            )
        return self.readout

    def run(
        self,
        trace: Iterable[RequestEvent],
        policy: str,
        *,
        fidelity: str = "reference",
        keep_data: bool = False,
    ) -> PolicyReport:
        """Serve a whole arrival trace under one policy.

        Args:
            trace: request events (need not be sorted); events may carry
                write operations (``op="put"/"update"/"delete"``).
            policy: one of :data:`POLICIES`.
            fidelity: one of :data:`FIDELITIES`; ``"wetlab"`` serves every
                cycle from physically decoded reads (PCR → sequencing →
                clustering → RS) and asserts per-request checksums against
                the reference path.
            keep_data: retain per-read payload bytes in the report
                (tests only; defaults off to bound memory at scale).

        Raises:
            ServiceError: if the policy or fidelity is unknown, the trace
                is empty, a wetlab-decoded payload fails its reference
                checksum, or a request is still outstanding once arrivals
                and heap are exhausted.
        """
        if policy not in POLICIES:
            raise ServiceError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if fidelity not in FIDELITIES:
            raise ServiceError(
                f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
            )
        events = sorted(trace, key=_arrival_order)
        if not events:
            raise ServiceError("cannot simulate an empty trace")
        return _Run(self, events, policy, fidelity, keep_data).serve()

    def _restore_seed(self, seed) -> None:
        """Rewind the store to the seed snapshot and refresh stale pools."""
        changed = self.store.restore(seed)
        if self.readout is not None:
            for name in changed:
                self.readout.reset_pool(name)

    def compare(
        self,
        trace: Iterable[RequestEvent],
        *,
        policies: tuple[str, ...] = POLICIES,
        fidelity: str = "reference",
        fidelities: tuple[str, ...] | None = None,
    ) -> dict[str, PolicyReport]:
        """Serve the same trace under several policies from one seed store.

        The store is snapshotted once (copy-on-write — no data is copied)
        and restored before every run, so each policy × fidelity
        combination executes against a writable clone of the identical
        seed state: same catalog, same allocation frontier and cursor,
        same partitions, primers and seeds.  Mixed read/write traces are
        therefore fully supported — every run reproduces byte-identical
        per-request outcomes to serving it against a freshly rebuilt
        store, at a fraction of the setup cost (no primer-library
        regeneration, no re-striping, no re-synthesis of untouched
        pools).  Read-only traces reproduce the rebuild path's whole
        report bit for bit; with updates in the trace, the seed snapshot
        makes them copy-on-write redirects instead of in-place patch
        slots, so the physical layout (PCR access counts, cycle
        latencies) may differ from an unsnapshotted store's while the
        bytes, failures and synthesis volume stay identical.  The store
        is left restored to the seed state and the snapshot is released
        when the comparison finishes.

        Args:
            trace: request events; writes are allowed (they mutate only
                the run's clone, never the seed state).
            policies: serving policies to run (default: all three).
            fidelity: fidelity used when ``fidelities`` is omitted.
            fidelities: optional tuple of fidelities to cross with the
                policies.  With a single fidelity the result is keyed by
                policy name (backwards compatible); with several, by
                ``"policy@fidelity"``.
        """
        events = list(trace)
        if fidelities is None:
            fidelities = (fidelity,)
        if not fidelities:
            raise ServiceError("fidelities must name at least one fidelity")
        seed = self.store.snapshot()
        try:
            reports: dict[str, PolicyReport] = {}
            for fid in fidelities:
                for policy in policies:
                    self._restore_seed(seed)
                    key = policy if len(fidelities) == 1 else f"{policy}@{fid}"
                    reports[key] = self.run(events, policy, fidelity=fid)
            return reports
        finally:
            self._restore_seed(seed)
            seed.release()


class _Run:
    """One :meth:`ServicePipeline.run`: the run's state and its event handlers.

    Arrivals come from the arrival-sorted request list; the heap holds
    only the events the run schedules itself, as ``(time, sequence,
    handler, payload)`` entries, ties broken by push order.  :meth:`serve`
    merges the two, handling an arrival before any heap event at the same
    time, and calls ``handler(payload, now)``.  There is one handler per
    event kind: :meth:`_arrive` (a request is admitted), :meth:`_dispatch`
    (a scheduling window closes), :meth:`_commit` (a synthesis order
    delivers) and :meth:`_complete` (a wetlab cycle finishes).  A request's
    working state (its block list, its time-travel view) is dropped at its
    terminal outcome, so the run holds it only for requests in flight.
    Once arrivals and heap are exhausted nothing refers back to the run,
    so what is left of its state is freed as soon as
    :meth:`ServicePipeline.run` returns.
    """

    def __init__(
        self,
        pipeline: ServicePipeline,
        events: list[RequestEvent],
        policy: str,
        fidelity: str,
        keep_data: bool,
    ) -> None:
        config = pipeline.config
        self.config = config
        self.store = pipeline.store
        self.scheduler = pipeline.scheduler
        self.events = events
        self.policy = policy
        self.fidelity = fidelity
        self.keep_data = keep_data
        self.wetlab = pipeline._wetlab_readout() if fidelity == "wetlab" else None
        self.injector = config.decode_failure_injector
        self.unbatched = policy == "unbatched"
        # Telemetry is observation only: every hook records what happened
        # and never touches the heap, RNG state or store, so a traced
        # run's outcomes are byte-identical to an untraced run's.
        self.tel = (
            RunTelemetry() if tracing_enabled(config.tracing) else None
        )
        self.cache = (
            DecodedBlockCache(
                config.cache_capacity_bytes, admission=config.cache_admission
            )
            if policy == "batched+cache"
            else None
        )
        if self.cache is not None and self.tel is not None:
            self.cache.bind_metrics(self.tel.metrics)
        # QoS gates the *batch* admission window; the unbatched policy
        # dispatches at arrival and has no window to gate.
        self.qos_admission = (
            QoSAdmission(config.qos)
            if config.qos is not None and not self.unbatched
            else None
        )
        # Every request that joins the per-object ordering leaves it at its
        # terminal event (read served/failed; write committed or
        # apply-failed), so a read observes exactly the writes admitted
        # before it and a write never overtakes an earlier operation.
        self.barrier = ObjectBarrier()
        self.queue = RequestQueue()
        # One persistent pool of physical lanes for the whole run: every
        # cycle (retries included) books its units onto these frontiers.
        self.lane_pool = SharedLanePool(config.wetlab_lanes)
        self.completed: list[CompletedRequest] = []
        self.failed: list[FailedRequest] = []
        self.payloads: dict[int, bytes] = {}
        self.distinct_requested: dict[tuple[str, int], None] = {}
        # Block addressing is computed once per request at admission and
        # shared with the scheduler (halves the extent-walk work).  Both
        # maps hold requests in flight only: _serve and _reject drop a
        # request's entries at its terminal outcome.
        self.blocks_by_id: dict[int, list[tuple[str, int]]] = {}
        #: request_id -> resolved StoreSnapshot for admitted as_of reads.
        self.asof_views: dict[int, object] = {}
        #: Run totals, keyed by the :class:`PolicyReport` field they fill.
        self.counts: dict[str, int | float] = dict.fromkeys(
            (
                "batches",
                "pcr_reactions",
                "amplified_blocks",
                "requested_block_accesses",
                "sequenced_reads",
                "decoded_bytes",
                "written_bytes",
                "synthesis_orders",
                "synthesized_strands",
                "synthesized_nucleotides",
                "retry_cycles",
                "retried_requests",
                "decode_failures",
                "qos_throttled",
                "qos_deferred",
                "deadline_violations",
            ),
            0,
        )
        self.counts["synthesis_hours"] = self.counts["lane_busy_hours"] = 0.0
        self.dispatch_scheduled = False
        self.batch_ids = itertools.count()
        self.sequence = itertools.count()

        requests: list[ServiceRequest] = []
        for index, event in enumerate(events):
            # Structurally malformed events are rejected before a request
            # object exists; range-vs-object validation happens at arrival
            # (it needs the catalog).  Either way the failure is the
            # request's alone.
            try:
                requests.append(
                    ServiceRequest(
                        request_id=index,
                        tenant=event.tenant,
                        object_name=event.object_name,
                        offset=event.offset,
                        length=event.length,
                        arrival_hours=event.time_hours,
                        op=event.op,
                        payload=event.payload,
                        as_of=event.as_of,
                        priority=event.priority,
                        deadline_hours=event.deadline_hours,
                    )
                )
            except DnaStorageError as exc:
                self._reject(index, str(exc))
        #: Requests in arrival order; :meth:`serve` merges them with the heap.
        self.arrivals = requests
        #: Scheduled events only: window closes, commits, cycle completions.
        self.heap: list[tuple[float, int, Callable, object]] = []
        # Time-travel support: when the trace carries as_of reads, the
        # committed-state timeline is sampled as copy-on-write snapshots —
        # one at run start, one per committed synthesis order.  Traces
        # without as_of reads pay nothing, and sampling stops after the
        # trace's largest as_of (resolution only ever looks backwards, so
        # later snapshots would be unreachable — and every live snapshot
        # forces subsequent updates to CoW-redirect, so taking them has a
        # real cost).
        as_of_times = [request.as_of for request in requests if request.as_of is not None]
        self.max_as_of = max(as_of_times, default=float("-inf"))
        self.timeline: list[tuple[float, object]] = (
            [(float("-inf"), self.store.snapshot())] if as_of_times else []
        )

    def serve(self) -> PolicyReport:
        """Run the event loop until arrivals and heap are exhausted, then
        report.

        The store's cache attachment is restored and the run's
        time-travel snapshots are released however the loop ends.
        """
        store = self.store
        tel = self.tel
        previous_cache = store.block_cache
        scope = ExitStack()
        try:
            if self.cache is not None:
                # The run's cache rides the store for the duration of the
                # event loop so applied writes (update patches, deletes)
                # invalidate exactly the stale keys; every simulator read
                # passes its cache view explicitly, so the attachment
                # affects invalidation only.  A caller-attached cache keeps
                # receiving those invalidations through the fanout shim (it
                # must not serve stale bytes after the run restores it).
                store.attach_cache(
                    self.cache
                    if previous_cache is None
                    else _InvalidationFanout(self.cache, previous_cache)
                )
            # A traced run activates its tracer (ambient — the decode engine
            # and stage regions find it there) and opens a stage collector
            # for the loop's extent; untraced runs skip both entirely.
            stages: dict[str, float] = {}
            if tel is not None:
                scope.enter_context(activate(tel.tracer))
                stages = scope.enter_context(collect_stages())
            heap = self.heap
            heappop = heapq.heappop
            # A local, not an attribute: a bound method stored on the run
            # would refer back to it and make the run a reference cycle.
            arrive = self._arrive
            for request in self.arrivals:
                # An arrival precedes every heap event at its time.
                when = request.arrival_hours
                while heap and heap[0][0] < when:
                    now, _, handler, payload = heappop(heap)
                    handler(payload, now)
                arrive(request, when)
            while heap:
                now, _, handler, payload = heappop(heap)
                handler(payload, now)
            if self.barrier:
                # Every request leaves the barrier at its terminal event;
                # one still inside never reached an outcome.
                operations, held = self.barrier.pending()
                raise ServiceError(
                    f"the run ended with {operations} request(s) that never "
                    f"reached a terminal outcome ({held} of them reads held "
                    "behind a write)"
                )
            # Close the tracing/stage scope before reporting; the run's
            # collector shadowed any caller-opened one for the loop's
            # extent, so fold the stage totals back out to it.
            scope.close()
            report = self._report()
            if tel is not None:
                record_stages(stages)
                report.observability = tel.finalize(report, stages)
            return report
        finally:
            # Idempotent: already closed on the clean path; on an
            # exception this deactivates the tracer and stage collector.
            scope.close()
            # Detach the run's cache (exceptions included) so the
            # store's prior attachment is preserved across runs, and
            # release the run's time-travel snapshots so blocks they
            # pinned (e.g. pre-update versions, deleted objects) become
            # reclaimable again.
            store.block_cache = previous_cache
            for _, snapshot in self.timeline:
                if not snapshot.released:
                    snapshot.release()

    def _report(self) -> PolicyReport:
        completed = self.completed
        checksum = 0
        for item in sorted(completed, key=lambda c: c.request.request_id):
            checksum = zlib.crc32(item.checksum.to_bytes(4, "big"), checksum)
        # The report lists deliveries in completion order (ties broken by
        # admission id); serves were recorded in event order, which may
        # run ahead for requests whose completion lies in the future.
        completed.sort(key=lambda c: (c.completion_hours, c.request.request_id))
        self.failed.sort(key=lambda f: f.request_id)
        read_latencies = [
            item.latency_hours for item in completed if item.request.op == "read"
        ]
        write_latencies = [
            item.latency_hours for item in completed if item.request.op != "read"
        ]
        empty = SummaryStats(
            count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
            minimum=0.0, maximum=0.0,
        )
        # 0.0 when every request was rejected.
        makespan = max((item.completion_hours for item in completed), default=0.0)
        return PolicyReport(
            policy=self.policy,
            fidelity=self.fidelity,
            completed=tuple(completed),
            failed=tuple(self.failed),
            latency=summarize(read_latencies) if read_latencies else empty,
            write_latency=summarize(write_latencies) if write_latencies else None,
            makespan_hours=makespan,
            throughput_per_hour=len(completed) / makespan if makespan else 0.0,
            distinct_requested_blocks=len(self.distinct_requested),
            wetlab_lanes=self.config.wetlab_lanes,
            lane_busy_hours_by_lane=self.lane_pool.busy_hours_by_lane,
            lane_schedule_horizon_hours=self.lane_pool.horizon_hours,
            qos_enabled=self.qos_admission is not None,
            checksum=checksum,
            cache=self.cache.stats if self.cache is not None else None,
            payloads=self.payloads if self.keep_data else None,
            **self.counts,
        )

    # ------------------------------------------------------------------
    # Shared steps
    # ------------------------------------------------------------------
    def _push(self, when: float, handler, payload) -> None:
        heapq.heappush(self.heap, (when, next(self.sequence), handler, payload))

    def _ensure_dispatch(self, now: float) -> None:
        if not self.dispatch_scheduled:
            self._push(now + self.config.window_hours, self._dispatch, None)
            self.dispatch_scheduled = True

    def _rearm(self, now: float) -> None:
        """Give queued work a future event: the unbatched policy pumps
        writes at once, the batched ones arm the next window if anything
        is queued."""
        if self.unbatched:
            self._pump_writes(now)
        elif len(self.queue):
            self._ensure_dispatch(now)

    def _reject(
        self, index: int, reason: str, *, now: float | None = None, attempts: int = 0
    ) -> None:
        """Fail request ``index`` alone, at ``now`` (default: its arrival)."""
        event = self.events[index]
        when = event.time_hours if now is None else now
        self.barrier.leave(event.object_name, index)
        self.blocks_by_id.pop(index, None)
        self.asof_views.pop(index, None)
        if self.tel is not None:
            self.tel.failed(index, when, reason)
        self.failed.append(
            FailedRequest(
                request_id=index,
                tenant=event.tenant,
                object_name=event.object_name,
                offset=event.offset,
                length=event.length,
                arrival_hours=event.time_hours,
                reason=reason,
                op=event.op,
                failure_hours=when,
                attempts=attempts,
            )
        )

    def _serve(
        self,
        request: ServiceRequest,
        completion_hours: float,
        *,
        from_cache: bool,
        batch_id: int | None,
        block_cache=None,
        attempts: int = 1,
    ) -> None:
        """Deliver a read (writes are acknowledged at commit)."""
        store = self.store
        tel = self.tel
        # The read's terminal outcome: its working state goes.
        self.blocks_by_id.pop(request.request_id, None)
        view_at = self.asof_views.pop(request.request_id, None)
        data = store.get(
            request.object_name,
            offset=request.offset,
            length=request.length,
            block_cache=block_cache if block_cache is not None else self.cache,
            at=view_at,
        )
        if self.wetlab is not None:
            # Wetlab fidelity: the served bytes came from physically
            # decoded reads; hold them against the digital reference.
            reference = store.get(
                request.object_name,
                offset=request.offset,
                length=request.length,
                block_cache=None,
                at=view_at,
            )
            if zlib.crc32(data) != zlib.crc32(reference):
                raise ServiceError(
                    f"wetlab fidelity violation: request "
                    f"{request.request_id} ({request.object_name!r} "
                    f"[{request.offset}, +{len(reference)})) decoded "
                    "bytes differ from the reference path"
                )
        self.counts["decoded_bytes"] += len(data)
        if self.keep_data:
            self.payloads[request.request_id] = data
        self.completed.append(
            CompletedRequest(
                request=request,
                completion_hours=completion_hours,
                byte_count=len(data),
                checksum=zlib.crc32(data),
                served_from_cache=from_cache,
                batch_id=batch_id,
                attempts=attempts,
            )
        )
        self.barrier.leave(request.object_name, request.request_id)
        if self.qos_admission is not None:
            # Deadline accounting, only while QoS admission runs: the
            # request's own budget wins over its tenant profile's;
            # violations are counted, never dropped.
            budget = request.deadline_hours
            if budget is None:
                budget = self.config.qos.profile(request.tenant).deadline_hours
            if (
                budget is not None
                and completion_hours - request.arrival_hours > budget + 1e-9
            ):
                self.counts["deadline_violations"] += 1
                if tel is not None:
                    tel.deadline_violation(request, completion_hours)
        if tel is not None:
            tel.served(
                request, completion_hours, from_cache=from_cache, attempts=attempts
            )

    def _serve_front_end(
        self, request: ServiceRequest, now: float, *, from_cache: bool, block_cache=None
    ) -> None:
        """Answer at memory speed, ``cache_service_hours`` after ``now``,
        with no wetlab work."""
        done = now + self.config.cache_service_hours
        if self.tel is not None:
            self.tel.front_end(
                request, now, done, "cache_service" if from_cache else "front_end"
            )
        self._serve(
            request, done, from_cache=from_cache, batch_id=None, block_cache=block_cache
        )

    def _admission_cost(self, request: ServiceRequest) -> int:
        """A queued read's QoS cost: the blocks it accesses."""
        return len(self.blocks_by_id[request.request_id])

    def _resolve_as_of(self, as_of: float):
        """Latest committed-state snapshot at or before ``as_of``."""
        for taken, snapshot in reversed(self.timeline):
            if taken <= as_of:
                return snapshot
        return self.timeline[0][1]

    def _admit_read(
        self, request: ServiceRequest, now: float, *, released: bool = False
    ) -> None:
        tel = self.tel
        view_at = None
        if request.as_of is not None:
            # Time-travel read: resolve the committed-state snapshot
            # once, at admission.  Historical state is immutable, so
            # the read joins neither side of the per-object write
            # barrier: it never waits for a pending write (the
            # snapshot keeps the old blocks) and never delays one.
            view_at = self._resolve_as_of(request.as_of)
            self.asof_views[request.request_id] = view_at
        elif not released and self.barrier.enter(request):
            # Read-after-write ordering: the read waits for exactly
            # the writes admitted before it to commit, then observes
            # their bytes (never a later write's).  A released read
            # is already ahead of every outstanding write.
            if tel is not None:
                tel.held(request, now)
            return
        try:
            blocks = self.scheduler.request_blocks(request, at=view_at)
        except DnaStorageError as exc:
            # Unknown object or range past the object's end: this
            # request fails alone; everyone else keeps being served.
            # (`now` is the decision time — later than arrival for reads
            # validated only after a write barrier released them.)
            self._reject(request.request_id, str(exc), now=now)
            return
        self.blocks_by_id[request.request_id] = blocks
        self.counts["requested_block_accesses"] += len(blocks)
        if not blocks:
            # Zero-length read: a valid empty response needing no
            # wetlab work — answered at front-end speed.
            self._serve_front_end(request, now, from_cache=False)
            return
        if self.unbatched:
            batch = self.scheduler.schedule(
                [request],
                batch_id=next(self.batch_ids),
                blocks_by_request=self.blocks_by_id,
            )
            self._dispatch_batch(batch, now)
            return
        cache = self.cache
        if cache is not None:
            block_epoch = self.store.volume.block_epoch
            if all(
                cache.contains(partition, block, block_epoch(partition, block))
                for partition, block in blocks
            ):
                # Fast path: every block is hot; no wetlab, no window.
                for key in blocks:
                    self.distinct_requested.setdefault(key, None)
                self._serve_front_end(request, now, from_cache=True)
                return
        self.queue.push(request)
        if tel is not None:
            tel.queued(request, now)
        self._ensure_dispatch(now)

    def _release_ready(self, name: str, now: float) -> None:
        """Re-admit held reads no longer behind an outstanding write
        (reads behind a later write keep waiting for exactly that
        write)."""
        for request in self.barrier.release(name):
            if self.tel is not None:
                self.tel.released(request, now)
            self._admit_read(request, now, released=True)

    def _charge(self, batch: ScheduledBatch, reads_per_block: int) -> None:
        counts = self.counts
        # A dispatch fully covered by the cache is not a wetlab cycle.
        if batch.amplified_block_count > 0:
            counts["batches"] += 1
        counts["pcr_reactions"] += batch.reaction_count
        counts["amplified_blocks"] += batch.amplified_block_count
        counts["sequenced_reads"] += batch.amplified_block_count * reads_per_block
        for key in batch.requested_blocks:
            self.distinct_requested.setdefault(key, None)

    def _start_cycle(
        self,
        batch: ScheduledBatch,
        riders: tuple[ServiceRequest, ...],
        view,
        now: float,
        attempt: int,
        reads_per_block: int,
    ) -> None:
        """Put a cycle's units on the shared lane pool and book its
        completion (the last of its units' absolute end times).

        Each planned access is one :class:`ReadoutUnit` (its own PCR
        stage plus its own sequencing sample); the unit is the handoff
        currency to the run's shared lane pool, which books the units'
        durations onto physical lanes in plan-access order.
        """
        if batch.amplified_block_count == 0:
            # Fully cache-covered batches are served at dispatch and never
            # schedule a cycle; reaching here is a scheduling bug.
            raise ServiceError("an empty plan has no wetlab cycle to charge")
        config = self.config
        durations = [
            unit.wetlab_hours(
                pcr_hours=config.pcr_hours,
                sequencing_hours=config.sequencing_hours,
                reads_per_block=reads_per_block,
            )
            for unit in plan_units(batch.plan)
        ]
        schedule = self.lane_pool.schedule(now, durations)
        completion = max(end for _, _, end in schedule)
        self.counts["lane_busy_hours"] += sum(durations)
        if self.tel is not None:
            self.tel.cycle(
                batch, riders, schedule, now, completion, attempt, reads_per_block
            )
        self._push(
            completion, self._complete, (batch, riders, view, attempt, reads_per_block)
        )

    def _dispatch_batch(self, batch: ScheduledBatch, now: float) -> None:
        """Serve a scheduled batch: cache-covered requests leave at
        dispatch, the rest ride the wetlab cycle to completion."""
        reads_per_block = self.config.reads_per_block
        self._charge(batch, reads_per_block)
        cache = self.cache
        tel = self.tel
        if cache is not None:
            view = PinnedCacheView(cache, batch.pinned_payloads)
        else:
            # Cache-less policies still memoize decodes within the
            # batch (wall-clock only; no reported number depends on
            # it — work counters come from the plan).
            view = _BatchScratch()
        pinned_keys = frozenset(key for key, _ in batch.pinned_payloads)
        blocks_by_id = self.blocks_by_id
        riders: list[ServiceRequest] = []
        for request in batch.requests:
            if tel is not None:
                tel.dispatched(request, now)
            # A request whose every block was pinned from the cache
            # needs no wetlab of its own: it is answered at dispatch,
            # at memory speed, not at the cycle's completion.
            if cache is not None and all(
                key in pinned_keys for key in blocks_by_id[request.request_id]
            ):
                self._serve_front_end(request, now, from_cache=True, block_cache=view)
            else:
                # The rider stays in the barrier until it is served,
                # so no write to its object can apply under the cycle.
                riders.append(request)
        if riders:
            self._start_cycle(batch, tuple(riders), view, now, 1, reads_per_block)

    def _cycle_failures(
        self,
        batch: ScheduledBatch,
        attempt: int,
        reads_per_block: int,
        view,
    ) -> dict[tuple[str, int], str]:
        """Run a cycle physically (wetlab) and collect decode failures.

        Successfully decoded blocks are published into the batch's
        view (write-through makes them cache-visible, now that the
        cycle is complete); failed and injected-failure blocks are
        withheld so affected riders can retry.
        """
        store = self.store
        failures: dict[tuple[str, int], str] = {}
        planned: dict[str, list[int]] = {}
        for access in batch.plan.accesses:
            planned.setdefault(access.partition, []).extend(
                range(access.start_block, access.end_block + 1)
            )
        if self.injector is not None:
            for partition_name, blocks in planned.items():
                for block in blocks:
                    key = (partition_name, block)
                    if self.injector(batch.batch_id, attempt, key):
                        failures[key] = "injected decode failure"
        decoded: dict[tuple[str, int], bytes] = {}
        if self.wetlab is not None:
            # Physically run the cycle: every unit amplifies its
            # partition's pool and samples its own reads (fresh PCR
            # and deeper coverage on retries), then decode exactly
            # the planned block set.
            with maybe_wall_span(
                "wetlab_readout",
                batch_id=batch.batch_id,
                attempt=attempt,
            ):
                reads = self.wetlab.unit_reads_by_partition(
                    batch.plan,
                    batch_seed=batch.batch_id,
                    reads_per_block=reads_per_block,
                )
            decoded, decode_failures = store.try_decode_blocks(
                planned,
                reads,
                workers=self.config.decode_workers,
                cluster_shards=self.config.decode_cluster_shards,
            )
            for key, reason in decode_failures.items():
                failures.setdefault(key, reason)
            for key, data in decoded.items():
                # Block-level checksum gate: a misassembled readout
                # (e.g. a misprimed neighbour strand winning a
                # shallow cluster) can decode "successfully" with
                # wrong bytes.  Catch it here so the retry budget
                # covers it — deeper coverage on the next cycle —
                # instead of a fidelity assertion aborting the run
                # at serve time.
                if key in failures:
                    continue
                reference = store.volume.partition(key[0]).read_block_reference(key[1])
                if data != reference:
                    failures[key] = (
                        f"decoded bytes of block {key[1]} in partition "
                        f"{key[0]!r} failed the reference checksum "
                        "(misassembled readout)"
                    )
        with maybe_wall_span("cache_fill", blocks=len(decoded)):
            for key, data in decoded.items():
                if key not in failures:
                    # Mirror the reference path's fill sequence (lookup
                    # miss, then insert): the miss records the block's
                    # demand with the cache — its stats and the TinyLFU
                    # admission sketch — before the pin makes later
                    # serve-path lookups bypass the cache entirely.
                    epoch = store.volume.block_epoch(key[0], key[1])
                    view.get(key[0], key[1], epoch)
                    view.put(key[0], key[1], data, epoch)
        return failures

    def _pump_writes(self, now: float) -> None:
        """Dispatch every queued write whose object barrier is clear.

        A write is eligible only when everything admitted before it on
        its object has reached a terminal state or is another
        not-yet-dispatched write riding this same pump — so writes
        serialize per object, never overtake a read, and same-window
        writes still coalesce into one synthesis order whose
        per-partition jobs run in parallel at the vendor.
        """
        # Queue order guarantees earlier queued writes of an object are
        # ruled eligible first, so they ride the same order.
        writes = self.queue.take(self.barrier.write_eligible)
        if not writes:
            return
        tel = self.tel
        if tel is not None:
            for request in writes:
                tel.dispatched(request, now)
        order = self.scheduler.schedule_writes(writes, order_id=next(self.batch_ids))
        rejected = False
        for outcome in order.outcomes:
            if outcome.applied:
                self.barrier.mark_dispatched(outcome.request)
            else:
                # The store rejected it (duplicate name, exhausted
                # update slots, bad range): this write fails alone,
                # at dispatch time (reject makes it leave the barrier).
                rejected = True
                self._reject(outcome.request.request_id, outcome.reason, now=now)
                self._release_ready(outcome.request.object_name, now)
        if order.applied:
            config = self.config
            counts = self.counts
            counts["synthesis_orders"] += 1
            counts["synthesized_strands"] += order.strand_count
            counts["synthesized_nucleotides"] += order.nucleotide_count
            # The order commits when its largest per-partition job
            # delivers; with nothing to manufacture (pure deletes) it
            # commits at front-end latency.
            hours = max(
                (
                    config.synthesis_setup_hours
                    + config.synthesis_hours_per_kilobase * job.nucleotides / 1000.0
                    for job in order.jobs
                ),
                default=config.cache_service_hours,
            )
            counts["synthesis_hours"] += hours
            if tel is not None:
                tel.synthesis_dispatched(order, now)
            self._push(now + hours, self._commit, order)
        if rejected and len(self.queue):
            # A rejection's release_ready may have served held reads
            # instantly (cache hit, zero-length, admission reject),
            # unblocking writes queued behind them with no future
            # event left to pump — re-arm so they are never stranded.
            self._rearm(now)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _arrive(self, request: ServiceRequest, now: float) -> None:
        """A request is admitted."""
        tel = self.tel
        if tel is not None:
            tel.admitted(request, now)
        if not request.is_write:
            self._admit_read(request, now)
            return
        self.barrier.enter(request)
        self.queue.push(request)
        if tel is not None:
            tel.queued(request, now)
        self._rearm(now)

    def _dispatch(self, _payload: None, now: float) -> None:
        """A scheduling window closes: batch its reads, pump its writes."""
        self.dispatch_scheduled = False
        queue = self.queue
        tel = self.tel
        # Reads drain before writes apply: a queued read arrived before
        # every queued write on its object (later reads were held at
        # admission), so scheduling it first puts it in flight and the
        # write barrier below keeps the store unmutated until its cycle
        # delivers — same-window operations serve in arrival order.
        queue_depth = len(queue)
        if self.qos_admission is None:
            pending = queue.drain_op("read")
        else:
            # QoS admission: only rate-eligible requests within their
            # tenant's fair share enter this window's batch; the rest
            # stay queued (in arrival order) for the next window.
            decision = self.qos_admission.admit(
                queue.reads_by_tenant(), now, self._admission_cost
            )
            self.counts["qos_throttled"] += sum(decision.throttled.values())
            self.counts["qos_deferred"] += sum(decision.deferred.values())
            if tel is not None:
                tel.qos_decision(decision, now)
            pending = queue.take_reads(decision.admitted)
        if pending:
            batch = self.scheduler.schedule(
                pending,
                cache=self.cache,
                batch_id=next(self.batch_ids),
                blocks_by_request=self.blocks_by_id,
            )
            if tel is not None:
                tel.batch_scheduled(batch, queue_depth, now)
            self._dispatch_batch(batch, now)
        self._pump_writes(now)
        # Deferred reads need a future window: re-arm the dispatch
        # timer so their buckets refill / shares free up (window_hours
        # > 0 is enforced by ServiceConfig, and the admission's progress
        # guarantee admits at least one eligible request per window, so
        # this terminates).
        if self.qos_admission is not None and queue.read_count:
            self._ensure_dispatch(now)

    def _commit(self, order: SynthesisOrder, now: float) -> None:
        """A synthesis order delivered: acknowledge its writes."""
        tel = self.tel
        if tel is not None:
            tel.synthesis_committed(order, now)
        if self.wetlab is not None:
            # The manufactured strands join their partitions' pools;
            # only the touched pools re-synthesize.
            for partition_name in order.partitions:
                self.wetlab.reset_pool(partition_name)
        released: dict[str, None] = {}
        for outcome in order.applied:
            request = outcome.request
            self.barrier.leave(request.object_name, request.request_id)
            released[request.object_name] = None
            self.counts["written_bytes"] += outcome.bytes_written
            self.completed.append(
                CompletedRequest(
                    request=request,
                    completion_hours=now,
                    byte_count=outcome.bytes_written,
                    checksum=zlib.crc32(request.payload or b""),
                    served_from_cache=False,
                    batch_id=order.order_id,
                )
            )
            if tel is not None:
                tel.served(request, now, from_cache=False, attempts=1)
        if now <= self.max_as_of:
            # Sample the committed-state timeline: later as_of reads
            # at or past `now` observe this order's writes.  Commits
            # after the largest as_of in the trace need no snapshot —
            # nothing can resolve to them.
            self.timeline.append((now, self.store.snapshot()))
        for name in released:
            self._release_ready(name, now)
        self._rearm(now)

    def _complete(self, cycle, now: float) -> None:
        """A wetlab cycle finished: deliver its riders, retry or fail the
        ones whose blocks did not decode."""
        batch, riders, view, attempt, reads_per_block = cycle
        config = self.config
        blocks_by_id = self.blocks_by_id
        # Serving (and therefore cache fill) happens at cycle
        # completion: blocks decoded by an in-flight cycle must not be
        # cache-visible before the cycle's sequencing finishes.  The
        # batch's schedule-time cache hits were pinned, so evictions
        # during the cycle cannot turn charged work into free reads.
        failures: dict[tuple[str, int], str] = {}
        if batch.amplified_block_count > 0 and (
            self.wetlab is not None or self.injector is not None
        ):
            failures = self._cycle_failures(batch, attempt, reads_per_block, view)
            self.counts["decode_failures"] += len(failures)
        retriers: list[ServiceRequest] = []
        for request in riders:
            if failures and any(
                key in failures for key in blocks_by_id[request.request_id]
            ):
                retriers.append(request)
                continue
            self._serve(
                request,
                now,
                from_cache=False,
                batch_id=batch.batch_id,
                block_cache=view,
                attempts=attempt,
            )
        if retriers and attempt > config.retry_budget:
            for request in retriers:
                failed_blocks = sorted(
                    key for key in blocks_by_id[request.request_id] if key in failures
                )
                self._reject(
                    request.request_id,
                    f"decode failed after {attempt} cycles (retry budget "
                    f"{config.retry_budget}): blocks {failed_blocks} — "
                    f"{failures[failed_blocks[0]]}",
                    now=now,
                    attempts=attempt,
                )
        elif retriers:
            # Retry cycle: only the failed blocks the retrying requests
            # still need, re-amplified with fresh PCR and sequenced at
            # deeper coverage under a fresh seed.
            needed: dict[tuple[str, int], None] = {}
            for request in retriers:
                for key in blocks_by_id[request.request_id]:
                    if key in failures:
                        needed.setdefault(key, None)
            retry_plan = plan_partition_ranges(
                self.store.volume,
                ranges_from_block_keys(list(needed)),
                label=f"retry-{batch.batch_id:05d}-{attempt}",
            )
            retry_batch = ScheduledBatch(
                batch_id=next(self.batch_ids),
                requests=tuple(retriers),
                plan=retry_plan,
                requested_blocks=(),
            )
            next_reads = config.retry_reads_per_block(attempt + 1)
            self._charge(retry_batch, next_reads)
            self.counts["retry_cycles"] += 1
            self.counts["retried_requests"] += len(retriers)
            self._start_cycle(
                retry_batch, tuple(retriers), view, now, attempt + 1, next_reads
            )
        # Served/failed riders may have been the last in-flight reads
        # blocking a queued write.
        self._rearm(now)
