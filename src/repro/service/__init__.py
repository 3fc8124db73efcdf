"""repro.service — the multi-tenant serving layer above the object store.

The paper makes block access *precise* (Sections 3–6) and argues that
precision makes DNA storage economically servable (Sections 7.3–7.5);
this package supplies the layer that argument presumes: a request
front-end that amortizes each wetlab cycle across every concurrent
caller — for reads *and* writes.

* :mod:`repro.service.requests` — operation-agnostic requests
  (read/put/update/delete) and served outcomes.
* :mod:`repro.service.queue` — :class:`RequestQueue` and
  :class:`BatchScheduler`: coalesce a scheduling window's requests,
  deduplicate overlapping per-partition block ranges across tenants into
  one merged :class:`repro.store.planner.BatchReadPlan` per read cycle,
  and coalesce queued writes into per-partition
  :class:`SynthesisOrder` s.
* :mod:`repro.service.cache` — :class:`DecodedBlockCache`: a
  byte-bounded LRU over decoded blocks with an optional TinyLFU-style
  frequency-aware admission gate, so Zipfian-hot data (Section 7.7.4)
  skips the wetlab entirely and scans cannot flush it.
* :mod:`repro.service.simulator` — :class:`ServicePipeline`: a
  deterministic event-driven loop that serves mixed read/write arrival
  traces under unbatched / batched / batched+cache policies — with
  per-object read-after-write ordering, decode-failure retry cycles and
  a bounded wetlab lane pool — and reports throughput, tail latency,
  cache hit rate, synthesis volume and amplification waste.
* :mod:`repro.service.barrier` — :class:`~repro.service.barrier.
  ObjectBarrier`: the loop's per-object write barrier (reads observe
  exactly the writes admitted before them; O(1) per operation).
* :mod:`repro.service.scheduler_qos` — :class:`SharedLanePool` (the
  run-global thermocycler/flow-cell lanes every cycle books onto, giving
  true per-lane utilization ≤ 1.0) and the tenant QoS admission layer:
  :class:`TenantQoS` profiles, token-bucket rate limits, priority
  classes and weighted-fair window shares
  (``ServiceConfig(qos=QoSConfig(...))``; default off, byte-identical
  per-request results either way).
* :mod:`repro.service.telemetry` — :class:`RunTelemetry`: the per-run
  recorder a traced pipeline run uses to build its span tree and metrics
  snapshot (``ServiceConfig(tracing=True)`` / ``REPRO_TRACING=1``; see
  :mod:`repro.observability`).

Pure Python end to end — the serving layer imports only the sequencing
*models* (not the simulator), so it runs without numpy.
"""

from repro.service.cache import (
    ADMISSION_POLICIES,
    CacheStats,
    DecodedBlockCache,
    FrequencySketch,
    PinnedCacheView,
)
from repro.service.queue import (
    BatchScheduler,
    PartitionSynthesisJob,
    RequestQueue,
    ScheduledBatch,
    SynthesisOrder,
    WriteOutcome,
)
from repro.service.requests import (
    OPERATIONS,
    WRITE_OPERATIONS,
    CompletedRequest,
    FailedRequest,
    ReadRequest,
    ServiceRequest,
)
from repro.service.scheduler_qos import (
    AdmissionDecision,
    QoSAdmission,
    QoSConfig,
    SharedLanePool,
    TenantQoS,
    TokenBucket,
    weighted_fair_shares,
)
from repro.service.simulator import (
    FIDELITIES,
    POLICIES,
    PolicyReport,
    ServiceConfig,
    ServicePipeline,
    policy_latency_comparison,
)
from repro.service.telemetry import RunTelemetry

__all__ = [
    "ADMISSION_POLICIES",
    "FIDELITIES",
    "OPERATIONS",
    "POLICIES",
    "WRITE_OPERATIONS",
    "AdmissionDecision",
    "BatchScheduler",
    "CacheStats",
    "CompletedRequest",
    "DecodedBlockCache",
    "FailedRequest",
    "FrequencySketch",
    "PartitionSynthesisJob",
    "PinnedCacheView",
    "PolicyReport",
    "QoSAdmission",
    "QoSConfig",
    "ReadRequest",
    "RequestQueue",
    "RunTelemetry",
    "ScheduledBatch",
    "ServiceConfig",
    "ServicePipeline",
    "ServiceRequest",
    "SharedLanePool",
    "SynthesisOrder",
    "TenantQoS",
    "TokenBucket",
    "WriteOutcome",
    "policy_latency_comparison",
    "weighted_fair_shares",
]
