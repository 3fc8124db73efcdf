"""Shared wetlab lane pool and per-tenant QoS admission.

Two subsystems the serving pipeline composes:

**SharedLanePool** — thermocycler/flow-cell lanes as a *persistent*
resource.  The original simulator gave every wetlab cycle a fresh pool of
``wetlab_lanes`` stations at relative time zero, so overlapping cycles
silently multiplied the hardware and the per-lane "utilization" metrics
were really a pressure signal that could exceed 1.0.  The shared pool
keeps one free-at frontier per physical lane across the whole run: a
cycle's readout units queue onto busy lanes (``start = max(now,
lane_free_at)``) instead of overflowing the pool, every busy interval on
a lane is disjoint, and per-lane busy time divided by the schedule
horizon is a true utilization in [0, 1].

**Tenant QoS** — admission control into the batch scheduler:

* :class:`TenantQoS` / :class:`QoSConfig` declare per-tenant weight,
  token-bucket rate limit (in block-accesses per simulated hour —
  the unit the wetlab bill is denominated in), priority class and
  deadline budget;
* :class:`TokenBucket` is the deterministic, sim-clock refilled limiter;
* :func:`weighted_fair_shares` is the water-filling share allocator —
  idle tenants' unused share is redistributed to backlogged ones in
  proportion to weight;
* :class:`QoSAdmission` ties them together per dispatch: rate-limit
  each tenant's FIFO prefix, then admit flows priority class by
  priority class under the window's block budget, carrying unspent
  share as a deficit so large requests are never starved.

QoS is configuration-off by default (``ServiceConfig(qos=None)``), and —
like tracing — enabling it never changes a request's decoded bytes: the
per-object FIFO write barrier pins which writes every read observes, so
admission control reshapes *when* work happens, never *what* is read.

Everything here is pure Python, deterministic, and sim-clock only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Collection, Mapping

from repro.exceptions import ServiceError
from repro.service.requests import ServiceRequest

#: Float-accumulation slack for token and share comparisons.
_EPS = 1e-9


class SharedLanePool:
    """A persistent pool of wetlab lanes shared by every cycle of a run.

    Each lane keeps an absolute free-at frontier (simulated hours).
    Scheduling a cycle's unit durations assigns each unit, in submission
    order, to the lane that can *start* it earliest (ties broken by lane
    index) — units queue behind earlier cycles' work instead of
    pretending a fresh pool exists.

    Args:
        lane_count: number of physical lanes (> 0).
    """

    def __init__(self, lane_count: int) -> None:
        if lane_count <= 0:
            raise ServiceError("lane_count must be positive")
        self._free_at = [0.0] * lane_count
        self._busy = [0.0] * lane_count

    @property
    def lane_count(self) -> int:
        return len(self._free_at)

    @property
    def busy_hours_by_lane(self) -> tuple[float, ...]:
        """Total booked unit time per lane (disjoint intervals)."""
        return tuple(self._busy)

    @property
    def horizon_hours(self) -> float:
        """Latest booked completion across all lanes (0.0 when idle)."""
        return max(self._free_at)

    def schedule(
        self, now: float, durations: list[float]
    ) -> list[tuple[int, float, float]]:
        """Book a cycle's units onto the pool at absolute time ``now``.

        Returns one ``(lane, start_hours, end_hours)`` tuple per unit in
        submission order, on the absolute simulated clock.  A unit starts
        at ``max(now, lane_free_at)`` — i.e. it waits for the lane's
        earlier bookings to drain.  Fully deterministic.
        """
        if now < 0:
            raise ServiceError("schedule time must be non-negative")
        schedule: list[tuple[int, float, float]] = []
        for duration in durations:
            if duration < 0:
                raise ServiceError("unit durations must be non-negative")
            lane = min(
                range(len(self._free_at)),
                key=lambda index: (max(self._free_at[index], now), index),
            )
            start = max(self._free_at[lane], now)
            end = start + duration
            self._free_at[lane] = end
            self._busy[lane] += duration
            schedule.append((lane, start, end))
        return schedule


@dataclass(frozen=True)
class TenantQoS:
    """One tenant's QoS profile.

    Attributes:
        weight: weighted-fair share weight (> 0); a tenant with twice the
            weight gets twice the block budget under contention.
        rate_blocks_per_hour: token-bucket refill rate in block-accesses
            per simulated hour (``None`` = unlimited).
        burst_blocks: token-bucket capacity (``None`` = one hour's worth
            of the rate).  A single request costing more than the burst
            is admitted only from a full bucket, leaving a debt that
            repays at the refill rate — so oversized reads are slowed,
            never starved.
        priority: admission class (0 = most urgent); classes are served
            in strict order, each sharing the window budget fairly.
        deadline_hours: completion budget from arrival; violations are
            counted on the report (no request is dropped for missing it).
    """

    weight: float = 1.0
    rate_blocks_per_hour: float | None = None
    burst_blocks: float | None = None
    priority: int = 1
    deadline_hours: float | None = None

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not self.weight > 0:
            raise ServiceError("QoS weight must be positive")
        if self.rate_blocks_per_hour is not None and not self.rate_blocks_per_hour > 0:
            raise ServiceError("rate_blocks_per_hour must be positive when set")
        if self.burst_blocks is not None:
            if not self.burst_blocks > 0:
                raise ServiceError("burst_blocks must be positive when set")
            if self.rate_blocks_per_hour is None:
                raise ServiceError("burst_blocks requires rate_blocks_per_hour")
        if self.priority < 0:
            raise ServiceError("priority must be non-negative")
        if self.deadline_hours is not None and not self.deadline_hours > 0:
            raise ServiceError("deadline_hours must be positive when set")


def _coerce_profile(value: "TenantQoS | Mapping") -> TenantQoS:
    if isinstance(value, TenantQoS):
        return value
    if isinstance(value, Mapping):
        expected = tuple(item.name for item in fields(TenantQoS))
        unknown = sorted(str(name) for name in value if name not in expected)
        if unknown:
            raise ServiceError(
                f"unknown TenantQoS fields in QoS profile: {', '.join(unknown)} "
                f"(expected {expected})"
            )
        return TenantQoS(**dict(value))
    raise ServiceError(
        "QoS profiles must be TenantQoS instances or field mappings, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class QoSConfig:
    """Per-tenant QoS policy of one serving run.

    Attributes:
        profiles: tenant name -> :class:`TenantQoS` (plain field dicts —
            e.g. from :func:`repro.workloads.tenant_qos_profiles` — are
            coerced, keeping the workloads package free of service
            imports).
        default: profile applied to tenants without an entry.
        window_block_budget: block-accesses one dispatch window may admit
            into the batch scheduler (``None`` = unlimited: rate limits
            and priorities still apply, but no weighted-fair division
            happens because there is nothing to divide).
    """

    profiles: Mapping[str, TenantQoS] = field(default_factory=dict)
    default: TenantQoS = field(default_factory=TenantQoS)
    window_block_budget: int | None = None

    def __post_init__(self) -> None:
        coerced = {
            tenant: _coerce_profile(profile)
            for tenant, profile in self.profiles.items()
        }
        object.__setattr__(self, "profiles", coerced)
        object.__setattr__(self, "default", _coerce_profile(self.default))
        if self.window_block_budget is not None and self.window_block_budget < 1:
            raise ServiceError("window_block_budget must be >= 1 when set")

    def profile(self, tenant: str) -> TenantQoS:
        """The tenant's profile, falling back to the default."""
        return self.profiles.get(tenant, self.default)


class TokenBucket:
    """A deterministic token bucket refilled by simulated time.

    Tokens are denominated in block-accesses.  The bucket starts full.
    A cost larger than the capacity is affordable only from a full
    bucket and leaves the balance negative — a debt that repays at the
    refill rate, so oversized requests are paced, not starved.
    """

    def __init__(self, rate_per_hour: float, burst: float, now: float) -> None:
        if rate_per_hour <= 0:
            raise ServiceError("token bucket rate must be positive")
        if burst <= 0:
            raise ServiceError("token bucket burst must be positive")
        self.rate = rate_per_hour
        self.burst = burst
        self._tokens = burst
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = max(self._last, now)

    def available(self, now: float) -> float:
        """Token balance at ``now`` (may be negative while repaying debt)."""
        self._refill(now)
        return self._tokens

    def affordable(self, cost: float, now: float) -> bool:
        """Could ``cost`` be charged at ``now``?  Does not deduct."""
        self._refill(now)
        return self._tokens + _EPS >= min(cost, self.burst)

    def charge(self, cost: float, now: float) -> None:
        """Deduct ``cost`` (the balance may go negative, see class doc)."""
        self._refill(now)
        self._tokens -= cost


def weighted_fair_shares(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
) -> dict[str, float]:
    """Water-filling weighted-fair division of ``capacity`` over demands.

    Each tenant receives at most its demand; capacity a tenant cannot use
    (demand below its weighted slice) is redistributed to the still-hungry
    tenants in proportion to their weights, round by round, until either
    every demand is met or the capacity is exhausted.  Properties:

    * ``sum(shares) <= min(capacity, sum(demands))`` (up to float slack);
    * a tenant never gets more than its demand;
    * under contention a tenant's share is at least its weighted
      proportion of capacity (max-min weighted fairness);
    * idle tenants (zero demand) consume nothing.

    Deterministic: tenants are processed in sorted-name order.
    """
    if capacity < 0:
        raise ServiceError("capacity must be non-negative")
    shares = {tenant: 0.0 for tenant in demands}
    for tenant, demand in demands.items():
        if demand < 0:
            raise ServiceError("demands must be non-negative")
        if tenant not in weights:
            raise ServiceError(f"no weight for tenant {tenant!r}")
        if weights[tenant] <= 0:
            raise ServiceError("weights must be positive")
    remaining = float(capacity)
    while remaining > _EPS:
        hungry = sorted(
            tenant for tenant, demand in demands.items()
            if shares[tenant] < demand - _EPS
        )
        if not hungry:
            break
        total_weight = sum(weights[tenant] for tenant in hungry)
        allocation = {
            tenant: remaining * weights[tenant] / total_weight for tenant in hungry
        }
        saturated = [
            tenant
            for tenant in hungry
            if shares[tenant] + allocation[tenant] >= demands[tenant] - _EPS
        ]
        if saturated:
            # Cap the saturated tenants at their demand and re-divide the
            # slack among the rest next round.
            for tenant in saturated:
                grant = demands[tenant] - shares[tenant]
                shares[tenant] = demands[tenant]
                remaining -= grant
        else:
            # Nobody saturates: the proportional split is final.
            for tenant in hungry:
                shares[tenant] += allocation[tenant]
            remaining = 0.0
    return shares


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one dispatch window's QoS admission pass.

    Attributes:
        admitted: requests entering the batch scheduler this window, in
            admission order: priority class, then tenant name, then FIFO
            order (the progress-guarantee grant, if any, alone).
        throttled: tenant -> requests its token bucket held back this
            window: the first request the bucket could not afford and the
            tenant's whole FIFO behind it (per-tenant FIFO).
        deferred: tenant -> bucket-eligible requests the window's block
            budget could not fit; they stay queued for the next window.

    The maps hold one entry per tenant with a nonzero count, so reading
    or summing them costs O(tenants), never O(requests).  A request can
    be throttled/deferred at several consecutive dispatches before
    finally admitting; the counts are therefore *event* counts, not
    request counts.
    """

    admitted: tuple[ServiceRequest, ...] = ()
    throttled: Mapping[str, int] = field(default_factory=dict)
    deferred: Mapping[str, int] = field(default_factory=dict)


class QoSAdmission:
    """Stateful per-run admission engine over a :class:`QoSConfig`.

    One instance lives for one pipeline run; it owns the tenants' token
    buckets and deficit carries.  :meth:`admit` is called at each
    dispatch with each tenant's queued reads (oldest first) and decides
    which of them enter this window's batch:

    1. **Rate limits** — each tenant's requests are screened oldest
       first against its token bucket; the first unaffordable request
       blocks the tenant's tail (per-tenant FIFO, so buckets pace flows
       without reordering them).
    2. **Priority classes** — bucket-eligible requests are grouped into
       ``(priority, tenant)`` flows; classes admit in strict ascending
       order (an explicit ``request.priority`` overrides the profile).
    3. **Weighted-fair budget** — within a class, the remaining window
       block budget is divided by :func:`weighted_fair_shares`; each
       flow admits its FIFO prefix that fits its share plus its carried
       deficit.  Unspent share of a still-backlogged flow carries to the
       next window (bounded by the budget), so a large head request
       eventually accumulates the credit to admit.
    4. **Progress guarantee** — if the pass admitted nothing but
       eligible requests exist, the oldest eligible request of the most
       urgent class is admitted unconditionally: the pipeline always
       advances, whatever the budget.

    Buckets are only charged for requests actually admitted.

    Cost of one :meth:`admit`: each tenant's profile is resolved and its
    bucket refilled once; ``cost_of`` runs once per request walked, and
    the walk stops at the first request a bucket cannot afford — the
    throttled tail is counted, never visited.  That is O(tenants with
    queued reads + bucket-eligible requests), plus the water-filling
    over the window's flows and the sort of their keys.  Bucket-eligible
    requests are the admitted ones plus those the budget defers: each
    flow's demand sums all of them, and the budget stage stops each flow
    at its first deferred request.
    """

    def __init__(self, config: QoSConfig) -> None:
        self._config = config
        self._buckets: dict[str, TokenBucket] = {}
        self._carry: dict[str, float] = {}

    def _bucket(
        self, tenant: str, profile: TenantQoS, now: float
    ) -> TokenBucket | None:
        if profile.rate_blocks_per_hour is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            burst = (
                profile.burst_blocks
                if profile.burst_blocks is not None
                else profile.rate_blocks_per_hour
            )
            bucket = TokenBucket(profile.rate_blocks_per_hour, burst, now)
            self._buckets[tenant] = bucket
        return bucket

    def admit(
        self,
        queued: Mapping[str, Collection[tuple[int, ServiceRequest]]],
        now: float,
        cost_of: Callable[[ServiceRequest], float],
    ) -> AdmissionDecision:
        """Decide one dispatch window's admissions (see class doc).

        Args:
            queued: tenant -> that tenant's queued reads as ``(push
                stamp, request)`` entries, oldest first
                (:meth:`repro.service.queue.RequestQueue.reads_by_tenant`).
            now: the dispatch time (simulated hours).
            cost_of: a request's admission cost in block accesses.

        Raises:
            ServiceError: if ``cost_of`` returns a negative cost for a
                request the walk visits.
        """
        throttled: dict[str, int] = {}
        deferred: dict[str, int] = {}
        # (priority, tenant) -> bucket-eligible (request, cost), FIFO order.
        flows: dict[tuple[int, str], list[tuple[ServiceRequest, float]]] = {}
        for tenant, fifo in queued.items():
            if not fifo:
                continue
            profile = self._config.profile(tenant)
            bucket = self._bucket(tenant, profile, now)
            if bucket is not None:
                balance = bucket.available(now)
            provisional = 0.0
            for walked, (_, request) in enumerate(fifo):
                cost = cost_of(request)
                if cost < 0:
                    raise ServiceError("request admission cost must be non-negative")
                if bucket is not None:
                    if balance - provisional + _EPS < min(cost, bucket.burst):
                        # Head-of-line: the tenant's tail waits behind this
                        # request so the bucket paces without reordering.
                        throttled[tenant] = len(fifo) - walked
                        break
                    provisional += cost
                priority = (
                    request.priority if request.priority is not None else profile.priority
                )
                flows.setdefault((priority, tenant), []).append((request, cost))

        admitted: list[tuple[ServiceRequest, float]] = []
        budget = self._config.window_block_budget
        if budget is None:
            for key in sorted(flows):
                admitted.extend(flows[key])
        else:
            levels: dict[int, list[str]] = {}
            for priority, tenant in sorted(flows):
                levels.setdefault(priority, []).append(tenant)
            remaining = float(budget)
            for level, tenants_at in levels.items():
                demands = {
                    tenant: sum(cost for _, cost in flows[(level, tenant)])
                    for tenant in tenants_at
                }
                weights = {
                    tenant: self._config.profile(tenant).weight
                    for tenant in tenants_at
                }
                shares = weighted_fair_shares(demands, weights, max(remaining, 0.0))
                for tenant in tenants_at:
                    flow = flows[(level, tenant)]
                    allowance = shares[tenant] + self._carry.get(tenant, 0.0)
                    taken = 0.0
                    fitted = 0
                    for request, cost in flow:
                        if not taken + cost <= allowance + _EPS:
                            # Per-flow FIFO: once one request misses the
                            # share, the flow's tail waits with it.
                            break
                        admitted.append((request, cost))
                        taken += cost
                        fitted += 1
                    remaining -= taken
                    if fitted < len(flow):
                        deferred[tenant] = deferred.get(tenant, 0) + len(flow) - fitted
                        # Deficit round-robin: unspent allowance carries so
                        # a request costlier than any one share still
                        # accumulates credit (bounded by the budget).
                        self._carry[tenant] = min(allowance - taken, float(budget))
                    else:
                        self._carry.pop(tenant, None)
            if not admitted and deferred:
                # Progress guarantee: the window always advances.  The
                # oldest eligible request of the most urgent class admits
                # unconditionally (its flow's carry resets — the grant
                # replaces the credit).  Nothing was admitted, so every
                # eligible request of the class is a candidate.
                level = next(iter(levels))
                oldest = min(
                    (
                        entry
                        for tenant in levels[level]
                        for entry in flows[(level, tenant)]
                    ),
                    key=lambda entry: entry[0].request_id,
                )
                tenant = oldest[0].tenant
                deferred[tenant] -= 1
                if not deferred[tenant]:
                    del deferred[tenant]
                admitted.append(oldest)
                self._carry.pop(tenant, None)

        for request, cost in admitted:
            bucket = self._buckets.get(request.tenant)
            if bucket is not None:
                bucket.charge(cost, now)
        return AdmissionDecision(
            admitted=tuple(request for request, _ in admitted),
            throttled=throttled,
            deferred=deferred,
        )


__all__ = [
    "AdmissionDecision",
    "QoSAdmission",
    "QoSConfig",
    "SharedLanePool",
    "TenantQoS",
    "TokenBucket",
    "weighted_fair_shares",
]
