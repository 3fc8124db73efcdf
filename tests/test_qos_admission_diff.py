"""Differential and cost tests for per-tenant QoS admission.

:meth:`QoSAdmission.admit` used to take the queued reads as one list in
queue order and walk all of it every dispatch window, the throttled
backlog included.  It now reads a tenant -> FIFO view of
:class:`RequestQueue`, stops each tenant's walk at the first request its
token bucket cannot afford and counts the rest.  ``ReferenceAdmission``
below keeps the list-walking engine verbatim as the reference model:
Hypothesis drives both over multi-window sequences and every admitted
sequence, per-tenant throttle/defer count, deficit carry and bucket
balance must agree exactly.

A pipeline-level test then bounds the work a scan-attack run does per
window, and a small mixed trace pins a case where admission takes reads
that are not a prefix of a tenant's FIFO.
"""

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service import (
    QoSAdmission,
    QoSConfig,
    RequestQueue,
    ServiceConfig,
    ServicePipeline,
    ServiceRequest,
    TenantQoS,
    TokenBucket,
    weighted_fair_shares,
)
from repro.service.scheduler_qos import _EPS
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import (
    RequestEvent,
    multi_tenant_trace,
    object_corpus,
    tenant_qos_profiles,
)


@dataclass(frozen=True)
class ReferenceDecision:
    admitted: tuple = ()
    throttled: tuple = ()
    deferred: tuple = ()


class ReferenceAdmission:
    """The list-walking admission engine: every window screens every
    queued read, in queue order."""

    def __init__(self, config):
        self._config = config
        self._buckets = {}
        self._carry = {}

    def _bucket(self, tenant, now):
        profile = self._config.profile(tenant)
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

    def admit(self, pending, now, cost_of):
        throttled = []
        admitted = []
        deferred = []
        flows = {}
        blocked = {}
        provisional = {}
        for request in pending:
            tenant = request.tenant
            cost = cost_of(request)
            if cost < 0:
                raise ServiceError("request admission cost must be non-negative")
            bucket = self._bucket(tenant, now)
            if blocked.get(tenant):
                throttled.append(request)
                continue
            if bucket is not None:
                balance = bucket.available(now) - provisional.get(tenant, 0.0)
                if balance + _EPS < min(cost, bucket.burst):
                    blocked[tenant] = True
                    throttled.append(request)
                    continue
                provisional[tenant] = provisional.get(tenant, 0.0) + cost
            profile = self._config.profile(tenant)
            priority = (
                request.priority if request.priority is not None else profile.priority
            )
            flows.setdefault((priority, tenant), []).append(request)

        budget = self._config.window_block_budget
        if budget is None:
            for key in sorted(flows):
                admitted.extend(flows[key])
        else:
            remaining = float(budget)
            for level in sorted({priority for priority, _ in flows}):
                tenants_at = sorted(
                    tenant for priority, tenant in flows if priority == level
                )
                demands = {
                    tenant: sum(cost_of(request) for request in flows[(level, tenant)])
                    for tenant in tenants_at
                }
                weights = {
                    tenant: self._config.profile(tenant).weight
                    for tenant in tenants_at
                }
                shares = weighted_fair_shares(demands, weights, max(remaining, 0.0))
                for tenant in tenants_at:
                    allowance = shares[tenant] + self._carry.get(tenant, 0.0)
                    taken = 0.0
                    backlogged = False
                    for request in flows[(level, tenant)]:
                        cost = cost_of(request)
                        if not backlogged and taken + cost <= allowance + _EPS:
                            admitted.append(request)
                            taken += cost
                        else:
                            backlogged = True
                            deferred.append(request)
                    remaining -= taken
                    if backlogged:
                        self._carry[tenant] = min(allowance - taken, float(budget))
                    else:
                        self._carry.pop(tenant, None)
            if not admitted and deferred:
                level = min(priority for priority, _ in flows)
                oldest = min(
                    (
                        request
                        for (priority, _), queued in flows.items()
                        if priority == level
                        for request in queued
                    ),
                    key=lambda request: request.request_id,
                )
                deferred.remove(oldest)
                admitted.append(oldest)
                self._carry.pop(oldest.tenant, None)

        for request in admitted:
            bucket = self._bucket(request.tenant, now)
            if bucket is not None:
                bucket.charge(cost_of(request), now)
        return ReferenceDecision(
            admitted=tuple(admitted),
            throttled=tuple(throttled),
            deferred=tuple(deferred),
        )


TENANTS = ("a", "b", "c")
#: Whole and fractional block costs; 0.1 makes float sums inexact.
COSTS = (0, 0.1, 0.5, 1, 1.25, 2, 3, 5)


@st.composite
def profiles(draw):
    rate = draw(st.sampled_from([None, 0.5, 1.0, 2.5, 4.0]))
    # Bursts below a request's cost exercise the full-bucket debt rule.
    burst = None if rate is None else draw(st.sampled_from([None, 0.5, 1.0, 3.0]))
    return TenantQoS(
        weight=draw(st.sampled_from([0.25, 1.0, 2.0, 3.0])),
        rate_blocks_per_hour=rate,
        burst_blocks=burst,
        priority=draw(st.integers(0, 2)),
    )


@st.composite
def scenarios(draw):
    """A QoS policy plus windows of ``(hours since the last window,
    arrivals)``.  Request ids are a permutation, so queue order differs
    from id order as it does for reads released from a write barrier."""
    tenants = TENANTS[: draw(st.integers(1, len(TENANTS)))]
    config = QoSConfig(
        profiles={tenant: draw(profiles()) for tenant in tenants if draw(st.booleans())},
        default=draw(profiles()),
        window_block_budget=draw(st.sampled_from([None, 1, 2, 3, 5, 8])),
    )
    arrival = st.tuples(
        st.sampled_from(tenants),
        st.sampled_from(COSTS),
        st.sampled_from([None, None, 0, 1, 2]),
    )
    windows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
                st.lists(arrival, max_size=6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    total = sum(len(arrivals) for _, arrivals in windows)
    ids = draw(st.permutations(range(total)))
    return config, windows, ids


def tally(requests):
    return dict(Counter(request.tenant for request in requests))


def balances(engine):
    return {
        tenant: (bucket._tokens, bucket._last)
        for tenant, bucket in engine._buckets.items()
    }


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_admission_matches_list_reference(scenario):
    config, windows, ids = scenario
    reference = ReferenceAdmission(config)
    engine = QoSAdmission(config)
    queue = RequestQueue()
    pending = []
    costs = {}

    def cost_of(request):
        return costs[request.request_id]

    next_id = iter(ids)
    now = 0.0
    for step, arrivals in windows:
        now += step
        for tenant, cost, priority in arrivals:
            request = ServiceRequest(
                request_id=next(next_id),
                tenant=tenant,
                object_name="o",
                priority=priority,
            )
            costs[request.request_id] = cost
            pending.append(request)
            queue.push(request)
        expected = reference.admit(list(pending), now, cost_of)
        decision = engine.admit(queue.reads_by_tenant(), now, cost_of)
        assert decision.admitted == expected.admitted
        assert decision.throttled == tally(expected.throttled)
        assert decision.deferred == tally(expected.deferred)
        assert engine._carry == reference._carry
        assert balances(engine) == balances(reference)
        # The admitted reads leave the queue in queue order; the rest
        # keep theirs.
        admitted = {id(request) for request in expected.admitted}
        taken = [request for request in pending if id(request) in admitted]
        pending = [request for request in pending if id(request) not in admitted]
        assert queue.take_reads(decision.admitted) == taken
        assert queue.peek_op("read") == pending
        assert queue.read_count == len(pending)


# ----------------------------------------------------------------------
# RequestQueue: taking admitted reads
# ----------------------------------------------------------------------
def read(request_id, tenant, priority=None):
    return ServiceRequest(
        request_id=request_id, tenant=tenant, object_name="o", priority=priority
    )


def test_take_reads_keeps_passed_reads_in_place():
    queue = RequestQueue()
    first, second, other, third = (
        read(0, "a"),
        read(1, "a", priority=0),
        read(2, "b"),
        read(3, "a"),
    )
    write = ServiceRequest(
        request_id=4, tenant="b", object_name="o", op="update", payload=b"x"
    )
    for request in (first, write, second, other, third):
        queue.push(request)
    assert queue.take_reads([third, second]) == [second, third]
    assert {
        tenant: [request for _, request in fifo]
        for tenant, fifo in queue.reads_by_tenant().items()
    } == {"a": [first], "b": [other]}
    assert (len(queue), queue.read_count) == (3, 2)
    assert queue.drain() == [first, write, other]


def test_take_reads_rejects_requests_not_queued():
    queue = RequestQueue()
    queued = read(0, "a")
    queue.push(queued)
    with pytest.raises(ServiceError, match="not in the queue"):
        queue.take_reads([queued, read(1, "a")])
    assert queue.peek_op("read") == [queued]


# ----------------------------------------------------------------------
# Pipeline: per-window work follows admissions, not the backlog
# ----------------------------------------------------------------------
AGGRESSOR = "aggressor"


def scan_attack(requests):
    """The scan-attack shape: hot-skewed victims plus one tenant cold-
    scanning whole objects, rate-limited to a trickle, so its backlog
    stays queued (and throttled) for hundreds of windows."""
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=512, stripe_blocks=8, stripe_width=6
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i:03d}": block_size * (1 + i % 6) for i in range(300)}, seed=2023
    )
    for name, data in corpus.items():
        store.put(name, data)
    catalog = {name: len(data) for name, data in corpus.items()}
    duration = requests / 600.0
    scans = requests // 10
    victims = multi_tenant_trace(
        catalog,
        tenants=24,
        requests=requests - scans,
        duration_hours=duration,
        seed=2023,
        object_exponent=1.3,
        size_popularity_bias=0.9,
    )
    scan = multi_tenant_trace(
        catalog,
        tenants=1,
        requests=scans,
        duration_hours=duration,
        seed=2024,
        object_exponent=0.01,
        whole_object_fraction=1.0,
        aggressor_fraction=1.0,
        aggressor_tenant=AGGRESSOR,
    )
    trace = sorted(victims + scan, key=lambda event: event.time_hours)
    # Four times the victims' mean block demand per window, as in
    # benchmarks/bench_qos_isolation.py.
    mean_blocks = sum(-(-size // block_size) for size in catalog.values()) / len(
        catalog
    )
    budget = max(64, round(len(victims) * 0.5 / duration * mean_blocks * 4))
    profiles = tenant_qos_profiles(
        trace,
        priority=1,
        deadline_hours=24.0,
        overrides={
            AGGRESSOR: {
                "weight": 0.1,
                "rate_blocks_per_hour": 4.0,
                "burst_blocks": 8.0,
                "priority": 2,
                "deadline_hours": None,
            }
        },
    )
    config = ServiceConfig(
        window_hours=0.5,
        wetlab_lanes=32,
        pcr_hours=0.1,
        qos=QoSConfig(profiles=profiles, window_block_budget=budget),
    )
    return store, trace, config


def capture_queues(monkeypatch):
    """Collect every :class:`RequestQueue` created from now on."""
    queues = []
    original_init = RequestQueue.__init__

    def init(self):
        original_init(self)
        queues.append(self)

    monkeypatch.setattr(RequestQueue, "__init__", init)
    return queues


def test_window_work_tracks_admissions_not_the_throttled_backlog(monkeypatch):
    store, trace, config = scan_attack(3000)
    counts = Counter()
    queues = capture_queues(monkeypatch)
    original_admit = QoSAdmission.admit
    original_take = RequestQueue.take

    def admit(self, queued, now, cost_of):
        def counted_cost(request):
            counts["cost_of"] += 1
            return cost_of(request)

        # Measured through the queue's public peek, whatever admit takes.
        counts["tenants"] += len(
            {request.tenant for request in queues[-1].peek_op("read")}
        )
        decision = original_admit(self, queued, now, counted_cost)
        counts["admitted"] += len(decision.admitted)
        return decision

    def take(self, predicate):
        def counted_predicate(request):
            counts["predicate"] += 1
            return predicate(request)

        return original_take(self, counted_predicate)

    monkeypatch.setattr(QoSAdmission, "admit", admit)
    monkeypatch.setattr(RequestQueue, "take", take)
    report = ServicePipeline(store, config=config).run(trace, "batched")

    assert len(report.completed) == len(trace)
    # The aggressor's backlog really does sit throttled window after
    # window: dozens of throttle events per request.
    assert report.qos_throttled > 10 * len(trace)
    assert counts["admitted"] == len(trace)
    work = counts["admitted"] + counts["tenants"]
    assert counts["cost_of"] + counts["predicate"] <= 2 * work, counts


# ----------------------------------------------------------------------
# Pipeline: a non-prefix admission, pinned end to end
# ----------------------------------------------------------------------
def small_store():
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=32,
                stripe_blocks=2,
                stripe_width=2,
                slots_per_block=4,
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(6)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store


def event(time_hours, tenant, name, **kwargs):
    return RequestEvent(time_hours=time_hours, tenant=tenant, object_name=name, **kwargs)


#: request id -> (batch_id, completion_hours, checksum), recorded from the
#: list-walking admission engine.
GOLDEN = {
    0: (1, 1.5225, 569925854),
    1: (7, 7.2500599999999995, 391047061),
    2: (2, 3.2500299999999998, 2474732997),
    3: (0, 2.750015, 3970840284),
    4: (3, 3.750045, 219800633),
    5: (3, 3.750045, 2126674546),
    6: (4, 5.500045, 70781965),
    7: (5, 6.0000599999999995, 219800633),
    8: (6, 6.0000599999999995, 3970840284),
    9: (8, 8.750029999999999, 2474732997),
    10: (9, 11.750029999999999, 2126674546),
}


def test_non_prefix_admission_pinned(monkeypatch):
    """Tenant ``a`` queues reads behind one held by ``b``'s update.

    * At 0.5 h read 3's priority override admits it past ``a``'s FIFO
      head (read 2), which stays queued.
    * The update commits at about 1.5 h and releases read 1 behind
      ``a``'s later reads 6, 7 and 8; ``a``'s bucket admits them in FIFO
      order before it.
    """
    trace = [
        event(0.00, "b", "obj-0", op="update", payload=b"patched!" * 4),
        event(0.05, "a", "obj-0"),
        event(0.10, "a", "obj-1"),
        event(0.15, "a", "obj-3", priority=0),
        event(0.20, "a", "obj-4"),
        event(0.25, "b", "obj-2"),
        event(0.30, "a", "obj-5"),
        event(0.35, "a", "obj-4"),
        event(0.40, "a", "obj-3"),
        event(6.00, "b", "obj-1"),
        event(9.00, "a", "obj-2"),
    ]
    config = ServiceConfig(
        window_hours=0.5,
        synthesis_setup_hours=1.0,
        qos=QoSConfig(
            profiles={"a": TenantQoS(rate_blocks_per_hour=2.0, burst_blocks=6.0)},
            window_block_budget=3,
        ),
    )
    queues = capture_queues(monkeypatch)
    views = []
    original_admit = QoSAdmission.admit

    def admit(self, queued, now, cost_of):
        # Each tenant's queued reads, in queue order, at every window.
        view = {}
        for request in queues[-1].peek_op("read"):
            view.setdefault(request.tenant, []).append(request.request_id)
        views.append(view)
        return original_admit(self, queued, now, cost_of)

    monkeypatch.setattr(QoSAdmission, "admit", admit)
    report = ServicePipeline(small_store(), config=config).run(trace, "batched")

    assert report.failed == ()
    outcomes = {
        item.request.request_id: (item.batch_id, item.completion_hours, item.checksum)
        for item in report.completed
    }
    assert outcomes == GOLDEN
    assert (report.qos_throttled, report.qos_deferred) == (14, 6)
    # The scenario is the one described: a non-prefix admission, and a
    # released read queued behind its tenant's later reads.
    assert views[0]["a"] == [2, 3, 4, 6, 7, 8]
    assert {"a": [2, 4, 6, 7, 8], "b": [5]} in views
    assert {"a": [6, 7, 8, 1]} in views
