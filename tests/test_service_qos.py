"""Tests for the shared lane pool and tenant QoS admission layer.

Covers the tentpole guarantees of ``repro.service.scheduler_qos``:

* the shared, persistent lane pool — overlapping cycles queue onto busy
  lanes, so per-lane utilization is a true duty factor in [0, 1] (the
  regression for the old >1.0 "pressure" reading);
* deterministic lane schedules — same trace, same schedule, run after
  run;
* token buckets, water-filling weighted-fair shares and the admission
  engine's throttle/defer/progress semantics;
* pipeline integration — QoS on vs. off is byte-identical per request,
  counters are reported, and a rate-limited aggressor cannot starve a
  well-behaved tenant past its deadline budget.

Everything here runs without numpy.
"""

import pytest

from repro.exceptions import DnaStorageError, ServiceError
from repro.service import (
    QoSAdmission,
    QoSConfig,
    ServiceConfig,
    ServicePipeline,
    ServiceRequest,
    SharedLanePool,
    TenantQoS,
    TokenBucket,
    weighted_fair_shares,
)
from repro.workloads import (
    RequestEvent,
    multi_tenant_trace,
    tenant_qos_profiles,
)
from repro.workloads.objects import object_corpus


def build_store(objects=6):
    from repro.store import DnaVolume, ObjectStore, VolumeConfig

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
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(objects)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def read_event(time_hours, tenant, name, **kwargs):
    return RequestEvent(
        time_hours=time_hours, tenant=tenant, object_name=name, **kwargs
    )


class TestSharedLanePool:
    def test_lane_count_must_be_positive(self):
        with pytest.raises(ServiceError):
            SharedLanePool(0)

    def test_rejects_negative_time_and_durations(self):
        pool = SharedLanePool(2)
        with pytest.raises(ServiceError):
            pool.schedule(-1.0, [1.0])
        with pytest.raises(ServiceError):
            pool.schedule(0.0, [-1.0])

    def test_empty_pool_reproduces_standalone_packing(self):
        # A single cycle on an idle pool packs the same way at any start
        # time (relative offsets = absolute minus now).
        durations = [3.0, 1.0, 4.0, 1.5, 5.0, 2.0]
        relative = SharedLanePool(3).schedule(0.0, durations)
        pool = SharedLanePool(3)
        absolute = pool.schedule(10.0, durations)
        assert [
            (lane, start - 10.0, end - 10.0) for lane, start, end in absolute
        ] == relative
        makespan = max(end for _, _, end in relative)
        assert pool.horizon_hours == pytest.approx(10.0 + makespan)

    def test_overlapping_cycles_queue_on_busy_lanes(self):
        pool = SharedLanePool(1)
        first = pool.schedule(0.0, [5.0])
        second = pool.schedule(1.0, [2.0])
        assert first == [(0, 0.0, 5.0)]
        # The second cycle arrives while the lane is busy: it waits.
        assert second == [(0, 5.0, 7.0)]
        assert pool.busy_hours_by_lane == (7.0,)
        assert pool.horizon_hours == 7.0

    def test_busy_intervals_are_disjoint_per_lane(self):
        pool = SharedLanePool(2)
        intervals = []
        for now, durations in [
            (0.0, [4.0, 4.0, 4.0]),
            (1.0, [3.0]),
            (2.0, [1.0, 1.0, 6.0]),
        ]:
            intervals.extend(pool.schedule(now, durations))
        by_lane = {}
        for lane, start, end in intervals:
            by_lane.setdefault(lane, []).append((start, end))
        for spans in by_lane.values():
            spans.sort()
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                assert start_b >= end_a - 1e-12
        # Busy time is the sum of the disjoint spans.
        for lane, spans in by_lane.items():
            assert pool.busy_hours_by_lane[lane] == pytest.approx(
                sum(end - start for start, end in spans)
            )

    def test_pool_utilization_cannot_exceed_one(self):
        pool = SharedLanePool(2)
        for now in range(20):
            pool.schedule(float(now) * 0.1, [3.0, 3.0, 3.0])
        horizon = pool.horizon_hours
        for busy in pool.busy_hours_by_lane:
            assert busy <= horizon + 1e-9


class TestUtilizationRegression:
    """The >1.0 lane-pressure bug: overlapping cycles on the old
    per-cycle pools summed to utilizations above 1.0."""

    def overloaded_report(self, policy="batched"):
        store, catalog = build_store(objects=6)
        names = sorted(catalog)
        # Short windows + many distinct objects: consecutive cycles
        # overlap heavily on one lane.
        trace = [
            read_event(0.01 * i, f"t-{i % 3}", names[i % len(names)])
            for i in range(30)
        ]
        sim = ServicePipeline(
            store, config=ServiceConfig(window_hours=0.05, wetlab_lanes=1)
        )
        return sim.run(trace, policy)

    def test_lane_utilization_bounded(self):
        report = self.overloaded_report()
        assert 0.0 < report.lane_utilization <= 1.0 + 1e-9

    def test_per_lane_utilization_bounded_and_agrees(self):
        report = self.overloaded_report()
        by_lane = report.lane_utilization_by_lane
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in by_lane)
        assert report.lane_utilization == pytest.approx(
            sum(by_lane) / len(by_lane)
        )

    def test_horizon_extends_makespan_when_lanes_run_late(self):
        report = self.overloaded_report()
        assert report.lane_schedule_horizon_hours >= report.lane_busy_hours


class TestWeightedFairShares:
    def test_validation(self):
        with pytest.raises(ServiceError):
            weighted_fair_shares({"a": 1.0}, {"a": 1.0}, -1.0)
        with pytest.raises(ServiceError):
            weighted_fair_shares({"a": -1.0}, {"a": 1.0}, 1.0)
        with pytest.raises(ServiceError):
            weighted_fair_shares({"a": 1.0}, {}, 1.0)
        with pytest.raises(ServiceError):
            weighted_fair_shares({"a": 1.0}, {"a": 0.0}, 1.0)

    def test_uncontended_demands_are_met(self):
        shares = weighted_fair_shares(
            {"a": 3.0, "b": 2.0}, {"a": 1.0, "b": 1.0}, 10.0
        )
        assert shares == {"a": 3.0, "b": 2.0}

    def test_contended_split_follows_weights(self):
        shares = weighted_fair_shares(
            {"a": 100.0, "b": 100.0}, {"a": 3.0, "b": 1.0}, 8.0
        )
        assert shares["a"] == pytest.approx(6.0)
        assert shares["b"] == pytest.approx(2.0)

    def test_idle_share_is_redistributed(self):
        # b wants almost nothing; its unused weighted slice goes to a.
        shares = weighted_fair_shares(
            {"a": 100.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, 10.0
        )
        assert shares["b"] == pytest.approx(1.0)
        assert shares["a"] == pytest.approx(9.0)

    def test_never_exceeds_capacity_or_demand(self):
        demands = {f"t{i}": float((i * 7) % 11) for i in range(8)}
        weights = {f"t{i}": 1.0 + (i % 3) for i in range(8)}
        shares = weighted_fair_shares(demands, weights, 13.0)
        assert sum(shares.values()) <= 13.0 + 1e-6
        for tenant, share in shares.items():
            assert share <= demands[tenant] + 1e-9

    def test_zero_capacity_grants_nothing(self):
        shares = weighted_fair_shares({"a": 5.0}, {"a": 1.0}, 0.0)
        assert shares == {"a": 0.0}


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ServiceError):
            TokenBucket(0.0, 1.0, 0.0)
        with pytest.raises(ServiceError):
            TokenBucket(1.0, 0.0, 0.0)

    def test_starts_full_and_refills_with_sim_time(self):
        bucket = TokenBucket(rate_per_hour=2.0, burst=4.0, now=0.0)
        assert bucket.available(0.0) == pytest.approx(4.0)
        bucket.charge(4.0, 0.0)
        assert not bucket.affordable(1.0, 0.0)
        # 0.5 h at 2 tokens/h refills one token.
        assert bucket.affordable(1.0, 0.5)
        assert bucket.available(0.5) == pytest.approx(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_hour=10.0, burst=3.0, now=0.0)
        assert bucket.available(100.0) == pytest.approx(3.0)

    def test_oversized_cost_needs_full_bucket_and_leaves_debt(self):
        bucket = TokenBucket(rate_per_hour=1.0, burst=2.0, now=0.0)
        # Cost 5 > burst 2: affordable only from a full bucket.
        assert bucket.affordable(5.0, 0.0)
        bucket.charge(5.0, 0.0)
        assert bucket.available(0.0) == pytest.approx(-3.0)
        # The debt repays at the rate; until then nothing is affordable.
        assert not bucket.affordable(5.0, 2.0)
        assert bucket.affordable(5.0, 5.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate_per_hour=1.0, burst=4.0, now=2.0)
        bucket.charge(2.0, 2.0)
        # An earlier timestamp neither refills nor rewinds.
        assert bucket.available(1.0) == pytest.approx(2.0)
        assert bucket.available(3.0) == pytest.approx(3.0)


def request(rid, tenant, priority=None):
    return ServiceRequest(
        request_id=rid, tenant=tenant, object_name="o", priority=priority
    )


def fifos(requests):
    """The tenant -> FIFO view admission reads (``(push stamp, request)``
    entries), from requests in queue order."""
    view = {}
    for stamp, queued in enumerate(requests):
        view.setdefault(queued.tenant, []).append((stamp, queued))
    return view


class TestQoSAdmission:
    def test_unlimited_config_admits_everything(self):
        engine = QoSAdmission(QoSConfig())
        pending = [request(i, "a") for i in range(4)]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        assert decision.admitted == tuple(pending)
        assert decision.throttled == {}
        assert decision.deferred == {}

    def test_rate_limit_throttles_fifo_tail(self):
        config = QoSConfig(
            profiles={"a": TenantQoS(rate_blocks_per_hour=2.0, burst_blocks=2.0)}
        )
        engine = QoSAdmission(config)
        pending = [request(i, "a") for i in range(4)]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        # Two tokens: the FIFO head pair admits, the tail throttles.
        assert [r.request_id for r in decision.admitted] == [0, 1]
        assert decision.throttled == {"a": 2}
        # Later, the bucket refilled one token.
        decision = engine.admit(fifos(pending[2:]), 0.5, lambda r: 1.0)
        assert [r.request_id for r in decision.admitted] == [2]

    def test_head_of_line_blocks_cheap_followers(self):
        config = QoSConfig(
            profiles={"a": TenantQoS(rate_blocks_per_hour=1.0, burst_blocks=3.0)}
        )
        engine = QoSAdmission(config)
        expensive = request(0, "a")
        cheap = request(1, "a")
        costs = {0: 10.0, 1: 1.0}
        decision = engine.admit(
            fifos([expensive, cheap]), 0.0, lambda r: costs[r.request_id]
        )
        # Cost 10 > burst 3 needs a *full* bucket — it has one, so it
        # admits (going into debt) rather than starving.
        assert decision.admitted == (expensive,)
        assert decision.throttled == {"a": 1}

    def test_only_admitted_requests_are_charged(self):
        config = QoSConfig(
            profiles={"a": TenantQoS(rate_blocks_per_hour=1.0, burst_blocks=4.0)},
            window_block_budget=2,
        )
        engine = QoSAdmission(config)
        pending = [request(i, "a") for i in range(4)]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        assert len(decision.admitted) == 2
        assert decision.deferred == {"a": 2}
        # The deferred pair was rate-eligible but not charged: both
        # still afford admission immediately.
        decision = engine.admit(
            fifos([r for r in pending if r not in decision.admitted]),
            0.0,
            lambda r: 1.0,
        )
        assert len(decision.admitted) == 2

    def test_priority_classes_admit_in_strict_order(self):
        config = QoSConfig(
            profiles={
                "urgent": TenantQoS(priority=0),
                "bulk": TenantQoS(priority=2),
            },
            window_block_budget=2,
        )
        engine = QoSAdmission(config)
        pending = [request(0, "bulk"), request(1, "urgent"), request(2, "urgent")]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        assert [r.request_id for r in decision.admitted] == [1, 2]
        assert decision.deferred == {"bulk": 1}

    def test_request_priority_overrides_profile(self):
        engine = QoSAdmission(QoSConfig(window_block_budget=1))
        pending = [request(0, "a"), request(1, "a", priority=0)]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        # The override admits past the FIFO head, which waits.
        assert [r.request_id for r in decision.admitted] == [1]
        assert decision.deferred == {"a": 1}

    def test_weighted_fair_budget_split(self):
        config = QoSConfig(
            profiles={"heavy": TenantQoS(weight=3.0), "light": TenantQoS(weight=1.0)},
            window_block_budget=4,
        )
        engine = QoSAdmission(config)
        pending = [request(i, "heavy") for i in range(6)] + [
            request(10 + i, "light") for i in range(6)
        ]
        decision = engine.admit(fifos(pending), 0.0, lambda r: 1.0)
        admitted = [r.tenant for r in decision.admitted]
        assert admitted.count("heavy") == 3
        assert admitted.count("light") == 1

    def test_deficit_carry_admits_oversized_request(self):
        # One request costs 5 against a window budget of 2: the flow
        # accumulates carry until the credit covers the cost (the carry
        # is bounded by the budget, so the wait is finite and the
        # progress guarantee is what finally admits it).
        config = QoSConfig(window_block_budget=2)
        engine = QoSAdmission(config)
        big = request(0, "a")
        outcomes = []
        for window in range(4):
            decision = engine.admit(fifos([big]), float(window), lambda r: 5.0)
            outcomes.append(bool(decision.admitted))
            if decision.admitted:
                break
        assert outcomes[-1] is True

    def test_progress_guarantee_always_advances(self):
        # Every window admits at least one eligible request, however
        # small the budget relative to the costs.
        config = QoSConfig(window_block_budget=1)
        engine = QoSAdmission(config)
        pending = [request(i, "a") for i in range(3)]
        served = 0
        for window in range(10):
            if not pending:
                break
            decision = engine.admit(fifos(pending), float(window), lambda r: 3.0)
            assert decision.admitted, "a window admitted nothing"
            served += len(decision.admitted)
            admitted_ids = {r.request_id for r in decision.admitted}
            pending = [r for r in pending if r.request_id not in admitted_ids]
        assert served == 3

    def test_negative_cost_rejected(self):
        engine = QoSAdmission(QoSConfig())
        with pytest.raises(ServiceError):
            engine.admit(fifos([request(0, "a")]), 0.0, lambda r: -1.0)

    def test_profile_validation(self):
        with pytest.raises(ServiceError):
            TenantQoS(weight=0.0)
        with pytest.raises(ServiceError):
            TenantQoS(rate_blocks_per_hour=-1.0)
        with pytest.raises(ServiceError):
            TenantQoS(burst_blocks=2.0)  # burst without rate
        with pytest.raises(ServiceError):
            TenantQoS(priority=-1)
        with pytest.raises(ServiceError):
            TenantQoS(deadline_hours=0.0)
        with pytest.raises(ServiceError):
            QoSConfig(window_block_budget=0)
        with pytest.raises(ServiceError):
            QoSConfig(profiles={"a": 42})
        # Profiles that are not a mapping at all are a typed failure naming
        # the type (not a builtin AttributeError from ``.items()``).
        for profiles, name in (([("a", {})], "list"), ("abc", "str"), (1.5, "float")):
            with pytest.raises(ServiceError, match=name):
                QoSConfig(profiles=profiles)
        # A misspelled field is a typed failure naming it and the fields
        # a profile takes (not a builtin TypeError from the constructor).
        with pytest.raises(ServiceError, match="weigth") as caught:
            QoSConfig(profiles={"a": {"weigth": 2.0}})
        assert "rate_blocks_per_hour" in str(caught.value)
        with pytest.raises(ServiceError, match="rate"):
            QoSConfig(default={"rate": 1.0})

    def test_config_coerces_plain_mappings(self):
        config = QoSConfig(
            profiles={"a": {"weight": 2.0, "priority": 0}},
            default={"deadline_hours": 9.0},
        )
        assert config.profile("a") == TenantQoS(weight=2.0, priority=0)
        assert config.profile("other").deadline_hours == 9.0


class TestPipelineQoS:
    def qos_config(self, **overrides):
        return QoSConfig(
            profiles={
                "aggressor": TenantQoS(
                    weight=0.25, rate_blocks_per_hour=4.0, priority=2
                ),
            },
            default=TenantQoS(weight=1.0, priority=1, deadline_hours=48.0),
            **overrides,
        )

    def mixed_trace(self, catalog, requests=60, seed=3):
        return multi_tenant_trace(
            catalog,
            tenants=4,
            requests=requests,
            duration_hours=6.0,
            seed=seed,
            update_fraction=0.1,
            aggressor_fraction=0.5,
        )

    def test_qos_requires_positive_window(self):
        with pytest.raises(ServiceError):
            ServiceConfig(window_hours=0.0, qos=QoSConfig())

    def test_qos_off_report_carries_disabled_flags(self):
        store, catalog = build_store()
        trace = self.mixed_trace(catalog)
        report = ServicePipeline(
            store, config=ServiceConfig(window_hours=0.5)
        ).run(trace, "batched")
        assert report.qos_enabled is False
        assert report.qos_throttled == 0
        assert report.qos_deferred == 0

    def test_qos_on_is_byte_identical_per_request(self):
        # The tentpole invariant: admission control reshapes *when*
        # requests are served, never *what* bytes they read.
        # The trace carries updates, so each run gets its own store
        # built from the same seed (identical initial state).
        store_off, catalog = build_store()
        store_on, _ = build_store()
        trace = self.mixed_trace(catalog)
        off = ServicePipeline(
            store_off, config=ServiceConfig(window_hours=0.5)
        ).run(trace, "batched", keep_data=True)
        on = ServicePipeline(
            store_on,
            config=ServiceConfig(
                window_hours=0.5, qos=self.qos_config(window_block_budget=4)
            ),
        ).run(trace, "batched", keep_data=True)
        assert on.qos_enabled
        by_id_off = {c.request.request_id: c for c in off.completed}
        by_id_on = {c.request.request_id: c for c in on.completed}
        assert by_id_off.keys() == by_id_on.keys()
        for rid, completed_off in by_id_off.items():
            assert by_id_on[rid].checksum == completed_off.checksum
            assert by_id_on[rid].byte_count == completed_off.byte_count
        assert on.payloads == off.payloads
        assert on.checksum == off.checksum

    def test_qos_matches_direct_store_replay(self):
        # Per-request bytes under QoS equal a direct store read of the
        # same object state (read-only trace: no writes to order).
        store, catalog = build_store()
        names = sorted(catalog)
        trace = [
            read_event(0.1 * i, "aggressor" if i % 2 else "victim", names[i % 3])
            for i in range(12)
        ]
        report = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5, qos=self.qos_config(window_block_budget=2)
            ),
        ).run(trace, "batched", keep_data=True)
        assert len(report.completed) == len(trace)
        for completed in report.completed:
            expected = store.get(completed.request.object_name)
            assert report.payloads[completed.request.request_id] == expected

    def test_lane_schedules_deterministic_across_runs(self):
        _, catalog = build_store()
        trace = self.mixed_trace(catalog)

        def lane_signature():
            # Fresh same-seed store per run: the trace carries updates.
            store, _ = build_store()
            sim = ServicePipeline(
                store,
                config=ServiceConfig(
                    window_hours=0.5,
                    wetlab_lanes=2,
                    qos=self.qos_config(window_block_budget=6),
                ),
            )
            report = sim.run(trace, "batched")
            return (
                report.lane_busy_hours_by_lane,
                report.lane_schedule_horizon_hours,
                report.makespan_hours,
                report.checksum,
            )

        assert lane_signature() == lane_signature()

    def test_throttle_and_deferral_counters_reported(self):
        store, catalog = build_store()
        names = sorted(catalog)
        # A hard-limited tenant hammering one object: most dispatches
        # must throttle or defer something.
        trace = [read_event(0.01 * i, "aggressor", names[0]) for i in range(20)]
        trace += [read_event(0.01 * i, "victim", names[1]) for i in range(5)]
        config = ServiceConfig(
            window_hours=0.2,
            qos=QoSConfig(
                profiles={
                    "aggressor": TenantQoS(
                        rate_blocks_per_hour=2.0, burst_blocks=2.0
                    )
                },
                window_block_budget=2,
            ),
        )
        report = ServicePipeline(store, config=config).run(trace, "batched")
        assert report.qos_enabled
        assert report.qos_throttled > 0
        assert len(report.completed) == len(trace)

    def test_unbatched_policy_ignores_qos(self):
        # Every read overruns this deadline, yet the unbatched policy runs
        # no QoS admission, so it counts no violation either.
        qos = QoSConfig(
            profiles=self.qos_config().profiles,
            default=TenantQoS(priority=1, deadline_hours=0.001),
        )
        reports = {}
        for policy in ("unbatched", "batched"):
            store, catalog = build_store()
            trace = self.mixed_trace(catalog, requests=20)
            reports[policy] = ServicePipeline(
                store,
                config=ServiceConfig(window_hours=0.5, qos=qos, tracing=True),
            ).run(trace, policy)
        report = reports["unbatched"]
        assert report.qos_enabled is False
        assert report.qos_throttled == 0
        assert report.deadline_violations == 0
        metrics = report.observability.metrics
        assert metrics["service.qos.deadline_violations"] == 0
        assert not [
            name
            for name in metrics
            if name.startswith("service.qos.deadline_violations.")
        ]
        assert reports["batched"].deadline_violations > 0

    def test_aggressor_cannot_starve_victims(self):
        # Starvation regression: with QoS on, the victims' deadline
        # budget holds even under an aggressor flood, and their worst
        # latency improves vs. the unprotected run.
        store, catalog = build_store()
        names = sorted(catalog)
        trace = [
            read_event(0.02 * i, "aggressor", names[i % len(names)])
            for i in range(40)
        ] + [
            read_event(0.5 * i, "victim", names[i % 2], deadline_hours=60.0)
            for i in range(8)
        ]
        base = ServiceConfig(window_hours=0.25, wetlab_lanes=1)
        off = ServicePipeline(store, config=base).run(trace, "batched")
        on = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.25,
                wetlab_lanes=1,
                qos=QoSConfig(
                    profiles={
                        "aggressor": TenantQoS(
                            weight=0.1,
                            rate_blocks_per_hour=2.0,
                            burst_blocks=2.0,
                            priority=2,
                        )
                    },
                    default=TenantQoS(priority=0),
                    window_block_budget=4,
                ),
            ),
        ).run(trace, "batched")
        victims_off = off.latency_by_tenant()["victim"]
        victims_on = on.latency_by_tenant()["victim"]
        assert victims_on.maximum <= victims_off.maximum + 1e-9
        assert on.deadline_violations == 0
        # Every request still completes: QoS paces, never drops.
        assert len(on.completed) == len(trace)

    def test_deadline_violations_counted_not_dropped(self):
        store, catalog = build_store()
        names = sorted(catalog)
        trace = [
            read_event(0.0, "slow", names[0], deadline_hours=0.001),
            read_event(0.0, "slow", names[1]),
        ]
        config = ServiceConfig(
            window_hours=0.5,
            qos=QoSConfig(default=TenantQoS(deadline_hours=0.001)),
        )
        report = ServicePipeline(store, config=config).run(trace, "batched")
        assert len(report.completed) == 2
        assert report.deadline_violations == 2

    def test_latency_by_tenant_summaries(self):
        store, catalog = build_store()
        names = sorted(catalog)
        trace = [
            read_event(0.1, "a", names[0]),
            read_event(0.2, "a", names[1]),
            read_event(0.3, "b", names[0]),
        ]
        report = ServicePipeline(
            store, config=ServiceConfig(window_hours=0.5)
        ).run(trace, "batched")
        by_tenant = report.latency_by_tenant()
        assert sorted(by_tenant) == ["a", "b"]
        assert by_tenant["a"].count == 2
        assert by_tenant["b"].count == 1


class TestTenantQoSProfiles:
    def test_profiles_cover_trace_tenants_first_seen(self):
        trace = [
            read_event(0.0, "b", "o"),
            read_event(0.1, "a", "o"),
            read_event(0.2, "b", "o"),
        ]
        profiles = tenant_qos_profiles(trace, priority=2)
        assert list(profiles) == ["b", "a"]
        assert profiles["a"]["priority"] == 2

    def test_overrides_replace_fields(self):
        trace = [read_event(0.0, "a", "o")]
        profiles = tenant_qos_profiles(
            trace,
            weight=2.0,
            overrides={"a": {"weight": 0.5}, "ghost": {"priority": 0}},
        )
        assert profiles["a"]["weight"] == 0.5
        assert profiles["ghost"]["priority"] == 0
        assert profiles["ghost"]["weight"] == 2.0

    def test_unknown_override_field_rejected(self):
        trace = [read_event(0.0, "a", "o")]
        with pytest.raises(DnaStorageError):
            tenant_qos_profiles(trace, overrides={"a": {"rate": 1.0}})

    def test_profiles_feed_qos_config(self):
        trace = [read_event(0.0, "a", "o"), read_event(0.1, "agg", "o")]
        profiles = tenant_qos_profiles(
            trace,
            deadline_hours=48.0,
            overrides={"agg": {"weight": 0.1, "rate_blocks_per_hour": 5.0}},
        )
        config = QoSConfig(profiles=profiles)
        assert config.profile("agg").weight == 0.1
        assert config.profile("a").deadline_hours == 48.0


class TestAggressorTraceKnob:
    def test_default_trace_unchanged(self):
        catalog = {f"o-{i}": 4096 for i in range(8)}
        base = multi_tenant_trace(catalog, tenants=3, requests=50, seed=11)
        again = multi_tenant_trace(
            catalog, tenants=3, requests=50, seed=11, aggressor_fraction=0.0
        )
        assert base == again

    def test_aggressor_fraction_reassigns_tenants(self):
        catalog = {f"o-{i}": 4096 for i in range(8)}
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=200, seed=11, aggressor_fraction=0.4
        )
        share = sum(1 for e in trace if e.tenant == "aggressor") / len(trace)
        assert 0.25 < share < 0.55
        # Everything else about the events is untouched.
        assert all(e.op == "read" for e in trace)

    def test_validation(self):
        catalog = {"o": 4096}
        with pytest.raises(DnaStorageError):
            multi_tenant_trace(
                catalog, tenants=1, requests=1, aggressor_fraction=1.5
            )
        with pytest.raises(DnaStorageError):
            multi_tenant_trace(
                catalog,
                tenants=1,
                requests=1,
                aggressor_fraction=0.5,
                aggressor_tenant="",
            )
