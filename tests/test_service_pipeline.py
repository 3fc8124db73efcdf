"""Tests for the unified read/write service pipeline.

Covers the tentpole guarantees of the serving-layer refactor:

* write operations are queued, coalesced into per-partition synthesis
  orders and charged synthesis latency/cost;
* per-object read/write ordering — a read scheduled after a write
  observes the written bytes, end to end through the pipeline;
* decode-failure retry cycles: affected requests re-enter
  deeper-coverage cycles and only fail after the retry budget;
* the bounded wetlab lane pool: deterministic greedy packing, and
  decoded bytes independent of the lane count.

Everything here runs without numpy (failure injection simulates decode
failures deterministically); the wetlab-fidelity integration lives in
``test_service_wetlab.py``.
"""

from collections import Counter

import pytest

import repro.core.elongation as elongation_module
import repro.core.partition as partition_module
import repro.core.prefix_cover as prefix_cover_module
import repro.service.queue as queue_module
import repro.service.simulator as simulator_module
from repro.core.index_tree import IndexTree
from repro.exceptions import ServiceError
from repro.service import (
    BatchScheduler,
    RequestQueue,
    ServiceConfig,
    ServicePipeline,
    ServiceRequest,
    SharedLanePool,
)
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus, synthetic_object


def build_store(objects=4, slots_per_block=4):
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=32,
                stripe_blocks=2,
                stripe_width=2,
                slots_per_block=slots_per_block,
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


def pipeline(store, **overrides):
    return ServicePipeline(store, config=ServiceConfig(**overrides))


class TestOperationAgnosticRequests:
    def test_write_request_requires_payload(self):
        with pytest.raises(ServiceError):
            ServiceRequest(request_id=0, tenant="t", object_name="o", op="put")

    def test_read_request_rejects_payload(self):
        with pytest.raises(ServiceError):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o", payload=b"x"
            )

    def test_put_and_delete_address_whole_objects(self):
        with pytest.raises(ServiceError):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o", op="delete", offset=3
            )

    @pytest.mark.parametrize("field", ["arrival_hours", "as_of", "deadline_hours"])
    def test_nan_times_rejected(self, field):
        with pytest.raises(ServiceError, match=field):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o", **{field: float("nan")}
            )

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRequest(request_id=0, tenant="t", object_name="o", op="move")

    def test_update_rejects_ignored_length_field(self):
        with pytest.raises(ServiceError):
            ServiceRequest(
                request_id=0, tenant="t", object_name="o",
                op="update", payload=b"x" * 16, length=4,
            )

    def test_queue_is_operation_agnostic(self):
        queue = RequestQueue()
        read = ServiceRequest(request_id=0, tenant="a", object_name="x")
        write = ServiceRequest(
            request_id=1, tenant="b", object_name="y", op="put", payload=b"z"
        )
        queue.push(read)
        queue.push(write)
        assert queue.drain_op("read") == [read]
        assert len(queue) == 1
        assert queue.drain() == [write]

    def test_scheduler_refuses_writes_in_read_batches(self):
        store, _ = build_store(objects=1)
        write = ServiceRequest(
            request_id=0, tenant="a", object_name="new", op="put", payload=b"z"
        )
        with pytest.raises(ServiceError):
            BatchScheduler(store).schedule([write])
        with pytest.raises(ServiceError):
            BatchScheduler(store).schedule_writes(
                [ServiceRequest(request_id=1, tenant="a", object_name="obj-0")]
            )


class TestSynthesisOrders:
    def test_put_is_queued_and_charged_synthesis(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.5, synthesis_setup_hours=10.0)
        payload = synthetic_object(store.volume.block_size * 2, seed=99)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="w", object_name="fresh",
                op="put", payload=payload,
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        assert len(report.completed) == 1
        ack = report.completed[0]
        assert ack.request.op == "put"
        assert ack.byte_count == len(payload)
        assert report.synthesis_orders == 1
        assert report.synthesized_strands > 0
        assert report.synthesized_nucleotides > 0
        assert report.written_bytes == len(payload)
        assert report.write_latency is not None
        # Queued for the window, then the synthesis turnaround.
        assert ack.latency_hours >= 0.5 + 10.0
        assert store.get("fresh") == payload

    def test_window_coalesces_writes_into_one_order(self):
        store, catalog = build_store(objects=3)
        sim = pipeline(store, window_hours=1.0)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0",
                op="update", payload=b"PATCH-A",
            ),
            RequestEvent(
                time_hours=0.2, tenant="b", object_name="obj-1",
                op="update", payload=b"PATCH-B", offset=3,
            ),
        ]
        report = sim.run(trace, "batched")
        assert report.failed == ()
        assert report.synthesis_orders == 1
        acks = [c for c in report.completed if c.request.op == "update"]
        assert len(acks) == 2
        # Both writes commit with the shared order.
        assert acks[0].batch_id == acks[1].batch_id
        assert store.get("obj-0")[:7] == b"PATCH-A"
        assert store.get("obj-1")[3:10] == b"PATCH-B"

    def test_unbatched_writes_get_individual_orders(self):
        store, _ = build_store(objects=2)
        sim = pipeline(store)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0",
                op="update", payload=b"ONE",
            ),
            RequestEvent(
                time_hours=0.2, tenant="b", object_name="obj-1",
                op="update", payload=b"TWO",
            ),
        ]
        report = sim.run(trace, "unbatched")
        assert report.synthesis_orders == 2

    def test_store_rejected_write_fails_alone(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0",  # name taken
                op="put", payload=b"DUPLICATE",
            ),
            RequestEvent(time_hours=0.2, tenant="b", object_name="obj-1"),
        ]
        report = sim.run(trace, "batched")
        assert len(report.failed) == 1
        assert report.failed[0].op == "put"
        assert "exists" in report.failed[0].reason
        assert report.failed[0].failure_hours is not None
        assert len(report.completed) == 1
        assert report.completed[0].request.op == "read"

    def test_whole_block_rewrite_fails_alone_in_its_order(self):
        """An update rewriting every byte of a block needs a framed patch
        larger than the block: it fails alone, with the store's typed
        reason, while the other write of its synthesis order commits."""
        store, catalog = build_store(objects=2)
        block_size = store.volume.block_size
        sim = pipeline(store, window_hours=1.0)
        old = store.get("obj-0", length=block_size)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0",
                op="update", payload=bytes((byte + 1) % 256 for byte in old),
            ),
            RequestEvent(
                time_hours=0.2, tenant="b", object_name="obj-1",
                op="update", payload=b"PATCH-B",
            ),
        ]
        report = sim.run(trace, "batched")
        assert [f.tenant for f in report.failed] == ["a"]
        failure = report.failed[0]
        assert failure.reason == (
            f"patch of {block_size + 4} bytes for block 0 exceeds the block "
            "size; no patch of this update was applied"
        )
        # Rejected when the window's synthesis order formed.
        assert failure.failure_hours == pytest.approx(1.1)
        assert [c.request.tenant for c in report.completed] == ["b"]
        assert report.synthesis_orders == 1
        assert store.get("obj-0", length=block_size) == old
        assert store.get("obj-1")[:7] == b"PATCH-B"

    @pytest.mark.parametrize("policy", ["unbatched", "batched", "batched+cache"])
    def test_rejected_order_never_strands_later_writes(self, policy):
        """An all-rejected synthesis order whose release instantly serves
        the held reads must still pump the writes queued behind them —
        every request gets an outcome."""
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.5)
        name = "obj-0"
        trace = [
            # Rejected at dispatch: the name is taken.
            RequestEvent(
                time_hours=0.1, tenant="w-dup", object_name=name,
                op="put", payload=b"DUP",
            ),
            # Held behind the doomed put; zero-length, so its release
            # serves instantly without scheduling any future event.
            RequestEvent(time_hours=0.2, tenant="r", object_name=name, length=0),
            # Queued behind the read: must not be stranded.
            RequestEvent(
                time_hours=0.3, tenant="w-ok", object_name=name,
                op="update", payload=b"NOT-STRANDED",
            ),
        ]
        report = sim.run(trace, policy, keep_data=True)
        assert len(report.completed) + len(report.failed) == len(trace)
        assert {f.tenant for f in report.failed} == {"w-dup"}
        assert {c.request.tenant for c in report.completed} == {"r", "w-ok"}
        assert store.get(name)[:12] == b"NOT-STRANDED"

    @pytest.mark.parametrize("policy", ["unbatched", "batched", "batched+cache"])
    def test_every_request_gets_an_outcome_on_random_mixed_traces(self, policy):
        """Conservation fuzz: across seeded mixed traces (including writes
        the store rejects), completed + failed always equals the trace."""
        for seed in range(6):
            store, catalog = build_store(objects=4)
            sim = pipeline(store, window_hours=0.5)
            trace = multi_tenant_trace(
                catalog,
                tenants=5,
                requests=60,
                duration_hours=24.0,
                seed=seed,
                update_fraction=0.3,  # high: slot exhaustion does happen
                put_fraction=0.1,
            )
            report = sim.run(trace, policy)
            assert len(report.completed) + len(report.failed) == len(trace), (
                policy,
                seed,
            )

    def test_delete_through_pipeline(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store)
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0", op="delete"
            ),
            # Held behind the delete; rejected only once it commits.
            RequestEvent(time_hours=0.2, tenant="held", object_name="obj-0"),
            RequestEvent(time_hours=5.0, tenant="b", object_name="obj-0"),
        ]
        report = sim.run(trace, "batched")
        # The delete is acknowledged; both reads find no object.
        deletes = [c for c in report.completed if c.request.op == "delete"]
        assert len(deletes) == 1
        assert len(report.failed) == 2
        by_tenant = {f.tenant: f for f in report.failed}
        for failure in report.failed:
            assert "unknown object" in failure.reason
        # The held read's failure was decided at release time, not at
        # its arrival; the plain late read failed on arrival.
        assert by_tenant["held"].failure_hours > by_tenant["held"].arrival_hours
        assert by_tenant["b"].failure_hours == by_tenant["b"].arrival_hours
        assert "obj-0" not in store


class TestReadAfterWriteOrdering:
    def test_read_after_update_observes_written_bytes(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.25)
        name = "obj-0"
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="w", object_name=name,
                op="update", payload=b"ORDERED-WRITE",
            ),
            # Arrives long before the write's synthesis completes, but is
            # scheduled after it: must see the new bytes.
            RequestEvent(time_hours=0.2, tenant="r", object_name=name),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        ack = [c for c in report.completed if c.request.op == "update"][0]
        assert report.payloads[read.request.request_id][:13] == b"ORDERED-WRITE"
        # The read was released only after the synthesis order committed.
        assert read.completion_hours > ack.completion_hours

    def test_read_after_put_observes_new_object(self):
        store, _ = build_store(objects=1)
        sim = pipeline(store, window_hours=0.25)
        payload = synthetic_object(store.volume.block_size, seed=5)
        trace = [
            RequestEvent(
                time_hours=0.0, tenant="w", object_name="fresh",
                op="put", payload=payload,
            ),
            RequestEvent(time_hours=0.1, tenant="r", object_name="fresh"),
        ]
        report = sim.run(trace, "batched+cache", keep_data=True)
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        assert report.payloads[read.request.request_id] == payload

    def test_write_waits_for_inflight_reads(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.25)
        name = "obj-0"
        before = store.get(name)
        trace = [
            # The read's wetlab cycle is hours long; the update arriving
            # mid-cycle must not mutate the store underneath it.
            RequestEvent(time_hours=0.0, tenant="r", object_name=name),
            RequestEvent(
                time_hours=0.6, tenant="w", object_name=name,
                op="update", payload=b"LATE-WRITE",
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        ack = [c for c in report.completed if c.request.op == "update"][0]
        assert report.payloads[read.request.request_id] == before
        # The write committed only after the read's cycle delivered.
        assert ack.completion_hours > read.completion_hours
        assert store.get(name)[:10] == b"LATE-WRITE"

    def test_committed_update_invalidates_serving_cache(self):
        """A cached block patched by a committed write must not serve the
        stale pre-write bytes on the cache fast path."""
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.25)
        name = "obj-0"
        before = store.get(name)
        trace = [
            # Warm the cache with the pre-write bytes...
            RequestEvent(time_hours=0.0, tenant="r0", object_name=name),
            # ...commit a patch (waits for the read, then synthesizes)...
            RequestEvent(
                time_hours=5.0, tenant="w", object_name=name,
                op="update", payload=b"CACHE-COHERENT",
            ),
            # ...and read again long after the commit: must be fresh.
            RequestEvent(time_hours=40.0, tenant="r1", object_name=name),
        ]
        report = sim.run(trace, "batched+cache", keep_data=True)
        assert report.failed == ()
        second = [c for c in report.completed if c.request.tenant == "r1"][0]
        data = report.payloads[second.request.request_id]
        assert data[:14] == b"CACHE-COHERENT"
        assert data != before
        assert not second.served_from_cache

    def test_committed_delete_drops_cached_blocks(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(store, window_hours=0.25)
        name = "obj-0"
        trace = [
            RequestEvent(time_hours=0.0, tenant="r0", object_name=name),
            RequestEvent(time_hours=5.0, tenant="w", object_name=name, op="delete"),
            RequestEvent(time_hours=40.0, tenant="r1", object_name=name),
        ]
        report = sim.run(trace, "batched+cache")
        # The late read must fail (object gone), never serve from cache.
        assert [f.tenant for f in report.failed] == ["r1"]
        assert "unknown object" in report.failed[0].reason

    def test_cache_attachment_restored_after_run(self):
        store, catalog = build_store(objects=1)
        sentinel = object()
        store.block_cache = sentinel
        sim = pipeline(store)
        trace = [RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0")]
        sim.run(trace, "batched+cache")
        assert store.block_cache is sentinel
        store.block_cache = None

    def test_same_window_read_before_write_serves_prewrite_bytes(self):
        """A read arriving before a write in the same window is scheduled
        first; the write applies only after the read's cycle delivers."""
        store, catalog = build_store(objects=1)
        sim = pipeline(store, window_hours=0.5)
        name = "obj-0"
        before = store.get(name)
        trace = [
            RequestEvent(time_hours=0.1, tenant="r", object_name=name),
            RequestEvent(
                time_hours=0.3, tenant="w", object_name=name,
                op="update", payload=b"SAME-WINDOW",
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        ack = [c for c in report.completed if c.request.op == "update"][0]
        assert report.payloads[read.request.request_id] == before
        assert ack.completion_hours > read.completion_hours
        assert store.get(name)[:11] == b"SAME-WINDOW"

    def test_held_read_observes_only_writes_admitted_before_it(self):
        """W1, read, W2 on one object in one window: the read must see
        exactly W1's bytes — W2 (admitted after the read) applies only
        after the read is served."""
        store, catalog = build_store(objects=1)
        sim = pipeline(store, window_hours=0.5)
        name = "obj-0"
        trace = [
            RequestEvent(
                time_hours=0.1, tenant="w1", object_name=name,
                op="update", payload=b"FIRST-WRITE!",
            ),
            RequestEvent(time_hours=0.2, tenant="r", object_name=name),
            RequestEvent(
                time_hours=0.3, tenant="w2", object_name=name,
                op="update", payload=b"SECOND",
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        served = report.payloads[read.request.request_id]
        assert served[:12] == b"FIRST-WRITE!"
        acks = sorted(
            (c for c in report.completed if c.request.op == "update"),
            key=lambda c: c.request.request_id,
        )
        # W1 committed before the read; W2 only after the read served.
        assert acks[0].completion_hours < read.completion_hours
        assert acks[1].completion_hours > read.completion_hours
        assert report.synthesis_orders == 2
        assert store.get(name)[:6] == b"SECOND"

    def test_user_attached_cache_stays_coherent_through_run(self):
        """A caller-attached cache must receive the invalidations of
        writes applied during a batched+cache run."""
        from repro.service import DecodedBlockCache

        store, catalog = build_store(objects=1)
        user_cache = DecodedBlockCache(capacity_bytes=1 << 20)
        store.attach_cache(user_cache)
        name = "obj-0"
        store.get(name)  # warm the user cache with pre-write bytes
        assert len(user_cache) > 0
        sim = pipeline(store, window_hours=0.25)
        trace = [
            RequestEvent(
                time_hours=0.0, tenant="w", object_name=name,
                op="update", payload=b"USER-CACHE-FRESH",
            ),
        ]
        report = sim.run(trace, "batched+cache")
        assert report.failed == ()
        assert store.block_cache is user_cache  # attachment restored
        assert store.get(name)[:16] == b"USER-CACHE-FRESH"
        store.block_cache = None

    def test_writes_serialize_per_object(self):
        store, catalog = build_store(objects=1)
        sim = pipeline(store, window_hours=0.1)
        name = "obj-0"
        trace = [
            RequestEvent(
                time_hours=0.0, tenant="a", object_name=name,
                op="update", payload=b"FIRST",
            ),
            # Arrives while the first order is still synthesizing: must
            # wait for it and apply second.
            RequestEvent(
                time_hours=1.0, tenant="b", object_name=name,
                op="update", payload=b"SECOND",
            ),
        ]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        assert report.synthesis_orders == 2
        assert store.get(name)[:6] == b"SECOND"
        acks = sorted(
            (c for c in report.completed if c.request.op == "update"),
            key=lambda c: c.request.request_id,
        )
        assert acks[0].completion_hours < acks[1].completion_hours


class TestRetryCycles:
    @staticmethod
    def injector_for(failing_attempts, keys=None):
        """Force decode failures on the given attempts (and optional keys)."""
        calls = []

        def injector(cycle_id, attempt, key):
            calls.append((cycle_id, attempt, key))
            if attempt not in failing_attempts:
                return False
            return keys is None or key in keys

        injector.calls = calls
        return injector

    def test_injected_failure_recovers_within_budget(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(
            store,
            window_hours=0.25,
            retry_budget=2,
            decode_failure_injector=self.injector_for({1}),
        )
        trace = [RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0")]
        report = sim.run(trace, "batched", keep_data=True)
        assert report.failed == ()
        assert len(report.completed) == 1
        served = report.completed[0]
        assert served.attempts == 2
        assert report.retry_cycles == 1
        assert report.retried_requests == 1
        assert report.decode_failures > 0
        assert report.payloads[served.request.request_id] == store.get("obj-0")

    def test_retry_budget_exhaustion_fails_request(self):
        store, catalog = build_store(objects=2)
        sim = pipeline(
            store,
            window_hours=0.25,
            retry_budget=2,
            decode_failure_injector=self.injector_for({1, 2, 3}),
        )
        trace = [
            RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0"),
            RequestEvent(time_hours=0.1, tenant="b", object_name="obj-1"),
        ]
        report = sim.run(trace, "batched")
        # Both requests exhaust the budget: initial cycle + 2 retries.
        assert len(report.failed) == 2
        for failure in report.failed:
            assert failure.attempts == 3
            assert "retry budget" in failure.reason
            assert failure.failure_hours > failure.arrival_hours
        assert report.retry_cycles == 2  # shared cycles, not per request
        assert report.completed == ()

    def test_zero_budget_fails_on_first_cycle(self):
        store, catalog = build_store(objects=1)
        sim = pipeline(
            store,
            retry_budget=0,
            decode_failure_injector=self.injector_for({1}),
        )
        trace = [RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0")]
        report = sim.run(trace, "batched")
        assert len(report.failed) == 1
        assert report.failed[0].attempts == 1
        assert report.retry_cycles == 0

    def test_unaffected_riders_serve_on_time(self):
        store, catalog = build_store(objects=2)
        # Fail only obj-0's blocks; obj-1 shares the batch but not the blocks.
        obj0_keys = set(
            BatchScheduler(store).request_blocks(
                ServiceRequest(request_id=0, tenant="x", object_name="obj-0")
            )
        )
        sim = pipeline(
            store,
            window_hours=0.5,
            retry_budget=1,
            decode_failure_injector=self.injector_for({1}, keys=obj0_keys),
        )
        trace = [
            RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0"),
            RequestEvent(time_hours=0.1, tenant="b", object_name="obj-1"),
        ]
        report = sim.run(trace, "batched")
        assert report.failed == ()
        by_tenant = {c.request.tenant: c for c in report.completed}
        assert by_tenant["b"].attempts == 1
        assert by_tenant["a"].attempts == 2
        assert (
            by_tenant["a"].completion_hours > by_tenant["b"].completion_hours
        )

    def test_retry_charges_deeper_coverage(self):
        store, catalog = build_store(objects=1)
        config = ServiceConfig(
            retry_budget=1,
            retry_coverage_factor=3.0,
            decode_failure_injector=self.injector_for({1}),
        )
        sim = ServicePipeline(store, config=config)
        trace = [RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0")]
        report = sim.run(trace, "batched")
        assert report.failed == ()
        blocks = report.distinct_requested_blocks
        base = config.reads_per_block
        # First cycle at base coverage, retry at 3x.
        assert report.sequenced_reads == blocks * base + blocks * base * 3
        assert report.batches == 2

    def test_retry_reads_per_block_escalates(self):
        config = ServiceConfig(reads_per_block=30, retry_coverage_factor=2.0)
        assert config.retry_reads_per_block(1) == 30
        assert config.retry_reads_per_block(2) == 60
        assert config.retry_reads_per_block(3) == 120
        flat = ServiceConfig(reads_per_block=30, retry_coverage_factor=1.0)
        # A factor of 1.0 still nudges coverage up so retries differ.
        assert flat.retry_reads_per_block(2) > 30


class TestLanePool:
    def test_greedy_packing_is_deterministic(self):
        durations = [3.0, 1.0, 2.0, 1.0, 4.0]
        first = SharedLanePool(2).schedule(0.0, durations)
        second = SharedLanePool(2).schedule(0.0, durations)
        assert first == second
        # Earliest-free lane, ties to the lowest index.
        assert first[0] == (0, 0.0, 3.0)
        assert first[1] == (1, 0.0, 1.0)
        assert first[2] == (1, 1.0, 3.0)
        assert first[3] == (0, 3.0, 4.0)
        assert first[4] == (1, 3.0, 7.0)

    def test_single_lane_serializes(self):
        schedule = SharedLanePool(1).schedule(0.0, [2.0, 3.0, 1.0])
        assert [lane for lane, _, _ in schedule] == [0, 0, 0]
        assert schedule[-1][2] == 6.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ServiceError):
            SharedLanePool(0)
        with pytest.raises(ServiceError):
            SharedLanePool(2).schedule(0.0, [-1.0])

    def test_more_lanes_never_slow_a_cycle(self):
        store, catalog = build_store(objects=6)
        trace = multi_tenant_trace(
            catalog, tenants=4, requests=24, duration_hours=4.0, seed=11
        )
        makespans = {}
        for lanes in (1, 2, 8):
            sim = pipeline(store, window_hours=0.5, wetlab_lanes=lanes)
            report = sim.run(trace, "batched")
            makespans[lanes] = report.makespan_hours
            assert report.wetlab_lanes == lanes
        assert makespans[8] <= makespans[2] <= makespans[1]

    def test_same_seed_same_outcome_regardless_of_lane_count(self):
        """Lane width changes timing, never bytes, work or schedule order."""
        store, catalog = build_store(objects=6)
        trace = multi_tenant_trace(
            catalog, tenants=4, requests=30, duration_hours=4.0, seed=13
        )
        reports = {
            lanes: pipeline(store, window_hours=0.5, wetlab_lanes=lanes).run(
                trace, "batched", keep_data=True
            )
            for lanes in (1, 3, 16)
        }
        reference = reports[1]
        for lanes, report in reports.items():
            assert report.checksum == reference.checksum
            assert report.payloads == reference.payloads
            assert report.batches == reference.batches
            assert report.pcr_reactions == reference.pcr_reactions
            assert report.sequenced_reads == reference.sequenced_reads
            assert report.lane_busy_hours == pytest.approx(
                reference.lane_busy_hours
            )
            # Batch membership identical: same requests ride same cycles
            # (only completion *times* may shift with lane width).
            assert {
                c.request.request_id: c.batch_id for c in report.completed
            } == {
                c.request.request_id: c.batch_id for c in reference.completed
            }

    def test_lane_utilization_reported(self):
        store, catalog = build_store(objects=4)
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=12, duration_hours=2.0, seed=3
        )
        report = pipeline(store, wetlab_lanes=2).run(trace, "batched")
        assert report.lane_busy_hours > 0
        assert report.lane_utilization > 0.0


class TestMixedTraceDeterminism:
    def test_mixed_run_is_reproducible_on_fresh_stores(self):
        def run_once():
            store, catalog = build_store(objects=5)
            sim = pipeline(store, window_hours=0.5)
            trace = multi_tenant_trace(
                catalog,
                tenants=4,
                requests=40,
                duration_hours=12.0,
                seed=21,
                update_fraction=0.15,
                put_fraction=0.05,
            )
            return sim.run(trace, "batched+cache")

        first = run_once()
        second = run_once()
        assert first.checksum == second.checksum
        assert first.synthesis_orders == second.synthesis_orders
        assert first.synthesized_strands == second.synthesized_strands
        assert first.latency == second.latency
        assert first.write_latency == second.write_latency
        assert first.makespan_hours == second.makespan_hours
        assert first.written_bytes > 0
        assert first.synthesis_orders > 0

    def test_compare_accepts_mixed_traces_and_restores_the_seed_store(self):
        """compare() snapshots the seed store and runs every policy
        against a restored clone, so traces with writes no longer need a
        fresh store per policy — and the store comes back byte-identical
        to the seed state afterwards."""
        store, catalog = build_store(objects=3)
        seed_bytes = {name: store.get(name) for name in store.names()}
        sim = pipeline(store, window_hours=0.5)
        trace = [
            RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0"),
            RequestEvent(
                time_hours=0.1, tenant="a", object_name="obj-0",
                op="update", payload=b"COMPARED",
            ),
            RequestEvent(time_hours=0.2, tenant="b", object_name="obj-1"),
            RequestEvent(time_hours=30.0, tenant="b", object_name="obj-0"),
        ]
        reports = sim.compare(trace)
        # Every policy served every request from identical seed state;
        # per-object FIFO ordering makes the decoded bytes identical
        # across policies even though the trace mutates the store.
        assert len({r.checksum for r in reports.values()}) == 1
        for r in reports.values():
            assert len(r.completed) == len(trace)
            assert r.failed == ()
            assert r.synthesis_orders == 1
        # The seed store is restored when compare() returns.
        assert sorted(store.names()) == sorted(seed_bytes)
        for name, data in seed_bytes.items():
            assert store.get(name) == data
        assert store.volume.live_snapshots() == []


class TestPlanningWork:
    def test_one_cover_per_distinct_range_and_no_address_decodes(self, monkeypatch):
        """Planning computes each distinct ``(partition, start, end)``
        range's prefix cover once and decodes no address back to a leaf."""
        store, catalog = build_store(objects=5)
        trace = multi_tenant_trace(
            catalog,
            tenants=3,
            requests=80,
            duration_hours=12.0,
            seed=17,
            update_fraction=0.1,
            put_fraction=0.03,
        )
        covers = Counter()
        planned = Counter()
        decoded_while_planning = []
        planning = []

        real_cover = prefix_cover_module.prefix_cover_for_range

        def counting_cover(tree, start, end):
            covers[(tree, start, end)] += 1
            return real_cover(tree, start, end)

        real_decode = IndexTree.decode

        def counting_decode(tree, address):
            if planning:
                decoded_while_planning.append(address)
            return real_decode(tree, address)

        def counting_planner(real_plan):
            def plan(volume, ranges, **kwargs):
                planning.append(True)
                try:
                    result = real_plan(volume, ranges, **kwargs)
                finally:
                    planning.pop()
                for access in result.accesses:
                    tree = volume.partition(access.partition).tree
                    planned[(tree, access.start_block, access.end_block)] += 1
                return result

            return plan

        for module in (prefix_cover_module, elongation_module, partition_module):
            monkeypatch.setattr(module, "prefix_cover_for_range", counting_cover)
        monkeypatch.setattr(IndexTree, "decode", counting_decode)
        for module in (queue_module, simulator_module):
            monkeypatch.setattr(
                module,
                "plan_partition_ranges",
                counting_planner(module.plan_partition_ranges),
            )
        report = pipeline(store, window_hours=0.5).run(trace, "batched")

        assert report.synthesis_orders > 0
        assert sum(planned.values()) > len(planned)  # ranges repeat
        assert covers == Counter(dict.fromkeys(planned, 1))
        assert decoded_while_planning == []
