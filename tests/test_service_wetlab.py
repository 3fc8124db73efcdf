"""Wetlab-fidelity serving: batches decode real (simulated) reads.

Under ``fidelity="wetlab"`` every scheduled cycle runs its merged plan
through PCR amplification and sequencing-read sampling, decodes exactly
the planned block set (clustering → trace reconstruction → batched
Reed-Solomon via :meth:`ObjectStore.decode_blocks`), and serves responses
from those wetlab-decoded payloads.  These tests assert the headline
guarantee — per-request bytes identical to the reference path on the same
trace — plus determinism and the request-isolation bugfixes.
"""

import multiprocessing

import pytest

np = pytest.importorskip("numpy")

from repro.exceptions import StoreError
from repro.service import ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus


def build_store(objects=4):
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=16, stripe_blocks=2, stripe_width=2
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


def build_simulator(store):
    return ServicePipeline(
        store,
        config=ServiceConfig(
            window_hours=0.5,
            reads_per_block=150,
            cache_capacity_bytes=store.volume.block_size * 32,
        ),
    )


@pytest.fixture(scope="module")
def wetlab_run():
    store, catalog = build_store()
    # An in-place update before serving: the patched slot must ride
    # through synthesis, PCR and decoding like any original strand.
    store.update("obj-1", 5, b"WETLAB-PATCH")
    trace = multi_tenant_trace(
        catalog, tenants=4, requests=12, duration_hours=8.0, seed=3
    )
    simulator = build_simulator(store)
    wetlab = simulator.run(trace, "batched+cache", fidelity="wetlab", keep_data=True)
    reference = simulator.run(trace, "batched+cache", keep_data=True)
    return store, trace, wetlab, reference


class TestWetlabFidelity:
    def test_bytes_identical_to_reference_path(self, wetlab_run):
        _, trace, wetlab, reference = wetlab_run
        assert len(wetlab.completed) == len(trace)
        assert wetlab.failed == ()
        assert wetlab.checksum == reference.checksum
        assert wetlab.payloads == reference.payloads
        per_request = {
            completed.request.request_id: completed.checksum
            for completed in wetlab.completed
        }
        for completed in reference.completed:
            assert per_request[completed.request.request_id] == completed.checksum

    def test_update_patch_recovered_from_wetlab_reads(self, wetlab_run):
        store, _, wetlab, _ = wetlab_run
        expected = store.get("obj-1")
        assert expected[5:17] == b"WETLAB-PATCH"
        served = [
            wetlab.payloads[c.request.request_id]
            for c in wetlab.completed
            if c.request.object_name == "obj-1"
            and c.request.offset == 0
            and c.request.length is None
        ]
        assert served and all(payload == expected for payload in served)

    def test_wetlab_charges_match_reference_run(self, wetlab_run):
        _, _, wetlab, reference = wetlab_run
        assert wetlab.fidelity == "wetlab"
        assert reference.fidelity == "reference"
        for name in ("batches", "pcr_reactions", "amplified_blocks", "sequenced_reads"):
            assert getattr(wetlab, name) == getattr(reference, name), name
        assert wetlab.batches > 0

    def test_wetlab_rerun_is_deterministic(self, wetlab_run):
        store, trace, wetlab, _ = wetlab_run
        simulator = build_simulator(store)
        again = simulator.run(trace, "batched+cache", fidelity="wetlab")
        assert again.checksum == wetlab.checksum
        assert again.sequenced_reads == wetlab.sequenced_reads
        assert again.latency == wetlab.latency

    def test_unknown_fidelity_rejected(self, wetlab_run):
        store, trace, _, _ = wetlab_run
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError):
            build_simulator(store).run(trace, "batched", fidelity="drylab")

    def test_unbatched_policy_supports_wetlab(self):
        store, catalog = build_store(objects=2)
        simulator = build_simulator(store)
        names = list(catalog)
        trace = [
            RequestEvent(time_hours=0.0, tenant="a", object_name=names[0]),
            RequestEvent(time_hours=0.1, tenant="b", object_name=names[1]),
        ]
        report = simulator.run(trace, "unbatched", fidelity="wetlab", keep_data=True)
        for completed in report.completed:
            request = completed.request
            assert report.payloads[request.request_id] == store.get(request.object_name)


class TestRequestIsolation:
    """Malformed requests fail alone instead of killing the whole run."""

    def _trace_with_bad_events(self, catalog):
        names = list(catalog)
        good = names[0]
        return [
            RequestEvent(time_hours=0.1, tenant="a", object_name=good),
            RequestEvent(time_hours=0.2, tenant="b", object_name="no-such-object"),
            RequestEvent(
                time_hours=0.3, tenant="c", object_name=good,
                offset=0, length=catalog[good] + 1,  # past the object's end
            ),
            RequestEvent(time_hours=0.4, tenant="d", object_name=good, offset=-3),
            RequestEvent(time_hours=0.5, tenant="e", object_name=good, length=0),
            RequestEvent(time_hours=0.6, tenant="f", object_name=good),
        ]

    @pytest.mark.parametrize("policy", ["unbatched", "batched", "batched+cache"])
    def test_bad_requests_fail_individually(self, policy):
        store, catalog = build_store(objects=2)
        simulator = ServicePipeline(
            store, config=ServiceConfig(window_hours=0.5)
        )
        trace = self._trace_with_bad_events(catalog)
        report = simulator.run(trace, policy, keep_data=True)
        # Three bad events rejected, three valid ones served (including
        # the zero-length read, which is a valid empty response).
        assert len(report.failed) == 2 + 1
        assert {f.tenant for f in report.failed} == {"b", "c", "d"}
        assert all(f.reason for f in report.failed)
        assert len(report.completed) == 3
        zero_length = [
            c for c in report.completed if c.request.tenant == "e"
        ]
        assert len(zero_length) == 1
        assert zero_length[0].byte_count == 0
        assert report.payloads[zero_length[0].request.request_id] == b""
        served = {c.request.tenant for c in report.completed}
        assert served == {"a", "e", "f"}

    def test_failed_requests_record_arrival_time_and_reason(self):
        store, catalog = build_store(objects=1)
        simulator = ServicePipeline(store)
        trace = self._trace_with_bad_events(catalog)
        report = simulator.run(trace, "batched")
        by_tenant = {f.tenant: f for f in report.failed}
        assert by_tenant["b"].arrival_hours == pytest.approx(0.2)
        assert "no-such-object" in by_tenant["b"].reason
        assert by_tenant["d"].offset == -3

    def test_wetlab_fidelity_isolates_failures_too(self):
        store, catalog = build_store(objects=2)
        simulator = build_simulator(store)
        trace = self._trace_with_bad_events(catalog)
        report = simulator.run(trace, "batched+cache", fidelity="wetlab")
        assert len(report.failed) == 3
        assert len(report.completed) == 3

    def test_all_requests_failing_yields_empty_report(self):
        store, _ = build_store(objects=1)
        simulator = ServicePipeline(store)
        trace = [
            RequestEvent(time_hours=0.1, tenant="a", object_name="ghost"),
            RequestEvent(time_hours=0.2, tenant="b", object_name="phantom"),
        ]
        report = simulator.run(trace, "batched")
        assert report.completed == ()
        assert len(report.failed) == 2
        assert report.makespan_hours == 0.0
        assert report.latency.count == 0


class TestWetlabPipeline:
    """Mixed read/write traces and retry cycles at wetlab fidelity."""

    def test_mixed_read_write_with_injected_failures_recovers(self):
        """The PR's acceptance scenario: a mixed read/write wetlab run
        with injected block-decode failures recovers every affected
        request within the retry budget, stays byte-identical to the
        reference path, and writes are visible to later reads."""
        store, catalog = build_store()
        target: list[tuple[int, tuple[str, int]]] = []

        def injector(cycle_id, attempt, key):
            # Fail one block of the first read cycle the run schedules.
            if attempt == 1 and not target:
                target.append((cycle_id, key))
            return attempt == 1 and target[0] == (cycle_id, key)

        block_size = store.volume.block_size
        patch = b"PIPELINE-WRITE"
        trace = [
            RequestEvent(time_hours=0.1, tenant="r1", object_name="obj-0"),
            RequestEvent(time_hours=0.2, tenant="r2", object_name="obj-1"),
            RequestEvent(
                time_hours=0.3, tenant="w1", object_name="obj-2",
                op="update", payload=patch,
            ),
            # Admitted behind w1: must observe the patched bytes.
            RequestEvent(time_hours=0.4, tenant="r3", object_name="obj-2"),
            RequestEvent(time_hours=6.0, tenant="r4", object_name="obj-0"),
        ]
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=150,
                cache_capacity_bytes=block_size * 32,
                retry_budget=2,
                decode_failure_injector=injector,
            ),
        )
        report = simulator.run(
            trace, "batched+cache", fidelity="wetlab", keep_data=True
        )
        assert report.failed == ()
        assert len(report.completed) == len(trace)
        assert report.retry_cycles == 1
        assert report.decode_failures >= 1
        assert report.synthesis_orders == 1
        assert report.synthesized_strands > 0
        # Every served payload is byte-identical to the reference path
        # (serve() asserts this internally too; check it end to end).
        for completed in report.completed:
            request = completed.request
            if request.op != "read":
                continue
            assert report.payloads[request.request_id] == store.get(
                request.object_name, offset=request.offset, length=request.length,
                block_cache=None,
            )
        # The write is visible to the read scheduled after it.
        read_after_write = [
            c for c in report.completed if c.request.tenant == "r3"
        ][0]
        assert (
            report.payloads[read_after_write.request.request_id][: len(patch)]
            == patch
        )

    def test_wetlab_put_served_to_later_read(self):
        """A brand-new object rides a synthesis order, re-synthesizes its
        partitions' pools, and a later read decodes it from real reads."""
        store, catalog = build_store(objects=2)
        payload = b"NEW-OBJECT" * 20
        trace = [
            RequestEvent(
                time_hours=0.0, tenant="w", object_name="fresh",
                op="put", payload=payload,
            ),
            RequestEvent(time_hours=0.1, tenant="r", object_name="fresh"),
        ]
        simulator = build_simulator(store)
        report = simulator.run(
            trace, "batched", fidelity="wetlab", keep_data=True
        )
        assert report.failed == ()
        read = [c for c in report.completed if c.request.op == "read"][0]
        assert report.payloads[read.request.request_id] == payload

    def test_wetlab_fills_record_cache_demand_like_reference(self):
        """Wetlab-decoded fills must feed the cache's demand accounting
        (miss counters and the TinyLFU admission sketch) exactly like
        reference-path fills, or hot blocks can be denied admission
        forever under wetlab fidelity."""
        store, catalog = build_store()
        trace = multi_tenant_trace(
            catalog, tenants=4, requests=10, duration_hours=8.0, seed=4
        )
        simulator = build_simulator(store)
        wetlab = simulator.run(trace, "batched+cache", fidelity="wetlab")
        reference = simulator.run(trace, "batched+cache")
        assert wetlab.cache.misses > 0
        assert wetlab.cache.misses == reference.cache.misses
        assert wetlab.cache.hits == reference.cache.hits
        # (Insertions may exceed the reference by same-key re-puts when a
        # block rides two overlapping in-flight cycles.)
        assert wetlab.cache.insertions >= reference.cache.insertions

    def test_same_window_read_before_write_stays_consistent(self):
        """A read sharing its window with a later-arriving write to the
        same object decodes the pre-write pool and pre-write reference —
        the write applies only after the read's cycle delivers."""
        store, catalog = build_store(objects=1)
        simulator = build_simulator(store)
        name = "obj-0"
        before = store.get(name)
        trace = [
            # Warm the object's pool with a first cycle...
            RequestEvent(time_hours=0.0, tenant="r0", object_name=name),
            # ...then a read and a write race within one window.
            RequestEvent(time_hours=5.0, tenant="r1", object_name=name),
            RequestEvent(
                time_hours=5.2, tenant="w", object_name=name,
                op="update", payload=b"WINDOW-RACE",
            ),
        ]
        report = simulator.run(trace, "batched", fidelity="wetlab", keep_data=True)
        assert report.failed == ()
        racing = [c for c in report.completed if c.request.tenant == "r1"][0]
        ack = [c for c in report.completed if c.request.op == "update"][0]
        assert report.payloads[racing.request.request_id] == before
        assert ack.completion_hours > racing.completion_hours
        assert store.get(name)[:11] == b"WINDOW-RACE"

    def test_misassembled_block_retries_instead_of_aborting(self):
        """At shallow coverage a block can decode 'successfully' with
        wrong bytes (a misprimed neighbour winning a thin cluster).  The
        block-level checksum gate must route that into the retry cycle —
        never abort the run with a fidelity violation."""
        store, catalog = build_store()
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=30,  # shallow: mis-decodes do occur here
                retry_budget=3,
                cache_capacity_bytes=store.volume.block_size * 32,
            ),
        )
        trace = multi_tenant_trace(
            catalog, tenants=4, requests=12, duration_hours=8.0, seed=3
        )
        report = simulator.run(trace, "batched+cache", fidelity="wetlab")
        # Every request gets an individual outcome; the run never dies.
        assert len(report.completed) + len(report.failed) == len(trace)
        assert report.decode_failures > 0
        assert report.retry_cycles > 0
        for failure in report.failed:
            assert failure.reason

    def test_real_decode_failure_recovers_with_deeper_coverage(self):
        """Starve the first cycle's coverage so decoding genuinely fails,
        then let the retry's deeper sequencing recover it — no injector."""
        store, catalog = build_store(objects=1)
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=2,  # far too shallow for a clean decode
                retry_budget=4,
                retry_coverage_factor=4.0,
            ),
        )
        trace = [RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0")]
        report = simulator.run(
            trace, "batched", fidelity="wetlab", keep_data=True
        )
        assert report.failed == ()
        served = report.completed[0]
        assert served.attempts > 1
        assert report.retry_cycles == served.attempts - 1
        assert report.payloads[served.request.request_id] == store.get("obj-0")


class TestInlineDecode:
    def test_default_config_run_leaves_no_child_process(self):
        # Every readout decodes in the serving process itself.
        store, catalog = build_store()
        trace = multi_tenant_trace(
            catalog, tenants=2, requests=6, duration_hours=2.0, seed=5
        )
        report = ServicePipeline(store, config=ServiceConfig()).run(
            trace, "batched+cache", fidelity="wetlab"
        )
        assert report.batches > 0
        assert len(report.completed) + len(report.failed) == len(trace)
        assert multiprocessing.active_children() == []

    def test_injected_failure_retry_matches_the_reference_run(self):
        store, catalog = build_store(objects=3)
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=8, duration_hours=6.0, seed=11
        )

        def run(fidelity):
            first: list[tuple[int, tuple[str, int]]] = []

            def injector(cycle_id, attempt, key):
                if attempt == 1 and not first:
                    first.append((cycle_id, key))
                return attempt == 1 and first[0] == (cycle_id, key)

            simulator = ServicePipeline(
                store,
                config=ServiceConfig(
                    window_hours=0.5,
                    reads_per_block=120,
                    retry_budget=2,
                    decode_failure_injector=injector,
                ),
            )
            return simulator.run(trace, "batched+cache", fidelity=fidelity)

        wetlab = run("wetlab")
        assert wetlab.failed == ()
        assert wetlab.retry_cycles >= 1
        assert wetlab.checksum == run("reference").checksum


class TestDecodeBlocksContract:
    def test_decode_blocks_requires_reads_for_partition(self):
        store, _ = build_store(objects=1)
        record = store.record("obj-0")
        blocks = {record.extents[0].partition: [record.extents[0].start_block]}
        with pytest.raises(StoreError):
            store.decode_blocks(blocks, {})

    def test_decode_blocks_empty_request_is_empty(self):
        store, _ = build_store(objects=1)
        assert store.decode_blocks({}, {}) == {}
        assert store.decode_blocks({"vol-000": []}, {}) == {}
