"""Tests for the discrete-event serving simulator."""

import pytest

from repro.exceptions import ServiceError
from repro.service import POLICIES, ServiceConfig, ServicePipeline, TenantQoS
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus


def build_store(objects=12, max_blocks=4):
    config = VolumeConfig(partition_leaf_count=64, stripe_blocks=4, stripe_width=3)
    store = ObjectStore(DnaVolume(config=config))
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i:02d}": block_size * (1 + i % max_blocks) for i in range(objects)}
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def build_trace(catalog, *, requests=120, tenants=8, seed=11):
    return multi_tenant_trace(
        catalog, tenants=tenants, requests=requests, duration_hours=6.0, seed=seed
    )


@pytest.fixture(scope="module")
def simulation():
    store, catalog = build_store()
    simulator = ServicePipeline(
        store,
        config=ServiceConfig(cache_capacity_bytes=store.volume.block_size * 32),
    )
    trace = build_trace(catalog)
    return simulator, trace, simulator.compare(trace)


class TestPolicyComparison:
    def test_all_policies_serve_every_request(self, simulation):
        _, trace, reports = simulation
        for report in reports.values():
            assert len(report.completed) == len(trace)

    def test_identical_decoded_bytes_across_policies(self, simulation):
        _, _, reports = simulation
        assert len({report.checksum for report in reports.values()}) == 1
        assert len({report.decoded_bytes for report in reports.values()}) == 1

    def test_batching_reduces_wetlab_work(self, simulation):
        _, _, reports = simulation
        assert reports["batched"].pcr_reactions < reports["unbatched"].pcr_reactions
        assert reports["batched"].sequenced_reads < reports["unbatched"].sequenced_reads
        assert reports["batched"].batches < reports["unbatched"].batches

    def test_cache_reduces_wetlab_work_further(self, simulation):
        _, _, reports = simulation
        assert (
            reports["batched+cache"].pcr_reactions < reports["batched"].pcr_reactions
        )
        assert (
            reports["batched+cache"].sequenced_reads
            < reports["batched"].sequenced_reads
        )
        cache = reports["batched+cache"].cache
        assert cache is not None and cache.hits > 0
        assert 0.0 < cache.hit_rate <= 1.0

    def test_amplification_factor_ordering(self, simulation):
        _, _, reports = simulation
        assert (
            reports["unbatched"].amplification_factor
            > reports["batched"].amplification_factor
            > reports["batched+cache"].amplification_factor
        )

    def test_cache_hits_cut_tail_latency(self, simulation):
        _, _, reports = simulation
        assert reports["batched+cache"].latency.p50 < reports["batched"].latency.p50


class TestDeterminism:
    def test_rerun_is_bit_identical(self, simulation):
        simulator, trace, reports = simulation
        for policy in POLICIES:
            again = simulator.run(trace, policy)
            reference = reports[policy]
            assert again.checksum == reference.checksum
            assert again.pcr_reactions == reference.pcr_reactions
            assert again.sequenced_reads == reference.sequenced_reads
            assert again.latency == reference.latency
            assert again.makespan_hours == reference.makespan_hours

    def test_payloads_match_reference_reads(self):
        store, catalog = build_store(objects=4)
        simulator = ServicePipeline(store)
        trace = build_trace(catalog, requests=20, tenants=3, seed=5)
        report = simulator.run(trace, "batched+cache", keep_data=True)
        for completed in report.completed:
            request = completed.request
            expected = store.get(
                request.object_name, offset=request.offset, length=request.length
            )
            assert report.payloads[request.request_id] == expected


class TestEventLoop:
    def test_requests_within_window_share_a_batch(self):
        store, catalog = build_store(objects=3)
        simulator = ServicePipeline(store, config=ServiceConfig(window_hours=1.0))
        names = list(catalog)
        trace = [
            RequestEvent(time_hours=0.1, tenant="a", object_name=names[0]),
            RequestEvent(time_hours=0.5, tenant="b", object_name=names[1]),
            RequestEvent(time_hours=5.0, tenant="c", object_name=names[2]),
        ]
        report = simulator.run(trace, "batched")
        assert report.batches == 2
        batch_ids = [completed.batch_id for completed in report.completed]
        assert batch_ids[0] == batch_ids[1] != batch_ids[2]

    def test_unbatched_is_one_cycle_per_request(self):
        store, catalog = build_store(objects=3)
        simulator = ServicePipeline(store)
        trace = build_trace(catalog, requests=15, tenants=2, seed=3)
        report = simulator.run(trace, "unbatched")
        assert report.batches == 15
        assert all(not completed.served_from_cache for completed in report.completed)

    def test_hot_repeat_is_served_from_cache_without_wetlab(self):
        store, catalog = build_store(objects=2)
        simulator = ServicePipeline(store, config=ServiceConfig(window_hours=0.25))
        name = next(iter(catalog))
        trace = [
            RequestEvent(time_hours=0.0, tenant="a", object_name=name),
            RequestEvent(time_hours=4.0, tenant="b", object_name=name),
        ]
        report = simulator.run(trace, "batched+cache")
        first, second = sorted(report.completed, key=lambda c: c.request.request_id)
        assert not first.served_from_cache
        assert second.served_from_cache and second.batch_id is None
        assert second.latency_hours == pytest.approx(
            simulator.config.cache_service_hours
        )
        assert report.batches == 1

    def test_nan_arrival_fails_alone_and_keeps_time_order(self):
        store, catalog = build_store(objects=3)
        simulator = ServicePipeline(store, config=ServiceConfig(window_hours=1.0))
        names = list(catalog)
        valid = [
            RequestEvent(time_hours=1.0, tenant="a", object_name=names[0]),
            RequestEvent(time_hours=0.5, tenant="c", object_name=names[2]),
        ]
        nan = RequestEvent(time_hours=float("nan"), tenant="b", object_name=names[1])
        report = simulator.run([valid[0], nan, valid[1]], "batched")
        (failed,) = report.failed
        assert failed.request_id == 2 and failed.object_name == names[1]
        assert "arrival_hours" in failed.reason
        # The NaN event changes nothing for the others: same ids, same times.
        alone = simulator.run(valid, "batched")
        assert report.completed == alone.completed
        assert [item.request.arrival_hours for item in report.completed] == [0.5, 1.0]

    def test_unknown_policy_and_empty_trace_rejected(self):
        store, catalog = build_store(objects=1)
        simulator = ServicePipeline(store)
        with pytest.raises(ServiceError):
            simulator.run([], "batched")
        trace = build_trace(catalog, requests=2, tenants=1)
        with pytest.raises(ServiceError):
            simulator.run(trace, "turbo")


class TestIlluminaRegime:
    def test_fixed_run_latency_quantizes(self):
        store, catalog = build_store(objects=2)
        simulator = ServicePipeline(
            store, config=ServiceConfig(sequencer="illumina")
        )
        trace = build_trace(catalog, requests=10, tenants=2, seed=9)
        report = simulator.run(trace, "batched")
        run_hours = simulator.config.illumina.run_hours
        pcr = simulator.config.pcr_hours
        for completed in report.completed:
            wetlab = completed.completion_hours - completed.request.arrival_hours
            # Latency = queue wait + PCR + a whole number of runs.
            assert wetlab >= pcr + run_hours


class TestHonestAccounting:
    def test_tiny_cache_never_gets_free_reads(self):
        """Under heavy eviction pressure, every serve-path store fill must
        correspond to a charged amplified block (misses <= amplified) and
        the cached policy degrades toward batched, not below it."""
        store, catalog = build_store(objects=10)
        trace = build_trace(catalog, requests=200, tenants=10, seed=17)
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                cache_capacity_bytes=store.volume.block_size * 2
            ),
        )
        cached = simulator.run(trace, "batched+cache")
        batched = simulator.run(trace, "batched")
        assert cached.checksum == batched.checksum
        assert cached.cache.misses <= cached.amplified_blocks
        assert cached.amplified_blocks <= batched.amplified_blocks
        assert cached.cache.evictions > 0


class TestCacheCoherence:
    def test_update_invalidates_and_reads_stay_fresh(self):
        store, catalog = build_store(objects=2)
        from repro.service import DecodedBlockCache

        cache = DecodedBlockCache(capacity_bytes=1 << 20)
        store.attach_cache(cache)
        name = next(iter(catalog))
        before = store.get(name)
        assert cache.stats.insertions > 0
        patched = store.update(name, 10, b"SERVICE-LAYER")
        assert patched >= 1
        assert cache.stats.invalidations >= patched
        after = store.get(name)
        assert after[10:23] == b"SERVICE-LAYER"
        assert after != before

    def test_delete_drops_cached_blocks(self):
        store, catalog = build_store(objects=2)
        from repro.service import DecodedBlockCache

        cache = DecodedBlockCache(capacity_bytes=1 << 20)
        store.attach_cache(cache)
        name = next(iter(catalog))
        store.get(name)
        held = len(cache)
        assert held > 0
        store.delete(name)
        assert len(cache) < held


_NAN_FIELDS = [
    (ServiceConfig, name)
    for name in (
        "window_hours",
        "pcr_hours",
        "cache_service_hours",
        "synthesis_setup_hours",
        "synthesis_hours_per_kilobase",
        "retry_coverage_factor",
    )
] + [
    (TenantQoS, name)
    for name in ("weight", "rate_blocks_per_hour", "burst_blocks", "deadline_hours")
]


@pytest.mark.parametrize(
    "config_type, field", _NAN_FIELDS, ids=[name for _, name in _NAN_FIELDS]
)
def test_nan_config_field_rejected(config_type, field):
    # NaN fails every ordered comparison, so a check written as ``x < 0``
    # lets it through; a NaN latency used to surface only as NaN
    # completion times in the report.  A burst needs a rate to get to
    # its own check.
    extra = {"rate_blocks_per_hour": 1.0} if field == "burst_blocks" else {}
    with pytest.raises(ServiceError):
        config_type(**extra, **{field: float("nan")})


@pytest.mark.parametrize("field", ["decode_workers", "decode_cluster_shards"])
def test_decode_worker_and_shard_counts_are_validated(field):
    # Both are ignored (decode is inline) but still rejected below 1.
    with pytest.raises(ServiceError, match=field):
        ServiceConfig(**{field: 0})
    assert getattr(ServiceConfig(**{field: 4}), field) == 4
    assert getattr(ServiceConfig(), field) is None


def first_cycle_failure_injector():
    """Fails one block of the first cycle the run schedules, once."""
    first: list[tuple[int, tuple[str, int]]] = []

    def injector(cycle_id, attempt, key):
        if attempt == 1 and not first:
            first.append((cycle_id, key))
        return attempt == 1 and first[0] == (cycle_id, key)

    return injector


def test_injected_decode_failure_rides_a_retry_cycle():
    store, catalog = build_store(objects=3, max_blocks=2)
    trace = build_trace(catalog, requests=8, tenants=3)
    simulator = ServicePipeline(
        store,
        config=ServiceConfig(
            reads_per_block=120,
            retry_budget=2,
            decode_failure_injector=first_cycle_failure_injector(),
        ),
    )
    report = simulator.run(trace, "batched+cache")
    assert report.failed == ()
    assert report.retry_cycles >= 1
    assert report.decode_failures >= 1
    assert max(completed.attempts for completed in report.completed) == 2
