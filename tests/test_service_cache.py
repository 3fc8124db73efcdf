"""Tests for the decoded-block cache of the serving layer."""

import pytest

from repro.exceptions import ServiceError
from repro.service import DecodedBlockCache, ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import multi_tenant_trace
from repro.workloads.objects import object_corpus


def filled(capacity=100, entries=()):
    cache = DecodedBlockCache(capacity)
    for partition, block, data in entries:
        cache.put(partition, block, data)
    return cache


class TestLookups:
    def test_miss_then_hit(self):
        cache = filled(entries=[("p", 0, b"x" * 10)])
        assert cache.get("p", 1) is None
        assert cache.get("p", 0) == b"x" * 10
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_contains_is_a_pure_peek(self):
        cache = filled(entries=[("p", 0, b"a" * 40), ("p", 1, b"b" * 40)])
        hits, misses = cache.stats.hits, cache.stats.misses
        assert cache.contains("p", 0)
        assert not cache.contains("p", 9)
        # No stats movement...
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
        # ...and no LRU refresh: block 0 is still the eviction victim.
        cache.put("p", 2, b"c" * 40)
        assert not cache.contains("p", 0)
        assert cache.contains("p", 1)

    def test_get_refreshes_lru_position(self):
        cache = filled(entries=[("p", 0, b"a" * 40), ("p", 1, b"b" * 40)])
        cache.get("p", 0)  # block 0 is now most-recently used
        cache.put("p", 2, b"c" * 40)
        assert cache.contains("p", 0)
        assert not cache.contains("p", 1)


class TestCapacity:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ServiceError):
            DecodedBlockCache(0)

    def test_eviction_respects_byte_budget(self):
        cache = filled(capacity=100, entries=[("p", i, b"x" * 30) for i in range(4)])
        assert cache.used_bytes == 90
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert not cache.contains("p", 0)

    def test_oversized_block_is_rejected_not_thrashing(self):
        cache = filled(capacity=50, entries=[("p", 0, b"x" * 30)])
        cache.put("p", 1, b"y" * 51)
        assert cache.stats.rejections == 1
        assert cache.contains("p", 0), "oversized insert must not evict live data"
        assert not cache.contains("p", 1)

    def test_replacing_a_key_adjusts_used_bytes(self):
        cache = filled(capacity=100, entries=[("p", 0, b"x" * 30)])
        cache.put("p", 0, b"y" * 50)
        assert cache.used_bytes == 50
        assert len(cache) == 1
        assert cache.get("p", 0) == b"y" * 50


class TestInvalidation:
    def test_invalidate_drops_entry(self):
        cache = filled(entries=[("p", 0, b"x" * 10)])
        assert cache.invalidate("p", 0)
        assert cache.used_bytes == 0
        assert cache.get("p", 0) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_missing_is_noop(self):
        cache = filled()
        assert not cache.invalidate("p", 0)
        assert cache.stats.invalidations == 0

    def test_clear_preserves_counters(self):
        cache = filled(entries=[("p", 0, b"x" * 10)])
        cache.get("p", 0)
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.stats.hits == 1 and cache.stats.insertions == 1


class TestFrequencySketch:
    def test_estimates_track_recorded_counts(self):
        from repro.service import FrequencySketch

        sketch = FrequencySketch(width=256, depth=4, sample_size=10_000)
        for _ in range(5):
            sketch.record(("p", 1))
        sketch.record(("p", 2))
        assert sketch.estimate(("p", 1)) >= 5
        assert sketch.estimate(("p", 2)) >= 1
        assert sketch.estimate(("p", 3)) <= sketch.estimate(("p", 1))

    def test_aging_halves_counts(self):
        from repro.service import FrequencySketch

        sketch = FrequencySketch(width=64, depth=2, sample_size=8)
        for _ in range(8):  # hits the sample size -> one aging pass
            sketch.record(("p", 0))
        assert sketch.estimate(("p", 0)) == 4

    def test_rows_are_decorrelated(self):
        """Keys colliding in one row must not collide in every row —
        otherwise the count-min sketch degenerates to a single hash and
        aliased keys inherit each other's full frequency estimate."""
        from repro.service import FrequencySketch

        sketch = FrequencySketch()
        vectors = {
            block: tuple(sketch._indexes(("part", block)))
            for block in range(10_000, 13_000)  # same-length tokens
        }
        by_row0 = {}
        for block, vector in vectors.items():
            by_row0.setdefault(vector[0], []).append(block)
        colliding = full = 0
        for bucket in by_row0.values():
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    colliding += 1
                    if vectors[bucket[i]] == vectors[bucket[j]]:
                        full += 1
        assert colliding > 0
        assert full == 0

    def test_deterministic_across_instances(self):
        from repro.service import FrequencySketch

        a, b = (FrequencySketch() for _ in range(2))
        for sketch in (a, b):
            for block in range(20):
                sketch.record(("part", block))
        assert all(
            a.estimate(("part", block)) == b.estimate(("part", block))
            for block in range(20)
        )


class TestTinyLfuAdmission:
    def hot_cold_cache(self, capacity=100):
        """A full cache holding a block that has been requested often."""
        cache = DecodedBlockCache(capacity, admission="tinylfu")
        cache.put("p", 0, b"h" * 60)
        cache.put("p", 1, b"w" * 40)
        for _ in range(6):
            cache.get("p", 0)  # block 0 is demonstrably hot
        return cache

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError):
            DecodedBlockCache(100, admission="lfu-ish")

    def test_admits_freely_while_there_is_room(self):
        cache = DecodedBlockCache(100, admission="tinylfu")
        cache.put("p", 0, b"x" * 40)
        cache.put("p", 1, b"y" * 40)
        assert len(cache) == 2
        assert cache.stats.admission_denials == 0

    def test_cold_scan_cannot_evict_hot_block(self):
        cache = self.hot_cold_cache()
        # A scan streams never-requested blocks through the cache: every
        # one would have to evict block 1 (or the hot block 0) and none
        # has the frequency to justify it.
        for block in range(100, 120):
            cache.put("p", block, b"s" * 50)
        assert cache.contains("p", 0)
        assert cache.stats.admission_denials == 20
        assert cache.stats.evictions == 0
        assert cache.stats.admission_attempts == 2 + 20

    def test_genuinely_hot_candidate_displaces_cold_victim(self):
        cache = self.hot_cold_cache()
        for _ in range(8):  # demand for an uncached block builds up...
            cache.get("p", 9)
        cache.put("p", 9, b"n" * 40)  # ...so its fill now displaces LRU
        assert cache.contains("p", 9)
        assert not cache.contains("p", 1)
        assert cache.stats.evictions == 1

    def test_replacing_resident_key_skips_the_gate(self):
        cache = self.hot_cold_cache()
        cache.put("p", 1, b"R" * 40)  # refresh in place, no admission ruling
        assert cache.get("p", 1) == b"R" * 40
        assert cache.stats.admission_denials == 0

    def test_default_policy_unchanged(self):
        cache = DecodedBlockCache(100)
        for block in range(100, 120):
            cache.put("p", block, b"s" * 50)
        assert cache.stats.admission_denials == 0
        assert cache.stats.evictions == 18


class TestTinyLfuThroughThePipeline:
    """``ServiceConfig(cache_admission="tinylfu")`` end to end: a hot set
    shared by six tenants plus one tenant scanning whole objects, served
    under ``batched+cache`` with a 16-block cache."""

    OBJECTS = 40

    def build_store(self):
        store = ObjectStore(
            DnaVolume(
                config=VolumeConfig(
                    partition_leaf_count=64, stripe_blocks=2, stripe_width=2
                )
            )
        )
        block_size = store.volume.block_size
        corpus = object_corpus(
            {f"obj-{i:02d}": block_size * (1 + i % 4) for i in range(self.OBJECTS)},
            seed=11,
        )
        for name, data in corpus.items():
            store.put(name, data)
        return store, {name: len(data) for name, data in corpus.items()}

    def test_scan_resistance_keeps_the_bytes_and_raises_the_hit_rate(self):
        _, catalog = self.build_store()
        hot = multi_tenant_trace(
            catalog, tenants=6, requests=1500, duration_hours=50.0, seed=5,
            object_exponent=1.3,
        )
        scan = multi_tenant_trace(
            catalog, tenants=1, requests=300, duration_hours=50.0, seed=6,
            object_exponent=0.01, whole_object_fraction=1.0,
            aggressor_fraction=1.0, aggressor_tenant="scanner",
        )
        trace = sorted(hot + scan, key=lambda event: event.time_hours)
        reports = {}
        for admission in ("always", "tinylfu"):
            store, _ = self.build_store()
            config = ServiceConfig(
                cache_capacity_bytes=store.volume.block_size * 16,
                cache_admission=admission,
            )
            reports[admission] = ServicePipeline(store, config=config).run(
                trace, "batched+cache"
            )
        store, _ = self.build_store()
        uncached = ServicePipeline(store).run(trace, "batched")
        always, tinylfu = reports["always"], reports["tinylfu"]
        assert always.checksum == tinylfu.checksum == uncached.checksum
        assert always.cache.admission_denials == 0
        assert tinylfu.cache.admission_denials > 0
        assert tinylfu.cache.hit_rate > always.cache.hit_rate
