"""Digital tests for the repro.store volume layer.

Covers striped allocation across partitions, named put/get/update/delete,
block-granular patching, the batched prefix-cover read planner, and
inline block decoding from digitally perfect reads.  No wetlab
simulation here (and no numpy requirement); the full sequencing round
trip lives in ``tests/test_store_wetlab_roundtrip.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.backend import available_backends
from repro.exceptions import StoreError
from repro.observability.stages import collect_stages
from repro.pipeline.distance import (
    NumpyDistanceBackend,
    PythonDistanceBackend,
    available_distance_backends,
)
from repro.store import (
    DnaVolume,
    ObjectStore,
    VolumeConfig,
    block_ranges_for_read,
    merge_partition_ranges,
    plan_object_read,
    plan_partition_ranges,
)
from repro.store.objects import Extent, ObjectRecord
from repro.workloads.objects import synthetic_object


def small_store(**overrides) -> ObjectStore:
    config = VolumeConfig(
        partition_leaf_count=overrides.pop("partition_leaf_count", 64),
        stripe_blocks=overrides.pop("stripe_blocks", 4),
        stripe_width=overrides.pop("stripe_width", 3),
        **overrides,
    )
    return ObjectStore(DnaVolume(config=config))


class TestAllocationAndStriping:
    def test_small_object_uses_one_partition(self):
        store = small_store()
        record = store.put("tiny", b"x" * 100)
        assert record.block_count == 1
        assert len(record.extents) == 1

    def test_large_object_stripes_across_partitions(self):
        store = small_store()
        block_size = store.volume.block_size
        record = store.put("big", synthetic_object(block_size * 10))
        assert record.block_count == 10
        # 10 blocks at 4 blocks/stripe rotate over all 3 partitions.
        assert len(record.partition_names) == 3

    def test_objects_of_any_size_grow_the_volume(self):
        store = small_store(partition_leaf_count=8, stripe_blocks=8, stripe_width=2)
        block_size = store.volume.block_size
        record = store.put("huge", synthetic_object(block_size * 40))
        # 40 blocks over 8-block partitions: at least five partitions exist.
        assert len(store.volume.partition_names) >= 5
        assert store.get("huge") == synthetic_object(block_size * 40)
        assert record.block_count == 40

    def test_allocation_is_append_only_per_partition(self):
        store = small_store()
        first = store.put("a", synthetic_object(2000, seed=1))
        second = store.put("b", synthetic_object(2000, seed=2))
        by_partition: dict[str, list[range]] = {}
        for record in (first, second):
            for extent in record.extents:
                by_partition.setdefault(extent.partition, []).append(extent.blocks())
        for runs in by_partition.values():
            claimed = [block for run in runs for block in run]
            assert len(claimed) == len(set(claimed)), "blocks double-allocated"


class TestPartitionLookups:
    def test_free_blocks_unknown_partition_is_store_error(self):
        """Store-layer APIs raise StoreError, never a raw KeyError."""
        store = small_store()
        store.put("obj", b"y" * 100)
        name = store.volume.partition_names[0]
        assert store.volume.free_blocks(name) >= 0
        with pytest.raises(StoreError):
            store.volume.free_blocks("no-such-partition")


class TestBlockWindows:
    def test_blocks_in_range_matches_logical_blocks_window(self):
        store = small_store(stripe_blocks=2)
        block_size = store.volume.block_size
        record = store.put("obj", synthetic_object(block_size * 9, seed=20))
        everything = record.logical_blocks()
        assert len(everything) == 9
        for first, last in [(0, 8), (3, 5), (0, 0), (8, 8), (2, 7)]:
            window = list(record.blocks_in_range(first, last))
            assert window == everything[first : last + 1]


class TestObjectLifecycle:
    def test_put_get_roundtrip(self):
        store = small_store()
        data = synthetic_object(5000, seed=3)
        store.put("obj", data)
        assert store.get("obj") == data

    def test_range_get(self):
        store = small_store()
        data = synthetic_object(4000, seed=4)
        store.put("obj", data)
        assert store.get("obj", offset=700, length=900) == data[700:1600]
        assert store.get("obj", offset=3900) == data[3900:]

    def test_duplicate_put_rejected(self):
        store = small_store()
        store.put("obj", b"abc")
        with pytest.raises(StoreError):
            store.put("obj", b"def")

    def test_unknown_object_rejected(self):
        store = small_store()
        with pytest.raises(StoreError):
            store.get("missing")

    def test_delete_retires_addresses(self):
        store = small_store()
        record = store.put("obj", synthetic_object(3000, seed=5))
        used_before = store.volume.allocated_blocks()
        store.delete("obj")
        assert "obj" not in store
        assert store.volume.retired_blocks == record.block_count
        # Addresses are never reused: a new object claims fresh blocks.
        store.put("obj2", synthetic_object(3000, seed=6))
        assert store.volume.allocated_blocks() > used_before


class TestUpdates:
    def test_update_single_block(self):
        store = small_store()
        data = synthetic_object(2000, seed=7)
        store.put("obj", data)
        patched = store.update("obj", 50, b"NEW-BYTES")
        assert patched == 1
        assert store.get("obj") == data[:50] + b"NEW-BYTES" + data[59:]

    def test_update_spanning_blocks_and_partitions(self):
        store = small_store(stripe_blocks=1)
        block_size = store.volume.block_size
        data = synthetic_object(block_size * 6, seed=8)
        record = store.put("obj", data)
        assert len(record.partition_names) == 3
        edit = bytes(range(64)) * 2
        offset = block_size - 30  # spans the block 0 / block 1 boundary
        patched = store.update("obj", offset, edit)
        assert patched == 2
        expected = data[:offset] + edit + data[offset + len(edit) :]
        assert store.get("obj") == expected
        # Each touched block logged exactly one version slot.
        touched = {
            (extent.partition, block)
            for extent, block, block_offset in record.logical_blocks()
            if block_offset < offset + len(edit)
            and block_offset + block_size > offset
        }
        for partition_name, block in touched:
            assert store.volume.partition(partition_name).update_count(block) == 1

    def test_noop_update_logs_nothing(self):
        store = small_store()
        data = synthetic_object(1000, seed=9)
        store.put("obj", data)
        assert store.update("obj", 100, data[100:200]) == 0
        assert store.record("obj").version == 0

    def test_update_outside_object_rejected(self):
        store = small_store()
        store.put("obj", b"x" * 100)
        with pytest.raises(StoreError):
            store.update("obj", 90, b"y" * 20)

    def test_failed_multiblock_update_is_atomic(self):
        store = small_store(stripe_blocks=1)
        block_size = store.volume.block_size
        data = synthetic_object(block_size * 2, seed=21)
        record = store.put("obj", data)
        # Exhaust block 1's update slots (slots_per_block=4 -> 3 updates).
        second_block_offset = block_size
        for i in range(3):
            store.update("obj", second_block_offset + 10, bytes([i]) * 4)
        snapshot = store.get("obj")
        version = store.record("obj").version
        # A spanning update needs a slot on both blocks; block 1 has none.
        with pytest.raises(StoreError):
            store.update("obj", block_size - 8, b"0123456789ABCDEF")
        # Nothing was applied: block 0 logged no patch, contents unchanged.
        assert store.get("obj") == snapshot
        assert store.record("obj").version == version
        first = record.extents[0]
        assert store.volume.partition(first.partition).update_count(
            first.start_block
        ) == 0

    @pytest.mark.parametrize("rewritten", [253, 256])
    def test_oversized_patch_rejected_before_anything_applies(self, rewritten):
        """A rewrite of ``rewritten`` differing bytes needs a framed patch of
        ``rewritten + 4`` bytes.  A whole 256-byte block gets the same typed
        rejection as a 253-byte rewrite, not an UpdateError from building a
        patch whose delete length overflows its one-byte field."""
        store = small_store()
        block_size = store.volume.block_size
        data = synthetic_object(block_size * 2, seed=22)
        record = store.put("obj", data)
        rewrite = bytes((byte + 1) % 256 for byte in data[:rewritten])
        with pytest.raises(
            StoreError,
            match=rf"patch of {rewritten + 4} bytes for block \d+ exceeds the "
            "block size; no patch of this update was applied",
        ):
            store.update("obj", 0, rewrite)
        assert store.get("obj") == data
        assert store.record("obj").version == 0
        first = record.extents[0]
        assert store.volume.partition(first.partition).update_count(
            first.start_block
        ) == 0

    def test_stacked_updates_apply_in_order(self):
        store = small_store()
        data = synthetic_object(600, seed=10)
        store.put("obj", data)
        store.update("obj", 0, b"AAAA")
        store.update("obj", 2, b"BBBB")
        assert store.get("obj")[:6] == b"AABBBB"
        assert store.record("obj").version == 2


class TestReadPlanner:
    def test_full_object_plan_merges_adjacent_stripes(self):
        store = small_store()
        block_size = store.volume.block_size
        record = store.put("obj", synthetic_object(block_size * 12, seed=11))
        plan = store.read_plan("obj")
        # Stripes wrap around the 3 partitions and abut (blocks 0-3 and
        # 4-7 in each), so one merged access per partition suffices.
        assert plan.reaction_count == len(record.partition_names) == 3
        assert plan.block_count == 12
        for access in plan.accesses:
            assert access.primer_count >= 1
            assert access.cover.primer_count == access.primer_count

    def test_range_plan_touches_only_needed_partitions(self):
        store = small_store()
        block_size = store.volume.block_size
        store.put("obj", synthetic_object(block_size * 12, seed=12))
        plan = store.read_plan("obj", offset=0, length=block_size)
        assert plan.reaction_count == 1
        assert plan.block_count == 1
        [access] = plan.accesses
        assert access.start_block == access.end_block == 0

    def test_plan_rejects_bad_ranges(self):
        store = small_store()
        store.put("obj", b"z" * 100)
        with pytest.raises(StoreError):
            store.read_plan("obj", offset=50, length=100)

    def test_plan_function_matches_method(self):
        store = small_store()
        record = store.put("obj", synthetic_object(2000, seed=13))
        direct = plan_object_read(store.volume, record)
        assert direct.block_count == store.read_plan("obj").block_count


class TestPlannerEdgeCases:
    def test_zero_length_reads_are_valid_empty_plans(self):
        """Zero-length / at-object-end reads follow one contract everywhere:
        ``get`` returns ``b""`` and the planner returns an empty plan, so a
        zero-length request can never abort a serving batch."""
        store = small_store()
        store.put("obj", b"x" * 1000)
        assert store.get("obj", offset=100, length=0) == b""
        assert store.get("obj", offset=1000) == b""  # zero bytes left at end
        plan = store.read_plan("obj", offset=100, length=0)
        assert plan.accesses == () and plan.block_count == 0
        assert store.read_plan("obj", offset=1000).accesses == ()
        assert block_ranges_for_read(store.record("obj"), offset=500, length=0) == {}
        # Negative lengths and ranges leaving the object are still errors.
        with pytest.raises(StoreError):
            block_ranges_for_read(store.record("obj"), offset=500, length=-1)
        with pytest.raises(StoreError):
            store.read_plan("obj", offset=1001, length=0)
        with pytest.raises(StoreError):
            store.read_plan("obj", offset=900, length=200)

    def test_single_block_object(self):
        store = small_store()
        store.put("tiny", b"q" * 17)
        plan = store.read_plan("tiny")
        assert plan.reaction_count == 1
        assert plan.block_count == 1
        [access] = plan.accesses
        assert access.start_block == access.end_block
        assert store.block_ranges("tiny") == {access.partition: [(0, 0)]}

    def test_range_spanning_a_stripe_wrap(self):
        """A range wrapping back to the first partition still merges to
        one access per partition, not one per stripe."""
        store = small_store(stripe_blocks=2, stripe_width=2)
        block_size = store.volume.block_size
        record = store.put("obj", synthetic_object(block_size * 8, seed=30))
        # Stripes of 2 alternate partitions: p0 holds logical 0-1 and 4-5,
        # p1 holds logical 2-3 and 6-7.
        assert len(record.partition_names) == 2
        plan = store.read_plan("obj", offset=block_size, length=block_size * 6)
        # Logical 1..6 -> p0 partition blocks {1,2,3}, p1 {0,1,2}: the
        # wrapped stripes abut, so each partition needs one merged access.
        assert plan.reaction_count == 2
        assert plan.block_count == 6
        spans = {a.partition: (a.start_block, a.end_block) for a in plan.accesses}
        assert sorted(spans.values()) == [(0, 2), (1, 3)]

    def test_cross_tenant_merge_of_overlapping_ranges(self):
        store = small_store()
        block_size = store.volume.block_size
        record = store.put("obj", synthetic_object(block_size * 6, seed=31))
        tenant_a = block_ranges_for_read(record, offset=0, length=3 * block_size)
        tenant_b = block_ranges_for_read(
            record, offset=2 * block_size, length=3 * block_size
        )
        merged = merge_partition_ranges([tenant_a, tenant_b])
        merged_blocks = sum(
            end - start + 1 for spans in merged.values() for start, end in spans
        )
        assert merged_blocks == 5  # logical blocks 0-2 union 2-4
        plan = plan_partition_ranges(store.volume, merged, label="tenants")
        assert plan.block_count == merged_blocks
        solo = (
            plan_object_read(store.volume, record, offset=0, length=3 * block_size),
            plan_object_read(
                store.volume, record, offset=2 * block_size, length=3 * block_size
            ),
        )
        assert plan.block_count < sum(p.block_count for p in solo)
        assert plan.object_name == "tenants"

    def test_merge_is_idempotent_and_order_independent(self):
        store = small_store()
        block_size = store.volume.block_size
        record = store.put("obj", synthetic_object(block_size * 5, seed=32))
        first = block_ranges_for_read(record)
        again = merge_partition_ranges([first, first])
        assert again == merge_partition_ranges([first])
        assert {k: v for k, v in sorted(again.items())} == {
            k: v for k, v in sorted(first.items())
        }


def per_block_ranges(record, offset, length):
    """Block ranges of a byte range, one singleton per backing block then
    merged per partition (first-seen order): the planner's per-block
    addressing, enumerating blocks straight from the extents."""
    first = offset // record.block_size
    last = (offset + length - 1) // record.block_size
    singles = {}
    logical = 0
    for extent in record.extents:
        for i in range(extent.block_count):
            if first <= logical + i <= last:
                block = extent.start_block + i
                singles.setdefault(extent.partition, []).append((block, block))
        logical += extent.block_count
    merged = {}
    for name, ranges in singles.items():
        spans = []
        for start, end in sorted(ranges):
            if spans and start <= spans[-1][1] + 1:
                spans[-1] = (spans[-1][0], max(spans[-1][1], end))
            else:
                spans.append((start, end))
        merged[name] = spans
    return merged


PARTITIONS = ("p0", "p1", "p2")


@st.composite
def striped_records(draw):
    """Records whose extents may abut in one partition (gap 0) and whose
    blocks may be remapped copy-on-write, so start blocks stop ascending."""
    block_size = 16
    next_free = {}
    extents = []
    offset = 0
    for _ in range(draw(st.integers(1, 6))):
        partition = draw(st.sampled_from(PARTITIONS))
        count = draw(st.integers(1, 5))
        start = next_free.get(partition, 0) + draw(st.sampled_from([0, 0, 1, 3]))
        extents.append(Extent(partition, start, count, offset))
        next_free[partition] = start + count
        offset += count * block_size
    size = offset - draw(st.integers(0, block_size - 1))
    record = ObjectRecord(name="obj", size=size, block_size=block_size, extents=extents)
    for _ in range(draw(st.integers(0, 2))):
        partition = draw(st.sampled_from(PARTITIONS))
        fresh = next_free.get(partition, 0)
        record.remap_block(draw(st.integers(0, size - 1)), partition, fresh)
        next_free[partition] = fresh + 1
    return record


class TestExtentWindows:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_block_ranges_equal_per_block_reference(self, data):
        record = data.draw(striped_records())
        offset = data.draw(st.integers(0, record.size))
        length = data.draw(st.integers(0, record.size - offset))
        ranges = block_ranges_for_read(record, offset=offset, length=length)
        if length == 0:
            assert ranges == {}
        else:
            expected = per_block_ranges(record, offset, length)
            assert list(ranges.items()) == list(expected.items())
        whole = block_ranges_for_read(record, offset=offset)
        if offset < record.size:
            expected = per_block_ranges(record, offset, record.size - offset)
            assert list(whole.items()) == list(expected.items())
        else:
            assert whole == {}

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_out_of_object_ranges_raise(self, data):
        record = data.draw(striped_records())
        offset, length = data.draw(
            st.one_of(
                st.tuples(st.integers(-5, -1), st.integers(0, 5)),
                st.tuples(st.integers(0, record.size), st.integers(-5, -1)),
                st.tuples(
                    st.integers(0, record.size),
                    st.integers(record.size + 1, record.size + 40),
                ),
            )
        )
        with pytest.raises(StoreError):
            block_ranges_for_read(record, offset=offset, length=length)


class TestCacheReadPath:
    class _DictCache:
        """Minimal cache double for the volume's block_cache protocol."""

        def __init__(self):
            self.entries = {}
            self.gets = 0

        def get(self, partition, block, epoch=0):
            self.gets += 1
            return self.entries.get((partition, block, epoch))

        def put(self, partition, block, data, epoch=0):
            self.entries[(partition, block, epoch)] = data

        def invalidate(self, partition, block, epoch=None):
            stale = [
                key
                for key in self.entries
                if key[:2] == (partition, block) and epoch in (None, key[2])
            ]
            for key in stale:
                del self.entries[key]

    def test_get_fills_and_then_serves_from_cache(self):
        store = small_store()
        data = synthetic_object(2000, seed=40)
        store.put("obj", data)
        cache = self._DictCache()
        assert store.get("obj", block_cache=cache) == data
        filled = len(cache.entries)
        assert filled == store.record("obj").block_count
        # Second read is served from the cache: same bytes, no new fills.
        assert store.get("obj", block_cache=cache) == data
        assert len(cache.entries) == filled

    def test_attached_cache_is_default_and_kept_coherent(self):
        store = small_store()
        data = synthetic_object(1500, seed=41)
        store.put("obj", data)
        cache = self._DictCache()
        store.attach_cache(cache)
        assert store.get("obj") == data
        assert cache.entries
        store.update("obj", 0, b"FRESH")
        assert store.get("obj")[:5] == b"FRESH"


# ----------------------------------------------------------------------
# Inline block decoding (try_decode_blocks)
# ----------------------------------------------------------------------
def _distance_backend_specs() -> list[str]:
    """Each distance backend by name, then as an instance."""
    names = available_distance_backends()
    return names + [f"{name}-instance" for name in names]


class TestInlineDecode:
    def test_decodes_every_block_to_the_stored_bytes(self, decode_workload):
        store, blocks, reads = decode_workload
        payloads, failures = store.try_decode_blocks(blocks, reads)
        assert not failures
        assert payloads == {
            (name, block): store.volume.partition(name).read_block_reference(block)
            for name, targets in blocks.items()
            for block in targets
        }

    def test_codec_backends_decode_identically(self, decode_workload, monkeypatch):
        store, blocks, reads = decode_workload
        outputs = {}
        for backend in available_backends():
            monkeypatch.setenv("REPRO_CODEC_BACKEND", backend)
            outputs[backend] = store.try_decode_blocks(blocks, reads)
        assert not outputs["python"][1]
        assert all(output == outputs["python"] for output in outputs.values())

    @pytest.mark.parametrize("distance_backend", _distance_backend_specs())
    def test_fused_and_reference_kernels_decode_identically(
        self, decode_workload, monkeypatch, distance_backend
    ):
        # A backend goes to the decoder by name or as an instance.
        store, blocks, reads = decode_workload
        name, _, instance = distance_backend.partition("-")
        backend = (
            {"python": PythonDistanceBackend, "numpy": NumpyDistanceBackend}[name]()
            if instance
            else name
        )
        outputs = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_FUSED_KERNELS", flag)
            outputs[flag] = store.try_decode_blocks(
                blocks, reads, distance_backend=backend
            )
        assert outputs["0"] == outputs["1"]
        assert not outputs["1"][1]

    def test_missing_partition_reads_fail_per_block(self, decode_workload):
        store, blocks, reads = decode_workload
        dropped = next(iter(reads))
        partial = {name: r for name, r in reads.items() if name != dropped}
        payloads, failures = store.try_decode_blocks(blocks, partial)
        assert set(failures) == {(dropped, block) for block in blocks[dropped]}
        assert set(failures.values()) == {
            f"no reads provided for partition {dropped!r}"
        }
        assert set(payloads) == {
            (name, block)
            for name, targets in blocks.items()
            if name != dropped
            for block in targets
        }

    def test_stage_seconds_land_in_the_callers_collector(self, decode_workload):
        store, blocks, reads = decode_workload
        with collect_stages() as stages:
            store.try_decode_blocks(blocks, reads)
        assert stages.get("cluster", 0.0) > 0.0
        assert "consensus" in stages and "syndrome_solve" in stages

    @staticmethod
    def _decode(store, entry, blocks, reads, **counts):
        if entry == "decode_object":
            return store.decode_object("obj-0", reads, **counts)
        return getattr(store, entry)(blocks, reads, **counts)

    @pytest.mark.parametrize("keyword", ["workers", "cluster_shards"])
    @pytest.mark.parametrize(
        "entry", ["decode_blocks", "try_decode_blocks", "decode_object"]
    )
    def test_worker_and_shard_counts_are_validated(
        self, decode_workload, entry, keyword
    ):
        # Ignored (decode is inline), but still rejected below 1 on every
        # decode entry point.
        store, blocks, reads = decode_workload
        for value in (0, -1):
            with pytest.raises(StoreError, match=f"{keyword} must be >= 1"):
                self._decode(store, entry, blocks, reads, **{keyword: value})

    @pytest.mark.parametrize(
        "entry", ["decode_blocks", "try_decode_blocks", "decode_object"]
    )
    def test_worker_and_shard_counts_are_ignored(self, decode_workload, entry):
        store, blocks, reads = decode_workload
        inline = self._decode(store, entry, blocks, reads)
        for counts in ({"workers": 1, "cluster_shards": 1}, {"workers": 2, "cluster_shards": 4}):
            assert self._decode(store, entry, blocks, reads, **counts) == inline
        if entry == "decode_object":
            assert inline == store.get("obj-0")
