"""Tests for the Partition (block store) API."""

import os
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.partition as partition_module
from repro.constants import SYNC_BASE
from repro.core.addressing import BlockAddress
from repro.core.elongation import ElongatedPrimer
from repro.core.partition import Partition, PartitionConfig
from repro.core.prefix_cover import prefix_cover_for_range
from repro.core.updates import ReplacementPatch, UpdatePatch
from repro.exceptions import (
    AddressError,
    CapacityError,
    PartitionError,
    UpdateError,
)
from repro.primers.library import PrimerPair

PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")


@pytest.fixture()
def partition():
    return Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=5))


class TestGeometry:
    def test_block_size(self, partition):
        assert partition.block_size == 256

    def test_capacity(self, partition):
        assert partition.capacity_blocks == 64
        assert partition.capacity_bytes == 64 * 256

    def test_molecules_per_block(self, partition):
        assert partition.molecules_per_block == 15

    def test_layout_adapts_to_tree_address_length(self):
        """A partition whose tree needs a different index width than the
        provided molecule layout adapts the layout rather than failing."""
        small = Partition(PartitionConfig(primers=PAIR, leaf_count=16))
        assert small.config.molecule_layout.unit_index_bases == small.tree.address_length
        large = Partition(PartitionConfig(primers=PAIR, leaf_count=5000))
        assert large.config.molecule_layout.unit_index_bases == large.tree.address_length


class TestWriting:
    def test_write_splits_into_blocks(self, partition):
        blocks = partition.write(bytes(1000))
        assert blocks == [0, 1, 2, 3]
        assert partition.block_count == 4

    def test_write_empty(self, partition):
        assert partition.write(b"") == []

    def test_write_beyond_capacity(self, partition):
        with pytest.raises(CapacityError):
            partition.write(bytes(64 * 256 + 1))

    def test_write_at_offset(self, partition):
        blocks = partition.write(bytes(600), start_block=10)
        assert blocks == [10, 11, 12]

    def test_write_block_too_large(self, partition):
        with pytest.raises(CapacityError):
            partition.write_block(0, bytes(257))

    def test_write_block_out_of_range(self, partition):
        with pytest.raises(AddressError):
            partition.write_block(64, b"data")

    def test_written_blocks_sorted(self, partition):
        partition.write_block(5, b"five")
        partition.write_block(2, b"two")
        assert partition.written_blocks() == [2, 5]


class TestUpdates:
    def test_update_assigns_slots_in_order(self, partition):
        partition.write_block(3, b"original contents")
        first = partition.update_block(3, UpdatePatch(0, 0, 0, b"a"))
        second = partition.update_block(3, UpdatePatch(0, 0, 1, b"b"))
        assert first == BlockAddress(3, 1)
        assert second == BlockAddress(3, 2)
        assert partition.update_count(3) == 2

    def test_update_unwritten_block_rejected(self, partition):
        with pytest.raises(PartitionError):
            partition.update_block(3, UpdatePatch(0, 0, 0, b"a"))

    def test_update_slots_exhausted(self, partition):
        partition.write_block(0, b"x")
        for _ in range(3):
            partition.update_block(0, UpdatePatch(0, 0, 0, b"y"))
        with pytest.raises(UpdateError):
            partition.update_block(0, UpdatePatch(0, 0, 0, b"z"))

    def test_oversized_patch_rejected(self, partition):
        partition.write_block(0, bytes(256))
        with pytest.raises(UpdateError):
            partition.update_block(0, UpdatePatch(0, 0, 0, bytes(255)))

    def test_read_block_reference_applies_chain(self, partition):
        partition.write_block(1, b"hello world")
        partition.update_block(1, UpdatePatch(0, 5, 0, b"howdy"))
        partition.update_block(1, UpdatePatch(6, 5, 6, b"there"))
        assert partition.read_block_reference(1) == b"howdy there"

    def test_original_data_untouched_by_updates(self, partition):
        partition.write_block(1, b"hello world")
        partition.update_block(1, ReplacementPatch(b"replaced"))
        assert partition.original_block_data(1) == b"hello world"
        assert partition.read_block_reference(1) == b"replaced"

    def test_block_patches_returns_copy(self, partition):
        partition.write_block(1, b"data")
        partition.update_block(1, UpdatePatch(0, 0, 0, b"x"))
        patches = partition.block_patches(1)
        patches.clear()
        assert partition.update_count(1) == 1


class TestMolecules:
    def test_block_molecule_count(self, partition):
        partition.write_block(0, os.urandom(256))
        assert len(partition.molecules_for_block(0)) == 15

    def test_updates_add_molecules(self, partition):
        partition.write_block(0, os.urandom(256))
        partition.update_block(0, UpdatePatch(0, 0, 0, b"patch"))
        assert len(partition.molecules_for_block(0)) == 30
        assert len(partition.molecules_for_block(0, include_updates=False)) == 15

    def test_all_molecules(self, partition):
        partition.write(os.urandom(256 * 3))
        assert len(partition.all_molecules()) == 45

    def test_update_molecules_share_block_prefix(self, partition):
        """Section 5.3: the update's unit index differs from the block's only
        in the final slot base, so they share the PCR-addressable prefix."""
        partition.write_block(7, os.urandom(256))
        partition.update_block(7, UpdatePatch(0, 1, 0, b"z"))
        original = partition.molecules_for_address(BlockAddress(7, 0))[0]
        update = partition.update_molecules(7, 1)[0]
        assert original.unit_index[:-1] == update.unit_index[:-1]
        assert original.unit_index[-1] != update.unit_index[-1]

    def test_update_molecules_invalid_version(self, partition):
        partition.write_block(7, b"data")
        with pytest.raises(UpdateError):
            partition.update_molecules(7, 1)

    def test_strands_have_layout_length(self, partition):
        partition.write_block(0, os.urandom(256))
        expected = partition.config.molecule_layout.strand_length
        for molecule in partition.molecules_for_block(0):
            assert len(molecule.to_strand()) == expected

    def test_full_scale_partition_strands_are_150_bases(self):
        """With the paper's 1024-leaf tree the strand length is exactly 150."""
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=1024))
        partition.write_block(0, os.urandom(256))
        for molecule in partition.molecules_for_block(0):
            assert len(molecule.to_strand()) == 150


class TestReadPlanning:
    def test_primer_for_block_length(self, partition):
        assert partition.primer_for_block(5).length == 20 + 1 + 2 * partition.tree.depth

    def test_primer_out_of_range(self, partition):
        with pytest.raises(AddressError):
            partition.primer_for_block(64)

    def test_range_primers_cover_range(self, partition):
        primers = partition.primers_for_range(3, 14)
        assert len(primers) >= 1

    def test_prefix_cover(self, partition):
        cover = partition.prefix_cover(0, 15)
        assert cover.range_size == 16


def fresh_range_plan(partition, start, end):
    """A range's cover and primers built from scratch, as before plans were
    memoised: full-depth targets are decoded back from their addresses."""
    tree = partition.tree
    cover = prefix_cover_for_range(tree, start, end)
    primers = []
    for path, address in zip(cover.paths, cover.addresses):
        target = tree.decode(address) if len(path) == tree.depth else None
        primers.append(
            ElongatedPrimer(
                main_primer=partition.config.primers.forward,
                elongation=SYNC_BASE + address,
                target_block=target,
                levels=len(path),
            )
        )
    return cover, primers


def _is_power_of_four(n):
    return n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0


@st.composite
def range_lookups(draw):
    """A partition shape plus a lookup sequence that repeats ranges and
    mixes in invalid ones."""
    leaf_count = draw(
        st.integers(min_value=2, max_value=1100).filter(
            lambda n: not _is_power_of_four(n)
        )
    )
    block = st.integers(min_value=0, max_value=leaf_count - 1)
    valid = st.tuples(block, block).map(lambda pair: tuple(sorted(pair)))
    invalid = st.one_of(
        st.tuples(st.integers(-5, -1), block),
        st.tuples(block, st.integers(leaf_count, leaf_count + 5)),
        st.tuples(block, block).filter(lambda pair: pair[0] != pair[1]).map(
            lambda pair: tuple(sorted(pair, reverse=True))
        ),
    )
    pool = draw(st.lists(valid, min_size=1, max_size=6))
    lookups = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), valid, invalid), min_size=1, max_size=25
        )
    )
    return {
        "leaf_count": leaf_count,
        "sparse": draw(st.booleans()),
        "tree_seed": draw(st.integers(0, 10_000)),
        "limit": draw(st.sampled_from([1, 2, 3, 1024])),
        "lookups": lookups,
    }


class TestRangePlanMemo:
    @settings(max_examples=60, deadline=None)
    @given(range_lookups())
    @example(  # a hit on the oldest plan must not save it from eviction
        {
            "leaf_count": 48,
            "sparse": False,
            "tree_seed": 3,
            "limit": 2,
            "lookups": [(0, 0), (0, 47), (0, 0), (5, 9), (0, 0), (47, 0)],
        }
    )
    def test_memoised_plans_equal_fresh_builds(self, case):
        partition = Partition(
            PartitionConfig(
                primers=PAIR,
                leaf_count=case["leaf_count"],
                tree_seed=case["tree_seed"],
                sparse_index=case["sparse"],
            )
        )
        memo = partition._range_plans
        expected_keys = []  # insertion order; the oldest is dropped first
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partition_module, "_RANGE_PLAN_LIMIT", case["limit"])
            for start, end in case["lookups"]:
                if not 0 <= start <= end < case["leaf_count"]:
                    before = list(memo.items())
                    for lookup in (
                        partition.prefix_cover,
                        partition.primers_for_range,
                        partition.range_plan,
                    ):
                        with pytest.raises(AddressError):
                            lookup(start, end)
                    assert list(memo.items()) == before
                    continue
                cover, primers = fresh_range_plan(partition, start, end)
                assert partition.prefix_cover(start, end) == cover
                listed = partition.primers_for_range(start, end)
                assert listed == primers
                listed.clear()  # a fresh list each call: the memo is untouched
                assert partition.primers_for_range(start, end) == primers
                assert partition.range_plan(start, end) == (cover, tuple(primers))
                if (start, end) not in expected_keys:
                    expected_keys.append((start, end))
                    del expected_keys[: -case["limit"]]
                assert list(memo) == expected_keys

    def test_pickled_partition_carries_no_plans(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=200, tree_seed=9))
        ranges = [(0, 199), (3, 17), (3, 17), (150, 150)]
        plans = [partition.range_plan(start, end) for start, end in ranges]
        clone = pickle.loads(pickle.dumps(partition))
        assert clone._range_plans == {}
        assert len(partition._range_plans) == 3
        assert [clone.range_plan(start, end) for start, end in ranges] == plans


class TestDecoding:
    def _units_for_block(self, partition, block):
        units = {}
        for molecule in partition.molecules_for_block(block):
            address = partition.parse_unit_index(molecule.unit_index)
            units.setdefault(address.slot, {})[molecule.intra_index] = molecule.payload
        return units

    def test_roundtrip_without_updates(self, partition):
        data = os.urandom(256)
        partition.write_block(2, data)
        units = self._units_for_block(partition, 2)
        assert partition.decode_block_from_units(units) == data

    def test_roundtrip_with_updates(self, partition):
        partition.write_block(2, b"the quick brown fox jumps over the lazy dog")
        partition.update_block(2, UpdatePatch(4, 5, 4, b"slow "))
        units = self._units_for_block(partition, 2)
        decoded = partition.decode_block_from_units(
            units, block_length=len(b"the quick brown fox jumps over the lazy dog")
        )
        assert decoded == partition.read_block_reference(2)

    def test_roundtrip_with_missing_columns(self, partition):
        data = os.urandom(256)
        partition.write_block(2, data)
        units = self._units_for_block(partition, 2)
        for missing in (1, 6, 9, 13):
            units[0].pop(missing)
        assert partition.decode_block_from_units(units) == data

    def test_missing_original_unit_rejected(self, partition):
        partition.write_block(2, b"data")
        partition.update_block(2, UpdatePatch(0, 0, 0, b"x"))
        units = self._units_for_block(partition, 2)
        units.pop(0)
        with pytest.raises(PartitionError):
            partition.decode_block_from_units(units)

    def test_parse_unit_index_garbage(self, partition):
        assert partition.parse_unit_index("A" * 11) is None

    def test_dense_baseline_partition_roundtrip(self):
        """The ablation configuration (dense indexes) must still round-trip."""
        from repro.codec.molecule import MoleculeLayout

        config = PartitionConfig(
            primers=PAIR,
            leaf_count=64,
            sparse_index=False,
            molecule_layout=MoleculeLayout(unit_index_bases=3),
        )
        partition = Partition(config)
        data = os.urandom(256)
        partition.write_block(1, data)
        units = {}
        for molecule in partition.molecules_for_block(1):
            address = partition.parse_unit_index(molecule.unit_index)
            units.setdefault(address.slot, {})[molecule.intra_index] = molecule.payload
        assert partition.decode_block_from_units(units) == data

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=256))
    def test_roundtrip_property(self, data):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=5))
        partition.write_block(0, data)
        units = {}
        for molecule in partition.molecules_for_block(0):
            address = partition.parse_unit_index(molecule.unit_index)
            units.setdefault(address.slot, {})[molecule.intra_index] = molecule.payload
        decoded = partition.decode_block_from_units(units, block_length=len(data))
        assert decoded == data


class TestBatchRead:
    def test_read_contiguous_range(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64))
        data = bytes(range(256)) * 3
        partition.write(data)
        assert partition.read(start_block=0, block_count=3) == data
        assert partition.read(start_block=1, block_count=1) == data[256:512]

    def test_read_default_skips_holes(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64))
        partition.write_block(0, b"a" * 16)
        partition.write_block(5, b"b" * 16)
        assert partition.read() == b"a" * 16 + b"b" * 16
        assert partition.read(start_block=1) == b"b" * 16

    def test_explicit_read_over_hole_raises(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64))
        partition.write_block(0, b"a" * 16)
        partition.write_block(2, b"b" * 16)
        with pytest.raises(PartitionError):
            partition.read(start_block=0, block_count=3)

    def test_read_applies_updates(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64))
        partition.write(b"x" * 512)
        partition.update_block(1, UpdatePatch(0, 4, 0, b"YYYY"))
        assert partition.read(start_block=1, block_count=1).startswith(b"YYYY")
