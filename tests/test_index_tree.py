"""Tests for the PCR-navigable index tree (the paper's core construction)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_tree import IndexTree
from repro.exceptions import AddressError, IndexTreeError
from repro.sequence import gc_content, hamming_distance, max_homopolymer_run


@pytest.fixture(scope="module")
def tree1024():
    return IndexTree(leaf_count=1024, seed=7)


class TestConstruction:
    def test_depth_for_1024_leaves(self, tree1024):
        assert tree1024.depth == 5

    def test_address_length_is_ten_bases(self, tree1024):
        # Section 6.3: 10 bases of sparse index for 1024 encoding units.
        assert tree1024.address_length == 10

    def test_depth_for_non_power_of_four(self):
        assert IndexTree(leaf_count=600, seed=1).depth == 5

    def test_single_leaf(self):
        tree = IndexTree(leaf_count=1, seed=1)
        assert tree.depth == 1
        assert len(tree.encode(0)) == 2

    def test_invalid_leaf_count(self):
        with pytest.raises(IndexTreeError):
            IndexTree(leaf_count=0, seed=1)

    def test_dense_mode_address_length(self):
        tree = IndexTree(leaf_count=1024, seed=7, sparse=False)
        assert tree.address_length == 5


class TestEncodeDecode:
    def test_roundtrip_all_leaves(self):
        tree = IndexTree(leaf_count=64, seed=3)
        for leaf in range(64):
            assert tree.decode(tree.encode(leaf)) == leaf

    def test_addresses_unique(self, tree1024):
        addresses = tree1024.all_addresses()
        assert len(set(addresses)) == 1024

    def test_out_of_range_leaf(self, tree1024):
        with pytest.raises(AddressError):
            tree1024.encode(1024)
        with pytest.raises(AddressError):
            tree1024.encode(-1)

    def test_decode_wrong_length(self, tree1024):
        with pytest.raises(AddressError):
            tree1024.decode("ACGT")

    def test_decode_invalid_separator(self, tree1024):
        address = tree1024.encode(5)
        # Corrupt a separator base (odd position) to something that cannot
        # match the deterministic construction (same letter as its edge).
        corrupted = address[:1] + address[0] + address[2:]
        with pytest.raises(AddressError):
            tree1024.decode(corrupted)

    def test_try_decode_returns_none_for_garbage(self, tree1024):
        assert tree1024.try_decode("A" * 10) is None

    def test_try_decode_valid(self, tree1024):
        assert tree1024.try_decode(tree1024.encode(531)) == 531

    def test_dense_mode_roundtrip(self):
        tree = IndexTree(leaf_count=256, seed=5, sparse=False)
        for leaf in (0, 1, 100, 255):
            assert tree.decode(tree.encode(leaf)) == leaf

    def test_deterministic_given_seed(self):
        a = IndexTree(leaf_count=256, seed=11)
        b = IndexTree(leaf_count=256, seed=11)
        assert a.all_addresses() == b.all_addresses()

    def test_different_seeds_give_different_trees(self):
        a = IndexTree(leaf_count=256, seed=11)
        b = IndexTree(leaf_count=256, seed=12)
        assert a.all_addresses() != b.all_addresses()


class TestPCRCompatibilityProperties:
    """The Section 4.3 guarantees: GC balance, homopolymer cap, distances."""

    def test_even_prefixes_perfectly_gc_balanced(self, tree1024):
        for leaf in range(0, 1024, 37):
            address = tree1024.encode(leaf)
            for prefix_length in range(2, len(address) + 1, 2):
                assert gc_content(address[:prefix_length]) == pytest.approx(0.5)

    def test_no_homopolymer_longer_than_two(self, tree1024):
        for address in tree1024.all_addresses():
            assert max_homopolymer_run(address) <= 2

    def test_separator_never_repeats_edge(self, tree1024):
        for leaf in range(0, 1024, 101):
            address = tree1024.encode(leaf)
            for i in range(0, len(address), 2):
                edge, separator = address[i], address[i + 1]
                gc = {"G", "C"}
                assert (edge in gc) != (separator in gc)

    def test_sibling_hamming_distance_at_least_two(self):
        tree = IndexTree(leaf_count=256, seed=19)
        for leaf in range(0, 256, 16):
            address = tree.encode(leaf)
            for sibling in tree.sibling_addresses(leaf):
                assert hamming_distance(address, sibling) >= 2

    def test_sparse_distances_exceed_dense_distances(self):
        """Sparsity should at least double the average pairwise Hamming
        distance between same-length indexes (Section 4.3)."""
        sparse = IndexTree(leaf_count=64, seed=2)
        dense = IndexTree(leaf_count=64, seed=2, sparse=False)
        sparse_addresses = sparse.all_addresses()
        dense_addresses = dense.all_addresses()

        def mean_distance(addresses):
            total, pairs = 0, 0
            for i in range(len(addresses)):
                for j in range(i + 1, len(addresses)):
                    total += hamming_distance(addresses[i], addresses[j])
                    pairs += 1
            return total / pairs

        assert mean_distance(sparse_addresses) >= 2 * mean_distance(dense_addresses)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=500),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_roundtrip_and_gc_property(self, leaf_count, seed):
        tree = IndexTree(leaf_count=leaf_count, seed=seed)
        leaf = leaf_count - 1
        address = tree.encode(leaf)
        assert tree.decode(address) == leaf
        assert gc_content(address) == pytest.approx(0.5)
        assert max_homopolymer_run(address) <= 2


class TestPrefixes:
    def test_prefix_for_leaf_levels(self, tree1024):
        full = tree1024.encode(100)
        for levels in range(6):
            prefix = tree1024.prefix_for_leaf(100, levels)
            assert full.startswith(prefix)
            assert len(prefix) == 2 * levels

    def test_prefix_levels_out_of_range(self, tree1024):
        with pytest.raises(AddressError):
            tree1024.prefix_for_leaf(0, 6)

    @pytest.mark.parametrize("leaf", [64, -1, 1000])
    @pytest.mark.parametrize("levels", [0, 1, 3])
    def test_prefix_for_leaf_outside_tree(self, leaf, levels):
        """A leaf past ``leaf_count`` has no prefix; its digits would wrap
        onto a real leaf (64 onto 0, -1 onto 63, 1000 onto 40)."""
        tree = IndexTree(leaf_count=64, seed=3)
        with pytest.raises(AddressError):
            tree.prefix_for_leaf(leaf, levels)

    def test_encode_path_partial(self, tree1024):
        prefix = tree1024.encode_path((1, 2))
        assert len(prefix) == 4

    def test_encode_path_too_long(self, tree1024):
        with pytest.raises(AddressError):
            tree1024.encode_path((0,) * 6)

    def test_encode_path_invalid_digit(self, tree1024):
        with pytest.raises(AddressError):
            tree1024.encode_path((0, 4))

    def test_decode_path_partial(self, tree1024):
        digits = (2, 1, 3)
        assert tree1024.decode_path(tree1024.encode_path(digits)) == digits

    def test_leaves_under_prefix_root(self, tree1024):
        assert tree1024.leaves_under_prefix(()) == range(0, 1024)

    def test_leaves_under_prefix_subtree(self, tree1024):
        leaves = tree1024.leaves_under_prefix((0, 0, 0, 0))
        assert leaves == range(0, 4)

    @pytest.mark.parametrize("digits", [(5,), (-1,), (0, 4), (2, -3)])
    def test_leaves_under_prefix_invalid_digit(self, digits):
        tree = IndexTree(leaf_count=64, seed=3)
        with pytest.raises(AddressError):
            tree.leaves_under_prefix(digits)

    def test_leaves_under_prefix_clamped_to_leaf_count(self):
        tree = IndexTree(leaf_count=600, seed=1)
        leaves = tree.leaves_under_prefix((3,))
        assert leaves.start == 768
        assert leaves.stop == 600 or len(leaves) == 0

    def test_shared_prefix_structure(self, tree1024):
        """Leaves in the same subtree share the subtree's encoded prefix."""
        prefix = tree1024.encode_path((1, 2, 3))
        for leaf in tree1024.leaves_under_prefix((1, 2, 3)):
            assert tree1024.encode(leaf).startswith(prefix)
